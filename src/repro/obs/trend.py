"""Diff two BENCH-style summaries: where did the time (and counters) go?

``repro obs trend`` compares two benchmark/telemetry summary files —
either pytest-benchmark JSONs (the ``BENCH_*.json`` files CI produces)
or :func:`repro.obs.export.summary_dict` outputs (``--profile``
summaries); the two formats share the ``benchmarks`` list shape, so they
can even be compared against each other when the names line up.

Timing comparison uses the same median-normalization idea as the CI
regression gate (``benchmarks/check_regression.py``): per shared
benchmark the ratio ``current/baseline`` is divided by the median ratio
across all shared benchmarks, absorbing uniform machine-speed
differences and leaving only *relative* drift.  Counters (when both
files carry them — obs summaries do) are diffed directly: counts are
machine-independent, so any change is a behaviour change worth seeing.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["TrendReport", "load_summary", "compare_summaries", "format_trend"]


@dataclass
class TrendReport:
    """The comparison of one current summary against a baseline.

    Attributes:
        shared: benchmark name -> (normalized ratio, raw ratio).
        median_ratio: the machine-speed normalizer (median raw ratio).
        only_current / only_baseline: benchmark names present on one
            side only.
        counter_changes: counter name -> (baseline, current), only
            counters whose values differ (either side missing = 0).
        regressions: names whose normalized ratio exceeded the
            threshold passed to :func:`compare_summaries`.
    """

    shared: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    median_ratio: float = 1.0
    only_current: List[str] = field(default_factory=list)
    only_baseline: List[str] = field(default_factory=list)
    counter_changes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    regressions: List[str] = field(default_factory=list)


def load_summary(path: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Load (benchmark means, counters) from a summary JSON.

    Accepts pytest-benchmark files (``fullname`` keys, no counters) and
    ``repro-obs-summary`` files (``fullname`` or ``name`` keys, plus a
    ``counters`` mapping).

    Raises:
        ValueError: for JSON that carries neither benchmarks nor
            counters (almost certainly the wrong file).
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    means: Dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        if name is None:
            continue
        try:
            means[str(name)] = float(bench["stats"]["mean"])
        except (KeyError, TypeError, ValueError):
            continue
    counters_raw = payload.get("counters", {})
    counters: Dict[str, int] = {}
    if isinstance(counters_raw, dict):
        for key, value in counters_raw.items():
            try:
                counters[str(key)] = int(value)
            except (TypeError, ValueError):
                continue
    if not means and not counters:
        raise ValueError(
            f"{path}: no benchmarks or counters found "
            f"(expected a pytest-benchmark or repro-obs-summary JSON)"
        )
    return means, counters


def compare_summaries(
    current_path: str, baseline_path: str, threshold: float = 0.25
) -> TrendReport:
    """Build the :class:`TrendReport` for current vs baseline.

    Raises:
        ValueError: for unusable input files (propagated from
            :func:`load_summary`) or a ``threshold`` that is not finite
            and positive.
    """
    # Written so that NaN, which fails every comparison, is rejected:
    # no drift ratio exceeds ``1 + nan``, so it would pass everything.
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    current_means, current_counters = load_summary(current_path)
    baseline_means, baseline_counters = load_summary(baseline_path)

    report = TrendReport()
    shared = sorted(set(current_means) & set(baseline_means))
    if shared:
        ratios = {
            name: current_means[name] / baseline_means[name]
            for name in shared
            if baseline_means[name] > 0
        }
        if ratios:
            report.median_ratio = statistics.median(ratios.values())
            normalizer = report.median_ratio if report.median_ratio > 0 else 1.0
            limit = 1.0 + threshold
            for name in sorted(ratios):
                normalized = ratios[name] / normalizer
                report.shared[name] = (normalized, ratios[name])
                if normalized > limit:
                    report.regressions.append(name)
    report.only_current = sorted(set(current_means) - set(baseline_means))
    report.only_baseline = sorted(set(baseline_means) - set(current_means))

    for name in sorted(set(current_counters) | set(baseline_counters)):
        before = baseline_counters.get(name, 0)
        after = current_counters.get(name, 0)
        if before != after:
            report.counter_changes[name] = (before, after)
    return report


def format_trend(report: TrendReport, threshold: float = 0.25) -> str:
    """Render a :class:`TrendReport` as the human text the CLI prints."""
    lines: List[str] = []
    if report.shared:
        lines.append(
            f"{len(report.shared)} benchmark(s) shared; median speed ratio "
            f"{report.median_ratio:.3f} (used to normalize)"
        )
        lines.append(f"{'normalized':>10}  {'raw ratio':>9}  benchmark")
        limit = 1.0 + threshold
        for name, (normalized, raw) in report.shared.items():
            flag = f"  DRIFT (> {limit:.2f}x)" if name in report.regressions else ""
            lines.append(f"{normalized:>10.3f}  {raw:>9.3f}  {name}{flag}")
    else:
        lines.append("no benchmarks shared between the two summaries")
    if report.only_current:
        lines.append(
            f"{len(report.only_current)} benchmark(s) only in current: "
            + ", ".join(report.only_current)
        )
    if report.only_baseline:
        lines.append(
            f"{len(report.only_baseline)} benchmark(s) only in baseline: "
            + ", ".join(report.only_baseline)
        )
    if report.counter_changes:
        lines.append("")
        lines.append(f"{len(report.counter_changes)} counter(s) changed:")
        width = max(len(name) for name in report.counter_changes)
        for name, (before, after) in report.counter_changes.items():
            delta = after - before
            lines.append(f"  {name:<{width}}  {before} -> {after} ({delta:+d})")
    if report.regressions:
        lines.append("")
        lines.append(
            f"DRIFT: {len(report.regressions)} benchmark(s) slowed beyond "
            f"the {threshold:.0%} threshold"
        )
    else:
        lines.append("")
        lines.append("OK: no benchmark drifted beyond the threshold")
    return "\n".join(lines)
