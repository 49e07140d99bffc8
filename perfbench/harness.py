"""Timing, tracing and reporting helpers shared by the workloads.

A workload run has three phases: set-up (repeated, median reported),
a timed phase of whole operations lasting about ``--seconds``, and an
output check.  The first operation of the timed phase is a warm-up: it
pays for lazy imports and first-touch allocations, is checked like the
others, and is left out of the timings.  With ``--trace 1`` the
operations after it alternate between traced ones (a fresh
:class:`repro.obs.Telemetry` registry active, and a benchmark span
around each public call) and untraced ones; the per-layer numbers come
from the traced operations and the gap between the two kinds is the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Variables that pin BLAS and OpenMP pools to one thread.  The shared
#: two-core machine runs the serve workload's server and load generator
#: side by side, and an idle pool thread spinning on the other core makes
#: every workload's timings depend on what else the machine is running.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin numeric thread pools to one thread; call before importing NumPy."""
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value) -> str:
    """A stable SHA-256 of a JSON-representable value."""
    blob = json.dumps(value, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def timed_setup(build: Callable[[], object], repeats: int) -> Tuple[object, float]:
    """Run ``build`` ``repeats`` times; the last result and the median time."""
    result = None
    seconds = []
    for _ in range(repeats):
        result = None  # let the previous inputs go before building again
        start = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - start)
    return result, statistics.median(seconds)


@dataclass
class OpRecord:
    """One timed operation: its wall time, work units and trace."""

    seconds: float
    units: int
    traced: bool
    warmup: bool
    output: object = None  # the summary of the op's output
    snapshot: object = None  # TelemetrySnapshot of a traced op
    error: Optional[str] = None


def run_timed(
    op: Callable[[], Tuple[object, int]],
    seconds: float,
    trace: bool,
    op_span: str,
    summarize: Callable[[object], object],
) -> List[OpRecord]:
    """Call ``op`` back to back until ``seconds`` have passed.

    ``op`` returns ``(output, units)``; only ``summarize(output)``, taken
    after the clock stops, is kept, so one output at a time is alive.
    Every started operation runs to completion, so the phase ends within
    one operation of ``seconds``.
    The first operation is an untraced warm-up; with ``trace`` the rest
    alternate traced / untraced, starting with a traced one.  An
    operation that raises is recorded as failed.
    """
    from repro.obs import Telemetry, span, telemetry

    records: List[OpRecord] = []
    phase_start = time.perf_counter()
    # At least one measured operation follows the warm-up.
    while len(records) < 2 or time.perf_counter() - phase_start < seconds:
        warmup = not records
        traced = trace and not warmup and len(records) % 2 == 1
        registry = Telemetry(trace=False) if traced else None
        output = None  # let the previous output go before the next builds
        start = time.perf_counter()
        try:
            if traced:
                with telemetry(registry), span(op_span):
                    output, units = op()
            else:
                output, units = op()
        except Exception as exc:  # a failed op is counted, not fatal
            records.append(
                OpRecord(
                    seconds=time.perf_counter() - start,
                    units=0,
                    traced=traced,
                    warmup=warmup,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        elapsed = time.perf_counter() - start
        records.append(
            OpRecord(
                seconds=elapsed,
                units=units,
                traced=traced,
                warmup=warmup,
                output=summarize(output),
                snapshot=registry.snapshot() if traced else None,
            )
        )
    return records


def span_seconds(snapshots: Sequence, leaf: str) -> float:
    """Total seconds of every span whose last path component is ``leaf``."""
    return sum(
        total
        for snapshot in snapshots
        for path, (_count, total) in snapshot.span_totals.items()
        if path.rsplit("/", 1)[-1] == leaf
    )


def span_count(snapshots: Sequence, leaf: str) -> int:
    """How many times a span whose last path component is ``leaf`` ran."""
    return sum(
        count
        for snapshot in snapshots
        for path, (count, _total) in snapshot.span_totals.items()
        if path.rsplit("/", 1)[-1] == leaf
    )


def self_seconds(snapshots: Sequence, leaf: str) -> float:
    """Seconds inside spans ending in ``leaf`` that no child span covers."""
    own = 0.0
    for snapshot in snapshots:
        for path, (_count, total) in snapshot.span_totals.items():
            if path.rsplit("/", 1)[-1] != leaf:
                continue
            children = sum(
                child_total
                for child, (_n, child_total) in snapshot.span_totals.items()
                if child.rpartition("/")[0] == path
            )
            own += total - children
    return own


def tracing_overhead(records: Sequence[OpRecord]) -> float:
    """Median traced over median untraced per-unit time, minus one."""
    measured = [r for r in records if not r.warmup and r.units]
    traced = [r.seconds / r.units for r in measured if r.traced]
    plain = [r.seconds / r.units for r in measured if not r.traced]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


@dataclass
class Result:
    """What a workload run reports.

    ``metrics`` holds every end-to-end metric (untraced run) or every
    per-layer metric (traced run) as ``name -> (value, unit)``;
    ``report`` holds the human-readable lines printed before the JSON.
    """

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
