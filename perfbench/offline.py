"""The in-process workloads: ``sweep``, ``batch`` and ``audit``.

Each one generates its dataset during set-up, then calls one public
entry point of ``repro`` back to back for the timed phase:

- ``sweep``: :func:`repro.experiments.run_tradeoff` (Figures 1 and 2);
- ``batch``: :meth:`repro.PrivateSocialRecommender.fit` followed by
  :func:`repro.core.batch.batch_recommend_all` (``repro batch``);
- ``audit``: :func:`repro.attacks.run_privacy_audit` (``repro attack audit``).

The dataset comes from the workload's fixed ``dataset_seed``; ``--seed``
drives Louvain and the noise draws, as the paper's repeats do on one
dataset.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Callable, Dict, List, Optional

from harness import (
    OpRecord,
    Result,
    digest,
    peak_rss_mib,
    run_timed,
    self_seconds,
    span_count,
    span_seconds,
    timed_setup,
    tracing_overhead,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Work counters that must repeat exactly for one seed.
EXACT_COUNTERS = (
    "compute.builds",
    "engine.repeats",
    "louvain.runs",
    "batch.fallback_users",
    "attacks.trials",
)


def _epsilon(value) -> float:
    return math.inf if value == "inf" else float(value)


def _generate(cfg: Dict, seed: int):
    from repro import SyntheticDatasetSpec

    spec = getattr(SyntheticDatasetSpec, cfg["dataset"])(scale=cfg["scale"])
    return spec.generate(seed=seed)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _sweep_op(cfg: Dict, seed: int, dataset) -> Callable:
    from repro import get_measure
    from repro.experiments import run_tradeoff

    epsilons = [_epsilon(e) for e in cfg["epsilons"]]
    draws = len(cfg["measures"]) * sum(
        1 if math.isinf(e) else cfg["repeats"] for e in epsilons
    )

    def op():
        cells = run_tradeoff(
            dataset,
            [get_measure(name) for name in cfg["measures"]],
            epsilons=epsilons,
            ns=cfg["ns"],
            repeats=cfg["repeats"],
            seed=seed,
        )
        return cells, draws

    return op


def _sweep_summary(cells) -> Dict:
    rows = [
        [c.measure, repr(c.epsilon), c.n, repr(c.ndcg_mean), repr(c.ndcg_std)]
        for c in cells
    ]
    in_range = all(0.0 <= c.ndcg_mean <= 1.0 + 1e-12 for c in cells)
    return {"digest": digest(rows), "cells": len(rows), "in_range": in_range}


def _sweep_problem(cfg: Dict, seed: int, summary: Dict, first: Dict) -> Optional[str]:
    expected = len(cfg["measures"]) * len(cfg["epsilons"]) * len(cfg["ns"])
    if summary["cells"] != expected or not summary["in_range"]:
        return f"{summary['cells']} cells, expected {expected}, or an NDCG outside [0, 1]"
    if summary["digest"] != first["digest"]:
        return "cell digest differs from the first op's"
    with open(os.path.join(HERE, "digests.json")) as handle:
        golden = json.load(handle)["sweep"].get(str(seed))
    if golden is not None and summary["digest"] != golden:
        return f"cell digest differs from the one recorded at seed {seed}"
    return None


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
def _batch_op(cfg: Dict, seed: int, dataset) -> Callable:
    from repro import PrivateSocialRecommender, get_measure
    from repro.core.batch import batch_recommend_all
    from repro.obs import span

    def op():
        recommender = PrivateSocialRecommender(
            get_measure(cfg["measure"]), epsilon=cfg["epsilon"], seed=seed
        )
        with span("bench.fit"):
            recommender.fit(dataset.social, dataset.preferences)
        result = batch_recommend_all(recommender, n=cfg["n"])
        return (recommender, result), len(result)

    return op


def _batch_summary(output) -> Dict:
    _recommender, result = output
    return {"users": len(result)}


def _batch_problem(cfg: Dict, seed: int, summary: Dict, first: Dict) -> Optional[str]:
    if summary["users"] != first["users"]:
        return f"served {summary['users']} users, the first op {first['users']}"
    return None


def _batch_against_recommend(cfg: Dict, seed: int, output) -> Optional[str]:
    """Compare a seeded sample of batch lists with per-user ``recommend``."""
    import numpy as np

    recommender, result = output
    users = sorted(result)
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(users), size=min(cfg["check_users"], len(users)), replace=False)
    for index in sorted(sample.tolist()):
        user = users[index]
        expected = recommender.recommend(user, n=cfg["n"])
        got = result[user]
        # Batch scoring sums in matrix order, so utilities may differ from
        # the per-user path in the last bits; the ranking may not.
        if (
            got.item_ids() != expected.item_ids()
            or got.tier != expected.tier
            or not np.allclose(got.utilities(), expected.utilities(), rtol=1e-9, atol=0)
        ):
            return f"user {user!r}: batch list differs from recommend()"
    return None


# ----------------------------------------------------------------------
# audit
# ----------------------------------------------------------------------
def _audit_op(cfg: Dict, seed: int, dataset) -> Callable:
    from repro.attacks import run_privacy_audit

    def op():
        report = run_privacy_audit(
            dataset,
            measures=cfg["measures"],
            epsilons=[_epsilon(e) for e in cfg["epsilons"]],
            targets=cfg["targets"],
            trials=cfg["trials"],
            repeats=cfg["repeats"],
            seed=seed,
        )
        return report, len(report.cells)

    return op


def _audit_summary(report) -> Dict:
    return {
        "digest": digest(report.to_jsonable()),
        "cells": len(report.cells),
        # violates() is False where eps_analytical is None (unaccounted).
        "violations": sum(1 for cell in report.cells if cell.violates()),
    }


def _audit_problem(cfg: Dict, seed: int, summary: Dict, first: Dict) -> Optional[str]:
    expected = len(cfg["measures"]) * len(cfg["epsilons"]) * len(cfg["targets"])
    if summary["cells"] != expected:
        return f"{summary['cells']} cells, expected {expected}"
    if summary["violations"]:
        return f"{summary['violations']} cell(s) exceed eps_analytical"
    if summary["digest"] != first["digest"]:
        return "report digest differs from the first op's"
    return None


#: name -> (make_op, summarize, per-op check, check of the last output, span)
WORKLOADS = {
    "sweep": (_sweep_op, _sweep_summary, _sweep_problem, None, "bench.run_tradeoff"),
    "batch": (
        _batch_op,
        _batch_summary,
        _batch_problem,
        _batch_against_recommend,
        "bench.batch",
    ),
    "audit": (_audit_op, _audit_summary, _audit_problem, None, "bench.run_privacy_audit"),
}


def _problems(cfg, seed, records: List[OpRecord], problem_of, last_check, last) -> Dict:
    """Op index -> why that op failed: it raised, or its output is wrong."""
    problems = {}
    first = next((r.output for r in records if r.error is None), None)
    for i, record in enumerate(records):
        if record.error is not None:
            problems[i] = f"raised {record.error}"
        else:
            problem = problem_of(cfg, seed, record.output, first)
            if problem:
                problems[i] = problem
    # ``last`` holds the output of the final op only when that op succeeded.
    if last_check is not None and "output" in last:
        problem = last_check(cfg, seed, last["output"])
        if problem:
            problems.setdefault(len(records) - 1, problem)
    traced = [(i, r.snapshot.counters) for i, r in enumerate(records) if r.snapshot]
    for i, counters in traced[1:]:
        varied = [c for c in EXACT_COUNTERS if counters.get(c, 0) != traced[0][1].get(c, 0)]
        if varied:
            problems.setdefault(i, f"counters {varied} differ from the first traced op's")
    return problems


def run(name: str, cfg: Dict, seed: int, seconds: float, trace: bool) -> Result:
    make_op, summarize, problem_of, last_check, op_span = WORKLOADS[name]
    dataset, setup_s = timed_setup(
        lambda: _generate(cfg, cfg["dataset_seed"]), cfg["setup_repeats"]
    )
    op = make_op(cfg, seed, dataset)
    last = {}

    def fresh_op():
        last.clear()  # let the previous output go before the next builds
        return op()

    def keep_last(output):
        last["output"] = output
        return summarize(output)

    records = run_timed(fresh_op, seconds, trace, op_span, keep_last)
    rss = peak_rss_mib()
    problems = _problems(cfg, seed, records, problem_of, last_check, last)

    # Throughput and latency come from the fastest measured op.  Other
    # tenants of the shared machine slow whole stretches of a run by up to
    # half (CPU time grows with wall time, so it is not waiting), and the
    # fastest op is the one such a stretch is least likely to cover.
    timed = [r for r in records if r.error is None and not r.warmup and not r.traced]
    fastest = min(timed, key=lambda r: r.seconds) if timed else None
    best_s = fastest.seconds if fastest else 0.0
    units = fastest.units if fastest else 0
    throughput = units / best_s if best_s else 0.0
    median_s = statistics.median(r.seconds for r in timed) if timed else 0.0
    report = [
        f"workload {name}: seed {seed}, {len(records)} op(s) in "
        f"{sum(r.seconds for r in records):.2f} s, set-up {setup_s:.3f} s",
        f"  {cfg['unit_name']}: {throughput:.4g} /s ({units} {cfg['unit']} per op)",
        f"  op latency: fastest {best_s * 1e3:.1f} ms, median {median_s * 1e3:.1f} ms "
        f"(n={len(timed)}, warm-up op excluded)",
        f"  peak_rss_mib: {rss:.1f}",
        "  op seconds (w: warm-up, t: traced): "
        + " ".join(
            f"{r.seconds:.3f}{'w' if r.warmup else 't' if r.traced else ''}" for r in records
        ),
    ]
    report += [f"  CHECK FAILED op {i}: {p}" for i, p in sorted(problems.items())]
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (rss, "MiB"),
            "throughput": (throughput, "1/s"),
            "latency_ms": (best_s * 1e3, "ms"),
        }
    else:
        metrics = _layer_metrics(records, op_span, setup_s)
    return Result(attempted=len(records), failed=len(problems), metrics=metrics, report=report)


def _layer_metrics(records: List[OpRecord], op_span: str, setup_s: float) -> Dict:
    """Per-layer metrics from the traced ops (layers not entered read 0).

    Counters are those of one traced op (they repeat exactly); span
    seconds are means per traced op.
    """
    snapshots = [r.snapshot for r in records if r.snapshot is not None]
    counters = snapshots[0].counters if snapshots else {}
    ops = len(snapshots) or 1
    wall = span_seconds(snapshots, op_span)

    def per_op(leaf: str) -> float:
        return span_seconds(snapshots, leaf) / ops

    batch_s = span_seconds(snapshots, "batch.recommend_all")
    batch_rows = sum(s.counters.get("batch.users_served", 0) for s in snapshots)
    repeats = span_count(snapshots, "engine.repeat")
    outside_engine = 0.0
    if op_span == "bench.run_tradeoff":
        outside_engine = per_op(op_span) - per_op("engine.evaluate_many") - per_op(
            "community.louvain"
        )
    return {
        "datasets.generate_s": (setup_s, "s"),
        "community.louvain_s": (per_op("community.louvain"), "s"),
        "community.louvain_runs": (counters.get("louvain.runs", 0), "count"),
        "compute.build_kernel_s": (per_op("compute.build_kernel"), "s"),
        "compute.builds": (counters.get("compute.builds", 0), "count"),
        "compute.nnz": (counters.get("compute.nnz", 0), "count"),
        "core.fit_s": (self_seconds(snapshots, "bench.fit") / ops, "s"),
        "core.batch_s": (batch_s / ops, "s"),
        "core.batch_rows_per_s": (batch_rows / batch_s if batch_s else 0.0, "1/s"),
        "core.batch_fallback_users": (counters.get("batch.fallback_users", 0), "count"),
        "experiments.evaluate_many_s": (per_op("engine.evaluate_many"), "s"),
        "experiments.repeat_ms": (
            span_seconds(snapshots, "engine.repeat") / repeats * 1e3 if repeats else 0.0,
            "ms",
        ),
        "experiments.repeats": (counters.get("engine.repeats", 0), "count"),
        "experiments.outside_engine_s": (outside_engine, "s"),
        "attacks.cell_s": (per_op("attacks.cell"), "s"),
        "attacks.cells": (counters.get("attacks.cells", 0), "count"),
        "attacks.trials": (counters.get("attacks.trials", 0), "count"),
        "attacks.clustering_s": (per_op("attacks.clustering"), "s"),
        # The benchmark's own op span, less every repro span inside it.
        "obs.unattributed_frac": (
            self_seconds(snapshots, op_span) / wall if wall else 0.0,
            "frac",
        ),
        "obs.tracing_overhead_frac": (tracing_overhead(records), "frac"),
    }
