"""The privacy–accuracy trade-off sweep (paper Figures 1 and 2).

For every (similarity measure, epsilon, N) combination the driver scores
the cluster-based private recommender against the non-private reference,
averaged over repeated noise draws.  Epsilon = inf isolates the
approximation error, exactly as in the leftmost points of the paper's
figures.

The sweep factors onto the batch kernel via
:class:`~repro.experiments.engine.SweepEngine` — one kernel, one cluster
release, and one reference pass per measure, then one noise tensor + one
matmul per repeat.  The engine is the only scoring path: an exception
inside a cell stops the sweep with its own type, and the cells already
checkpointed survive for the rerun.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.store import SimilarityStore
from repro.community.clustering import Clustering
from repro.core.private import louvain_strategy
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import ExperimentError
from repro.experiments.checkpoint import SweepCheckpoint, encode_epsilon
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.resilience.faults import fault_point
from repro.similarity.base import SimilarityMeasure

__all__ = [
    "TradeoffCell",
    "cell_key",
    "run_tradeoff",
    "format_tradeoff_table",
]


@dataclass(frozen=True)
class TradeoffCell:
    """One point of Figure 1/2: a (measure, epsilon, N) NDCG score.

    Attributes:
        dataset: dataset label.
        measure: similarity measure name.
        epsilon: privacy parameter (``math.inf`` = approximation error only).
        n: recommendation-list length.
        ndcg_mean / ndcg_std: across the repeated noise draws.
    """

    dataset: str
    measure: str
    epsilon: float
    n: int
    ndcg_mean: float
    ndcg_std: float


def cell_key(
    dataset_name: str,
    measure_name: str,
    epsilon: float,
    n: int,
    repeats: int,
    seed: int,
    sample_size: Optional[int],
) -> tuple:
    """Checkpoint identity of one sweep cell.

    Includes every input that changes the cell's value, so a checkpoint
    written by one configuration is never silently reused by another.
    Public because the distributed sweep layer (:mod:`repro.dist`) uses
    the same keys to decide which cells a shared checkpoint already
    covers.
    """
    return (
        "tradeoff",
        dataset_name,
        measure_name,
        encode_epsilon(epsilon),
        str(n),
        str(repeats),
        str(seed),
        str(sample_size),
    )


def _cell_key(
    dataset: SocialRecDataset,
    measure: SimilarityMeasure,
    epsilon: float,
    n: int,
    repeats: int,
    seed: int,
    sample_size: Optional[int],
) -> tuple:
    return cell_key(
        dataset.name, measure.name, epsilon, n, repeats, seed, sample_size
    )


def run_tradeoff(
    dataset: SocialRecDataset,
    measures: Sequence[SimilarityMeasure],
    epsilons: Sequence[float] = (math.inf, 1.0, 0.6, 0.1, 0.05, 0.01),
    ns: Sequence[int] = (10, 50, 100),
    repeats: int = 10,
    sample_size: Optional[int] = None,
    clustering: Optional[Clustering] = None,
    louvain_runs: int = 10,
    seed: int = 0,
    checkpoint: Optional[Union[str, SweepCheckpoint]] = None,
    store: Optional[SimilarityStore] = None,
) -> List[TradeoffCell]:
    """Run the Figure 1/2 sweep on one dataset.

    Args:
        dataset: the evaluation dataset.
        measures: similarity measures to instantiate the framework with
            (the paper uses AA, CN, GD, KZ).
        epsilons: privacy settings, including ``math.inf``.
        ns: recommendation-list lengths.
        repeats: independent noise draws per cell (paper: 10).
        sample_size: evaluate a random user subset (paper: 10K on Flixster).
        clustering: reuse a precomputed clustering; by default the paper's
            best-of-``louvain_runs`` Louvain protocol runs once and is
            shared across all cells (the clustering is data-independent of
            epsilon and the measure).
        louvain_runs: restarts for the default clustering protocol.
        seed: master seed.
        checkpoint: a :class:`SweepCheckpoint` (or a path to one) making
            the sweep resumable: completed cells are durably appended and
            skipped on rerun.  Each cell's noise streams derive from the
            master seed alone, so a resumed sweep is bit-identical to an
            uninterrupted one.
        store: optional persistent similarity cache for the sweep
            engine's kernels.

    Returns:
        One :class:`TradeoffCell` per (measure, epsilon, n).  The engine
        counts its work (``engine.*``) in the active telemetry registry.
    """
    if not measures:
        raise ExperimentError("measures must be non-empty")
    if not epsilons or not ns:
        raise ExperimentError("epsilons and ns must be non-empty")
    if isinstance(checkpoint, str):
        checkpoint = SweepCheckpoint(checkpoint)

    def cached(measure, epsilon, n):
        if checkpoint is None:
            return None
        return checkpoint.get(
            _cell_key(dataset, measure, epsilon, n, repeats, seed, sample_size)
        )

    # The expensive shared preprocessing (Louvain, reference rankings) is
    # skipped entirely when the checkpoint already covers the cells that
    # need it — a fully-checkpointed rerun costs only file reads.
    if clustering is None and not all(
        cached(m, e, n) is not None for m in measures for e in epsilons for n in ns
    ):
        clustering = louvain_strategy(runs=louvain_runs, seed=seed)(dataset.social)

    sweep_engine = SweepEngine(dataset, store=store)
    max_n = max(ns)
    cells: List[TradeoffCell] = []
    for measure in measures:
        context: Optional[EvaluationContext] = None
        if any(cached(measure, e, n) is None for e in epsilons for n in ns):
            context = EvaluationContext.build(
                dataset, measure, max_n=max_n, sample_size=sample_size, seed=seed
            )
        # The engine scores every uncached (epsilon, n) of this measure
        # in one batch.  With eps = inf the recommender is
        # deterministic; one repeat suffices and keeps the sweep fast.
        engine_results: Dict[Tuple[float, int], Tuple[float, float]] = {}
        if context is not None:
            cell_specs = []
            for epsilon in epsilons:
                needed = tuple(n for n in ns if cached(measure, epsilon, n) is None)
                if needed:
                    cell_specs.append(
                        (
                            epsilon,
                            needed,
                            1 if math.isinf(epsilon) else repeats,
                        )
                    )
            if cell_specs:
                engine_results = sweep_engine.evaluate_many(
                    context,
                    clustering,
                    cell_specs,
                    base_seed=seed * 1000 + 1,
                )
        for epsilon in epsilons:
            for n in ns:
                key = _cell_key(
                    dataset, measure, epsilon, n, repeats, seed, sample_size
                )
                stored = cached(measure, epsilon, n)
                if stored is not None:
                    mean = float(stored["ndcg_mean"])
                    std = float(stored["ndcg_std"])
                else:
                    fault_point("tradeoff.cell")
                    mean, std = engine_results[(epsilon, n)]
                    if checkpoint is not None:
                        checkpoint.record(key, {"ndcg_mean": mean, "ndcg_std": std})
                cells.append(
                    TradeoffCell(
                        dataset=dataset.name,
                        measure=measure.name,
                        epsilon=epsilon,
                        n=n,
                        ndcg_mean=mean,
                        ndcg_std=std,
                    )
                )
    return cells


def format_tradeoff_table(cells: Sequence[TradeoffCell], n: int) -> str:
    """Render one N-slice of the sweep as a text table (measures x epsilons).

    Raises:
        ExperimentError: if no cell matches the requested ``n``.
    """
    selected = [c for c in cells if c.n == n]
    if not selected:
        raise ExperimentError(f"no tradeoff cells with n={n}")
    epsilons = sorted({c.epsilon for c in selected}, reverse=True)
    measures = sorted({c.measure for c in selected})
    by_key: Dict[tuple, TradeoffCell] = {
        (c.measure, c.epsilon): c for c in selected
    }

    def eps_label(e: float) -> str:
        return "inf" if math.isinf(e) else f"{e:g}"

    header = ["measure"] + [f"eps={eps_label(e)}" for e in epsilons]
    rows = [header]
    for m in measures:
        row = [m.upper()]
        for e in epsilons:
            cell = by_key.get((m, e))
            row.append("-" if cell is None else f"{cell.ndcg_mean:.3f}")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    title = f"NDCG@{n} for dataset {selected[0].dataset}"
    return "\n".join([title, *lines])
