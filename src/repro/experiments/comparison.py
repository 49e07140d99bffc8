"""The mechanism comparison of paper Figure 4.

Scores the cluster-based framework against the four alternatives — NOU,
NOE (Section 5.1.1), LRM and GS (Section 6.4) — at the paper's settings
(epsilon in {1.0, 0.1}, N = 50), for each similarity measure.  The
expected shape: cluster framework >> NOE > {GS, LRM} > NOU.

The cluster framework's cells are scored by the
:class:`~repro.experiments.engine.SweepEngine`, the other four
mechanisms' per user through ``evaluate_factory``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cache.store import SimilarityStore
from repro.competitors.gs import GroupAndSmooth
from repro.competitors.lrm import LowRankMechanism
from repro.core.baselines import NoiseOnEdges, NoiseOnUtility
from repro.core.private import louvain_strategy
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import ExperimentError
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext, evaluate_factory
from repro.similarity.base import SimilarityMeasure

__all__ = ["ComparisonCell", "run_comparison", "MECHANISM_NAMES"]

MECHANISM_NAMES = ("cluster", "noe", "nou", "lrm", "gs")


@dataclass(frozen=True)
class ComparisonCell:
    """One bar of Figure 4: a (mechanism, measure, epsilon) NDCG score."""

    dataset: str
    mechanism: str
    measure: str
    epsilon: float
    n: int
    ndcg_mean: float
    ndcg_std: float


def _mechanism_factory(
    name: str,
    measure: SimilarityMeasure,
    epsilon: float,
    n: int,
    gs_group_size: int,
):
    """A repeat-seed -> unfitted-recommender factory for one of the four
    mechanisms the sweep engine does not score."""
    if name == "noe":
        return lambda seed: NoiseOnEdges(measure, epsilon=epsilon, n=n, seed=seed)
    if name == "nou":
        return lambda seed: NoiseOnUtility(measure, epsilon=epsilon, n=n, seed=seed)
    if name == "lrm":
        return lambda seed: LowRankMechanism(measure, epsilon=epsilon, n=n, seed=seed)
    if name == "gs":
        return lambda seed: GroupAndSmooth(
            measure, epsilon=epsilon, n=n, group_size=gs_group_size, seed=seed
        )
    raise ExperimentError(
        f"unknown mechanism {name!r}; choose from {MECHANISM_NAMES}"
    )


def run_comparison(
    dataset: SocialRecDataset,
    measures: Sequence[SimilarityMeasure],
    epsilons: Sequence[float] = (1.0, 0.1),
    n: int = 50,
    mechanisms: Sequence[str] = MECHANISM_NAMES,
    repeats: int = 5,
    sample_size: Optional[int] = None,
    gs_group_size: int = 8,
    louvain_runs: int = 10,
    seed: int = 0,
    store: Optional[SimilarityStore] = None,
) -> List[ComparisonCell]:
    """Run the Figure 4 comparison on one dataset.

    Args:
        dataset: the evaluation dataset (the paper uses Last.fm here).
        measures: similarity measures to test.
        epsilons: privacy settings (paper: 1.0 and 0.1).
        n: NDCG cutoff (paper: 50).
        mechanisms: which mechanisms to include.
        repeats: independent noise draws per cell.
        sample_size: optional evaluation-user sample.
        gs_group_size: the m parameter for GS (the paper tuned it per
            dataset; see :func:`repro.competitors.gs.select_group_size`).
        louvain_runs: restarts for the cluster framework's clustering.
        seed: master seed.
        store: optional persistent similarity cache for the sweep engine
            that scores the ``cluster`` mechanism's cells (the other
            mechanisms have no batched factorisation and score per user
            through ``evaluate_factory``).
    """
    if not measures:
        raise ExperimentError("measures must be non-empty")
    clustering = louvain_strategy(runs=louvain_runs, seed=seed)(dataset.social)
    sweep_engine: Optional[SweepEngine] = None
    if "cluster" in mechanisms:
        sweep_engine = SweepEngine(dataset, store=store)
    cells: List[ComparisonCell] = []
    for measure in measures:
        context = EvaluationContext.build(
            dataset, measure, max_n=n, sample_size=sample_size, seed=seed
        )
        for mechanism in mechanisms:
            for epsilon in epsilons:
                if mechanism == "cluster":
                    mean, std = sweep_engine.evaluate(
                        context,
                        clustering,
                        epsilon,
                        [n],
                        repeats,
                        base_seed=seed * 1000 + 7,
                    )[n]
                else:
                    mean, std = evaluate_factory(
                        context,
                        _mechanism_factory(
                            mechanism, measure, epsilon, n, gs_group_size
                        ),
                        n,
                        repeats=repeats,
                        base_seed=seed * 1000 + 7,
                    )
                cells.append(
                    ComparisonCell(
                        dataset=dataset.name,
                        mechanism=mechanism,
                        measure=measure.name,
                        epsilon=epsilon,
                        n=n,
                        ndcg_mean=mean,
                        ndcg_std=std,
                    )
                )
    return cells


def format_comparison_table(cells: Sequence[ComparisonCell]) -> str:
    """Render the comparison as a text table: mechanisms x (measure, eps)."""
    if not cells:
        raise ExperimentError("no comparison cells to format")
    mechanisms = []
    for c in cells:
        if c.mechanism not in mechanisms:
            mechanisms.append(c.mechanism)
    columns = sorted({(c.measure, c.epsilon) for c in cells})
    by_key: Dict[tuple, ComparisonCell] = {
        (c.mechanism, c.measure, c.epsilon): c for c in cells
    }
    header = ["mechanism"] + [f"{m.upper()}@eps={e:g}" for m, e in columns]
    rows = [header]
    for mech in mechanisms:
        row = [mech]
        for m, e in columns:
            cell = by_key.get((mech, m, e))
            row.append("-" if cell is None else f"{cell.ndcg_mean:.3f}")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join([f"NDCG@{cells[0].n} mechanism comparison "
                      f"({cells[0].dataset})", *lines])
