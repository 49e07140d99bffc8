"""The degree-vs-accuracy analysis of paper Figure 3.

At ``epsilon = inf`` the private recommender's only error source is the
approximation error of cluster averaging.  The paper shows that this error
concentrates on *low-degree* users: their similarity sets are small
fractions of the clusters containing them, so non-similar cluster members
dominate their utility estimates.  The driver reproduces the scatter
(per-user degree vs NDCG@50) and the paper's headline split at degree 10.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.store import SimilarityStore
from repro.community.clustering import Clustering
from repro.core.private import louvain_strategy
from repro.datasets.dataset import SocialRecDataset
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.similarity.base import SimilarityMeasure
from repro.types import UserId

__all__ = ["DegreeEffectResult", "run_degree_effect"]


@dataclass(frozen=True)
class DegreeEffectResult:
    """Per-user degree/NDCG pairs plus the paper's degree-10 split.

    Attributes:
        dataset: dataset label.
        measure: similarity measure name.
        n: NDCG cutoff (the paper uses 50).
        points: ``(user, degree, ndcg)`` per evaluation user.
        low_degree_mean: mean NDCG of users with degree <= threshold.
        high_degree_mean: mean NDCG of users with degree > threshold.
        threshold: the degree split (paper: 10).
    """

    dataset: str
    measure: str
    n: int
    points: Tuple[Tuple[UserId, int, float], ...]
    low_degree_mean: float
    high_degree_mean: float
    threshold: int


def run_degree_effect(
    dataset: SocialRecDataset,
    measure: SimilarityMeasure,
    n: int = 50,
    threshold: int = 10,
    sample_size: Optional[int] = None,
    clustering: Optional[Clustering] = None,
    louvain_runs: int = 10,
    seed: int = 0,
    store: Optional[SimilarityStore] = None,
) -> DegreeEffectResult:
    """Run the Figure 3 analysis: approximation error only (eps = inf).

    Args:
        dataset: the evaluation dataset.
        measure: similarity measure (the paper shows CN).
        n: NDCG cutoff.
        threshold: degree split for the summary means.
        sample_size: optional evaluation-user sample.
        clustering: reuse a precomputed clustering.
        louvain_runs: restarts for the default clustering protocol.
        seed: master seed.
        store: optional persistent similarity cache for the sweep engine,
            which scores every user in one batched pass.
    """
    if clustering is None:
        clustering = louvain_strategy(runs=louvain_runs, seed=seed)(dataset.social)
    context = EvaluationContext.build(
        dataset, measure, max_n=n, sample_size=sample_size, seed=seed
    )
    per_user = SweepEngine(dataset, store=store).per_user_scores(
        context, clustering, math.inf, seed, n
    )

    points: List[Tuple[UserId, int, float]] = []
    low: List[float] = []
    high: List[float] = []
    for user in context.users:
        degree = dataset.social.degree(user)
        score = per_user[user]
        points.append((user, degree, score))
        (low if degree <= threshold else high).append(score)
    return DegreeEffectResult(
        dataset=dataset.name,
        measure=measure.name,
        n=n,
        points=tuple(points),
        low_degree_mean=statistics.fmean(low) if low else float("nan"),
        high_degree_mean=statistics.fmean(high) if high else float("nan"),
        threshold=threshold,
    )
