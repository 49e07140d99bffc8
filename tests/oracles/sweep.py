"""Reference sweep scoring: one recommender fit per (cell, repeat) and one
``recommend`` call per evaluation user.

The experiment drivers score the cluster framework through
:class:`repro.experiments.engine.SweepEngine` — one noise tensor and one
matrix product per repeat.  These oracles score the same cells the
per-user way, through :func:`repro.experiments.evaluation.evaluate_factory`,
under each driver's repeat seeds:

- :func:`tradeoff_cells` — ``seed * 1000 + 1`` (``run_tradeoff``), one
  repeat at ``epsilon = inf``;
- :func:`comparison_cells` — ``seed * 1000 + 7`` (``run_comparison``'s
  ``cluster`` mechanism);
- :func:`ablation_cells` — ``seed * 1000 + 13``
  (``run_clustering_ablation``);
- :func:`degree_effect_scores` — one fit at ``epsilon = inf`` and seed
  ``seed`` (``run_degree_effect``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.community.clustering import Clustering
from repro.community.modularity import modularity
from repro.core.private import PrivateSocialRecommender
from repro.datasets.dataset import SocialRecDataset
from repro.experiments.ablation import ClusteringAblationCell
from repro.experiments.comparison import ComparisonCell
from repro.experiments.evaluation import EvaluationContext, evaluate_factory
from repro.experiments.tradeoff import TradeoffCell
from repro.similarity.base import SimilarityMeasure
from repro.types import UserId


def cluster_recommender(
    measure: SimilarityMeasure,
    epsilon: float,
    n: int,
    clustering: Clustering,
    seed: int,
) -> PrivateSocialRecommender:
    """An unfitted private recommender over a fixed clustering."""

    def fixed(_graph) -> Clustering:
        return clustering

    return PrivateSocialRecommender(
        measure, epsilon=epsilon, n=n, clustering_strategy=fixed, seed=seed
    )


def cell_scores(
    context: EvaluationContext,
    clustering: Clustering,
    epsilon: float,
    n: int,
    repeats: int,
    base_seed: int,
) -> Tuple[float, float]:
    """``(mean, std)`` NDCG@n of one cell: a fresh fit per repeat."""
    return evaluate_factory(
        context,
        lambda seed: cluster_recommender(
            context.measure, epsilon, context.max_n, clustering, seed
        ),
        n,
        repeats=repeats,
        base_seed=base_seed,
    )


def tradeoff_cells(
    dataset: SocialRecDataset,
    measures: Sequence[SimilarityMeasure],
    epsilons: Sequence[float],
    ns: Sequence[int],
    repeats: int,
    clustering: Clustering,
    seed: int = 0,
    sample_size: Optional[int] = None,
) -> List[TradeoffCell]:
    """What ``run_tradeoff(..., clustering=clustering)`` returns."""
    cells = []
    for measure in measures:
        context = EvaluationContext.build(
            dataset, measure, max_n=max(ns), sample_size=sample_size, seed=seed
        )
        for epsilon in epsilons:
            for n in ns:
                mean, std = cell_scores(
                    context,
                    clustering,
                    epsilon,
                    n,
                    1 if math.isinf(epsilon) else repeats,
                    seed * 1000 + 1,
                )
                cells.append(
                    TradeoffCell(dataset.name, measure.name, epsilon, n, mean, std)
                )
    return cells


def comparison_cells(
    dataset: SocialRecDataset,
    measures: Sequence[SimilarityMeasure],
    epsilons: Sequence[float],
    n: int,
    repeats: int,
    clustering: Clustering,
    seed: int = 0,
    sample_size: Optional[int] = None,
) -> List[ComparisonCell]:
    """What ``run_comparison(..., mechanisms=("cluster",))`` returns when
    its Louvain protocol yields ``clustering``."""
    cells = []
    for measure in measures:
        context = EvaluationContext.build(
            dataset, measure, max_n=n, sample_size=sample_size, seed=seed
        )
        for epsilon in epsilons:
            mean, std = cell_scores(
                context, clustering, epsilon, n, repeats, seed * 1000 + 7
            )
            cells.append(
                ComparisonCell(
                    dataset.name, "cluster", measure.name, epsilon, n, mean, std
                )
            )
    return cells


def ablation_cells(
    dataset: SocialRecDataset,
    measure: SimilarityMeasure,
    strategies: Mapping[str, Clustering],
    epsilon: float,
    n: int,
    repeats: int,
    seed: int = 0,
    sample_size: Optional[int] = None,
) -> List[ClusteringAblationCell]:
    """What ``run_clustering_ablation(..., strategies=strategies)`` returns."""
    context = EvaluationContext.build(
        dataset, measure, max_n=n, sample_size=sample_size, seed=seed
    )
    cells = []
    for name, clustering in strategies.items():
        mean, std = cell_scores(
            context, clustering, epsilon, n, repeats, seed * 1000 + 13
        )
        cells.append(
            ClusteringAblationCell(
                dataset=dataset.name,
                strategy=name,
                measure=measure.name,
                epsilon=epsilon,
                n=n,
                ndcg_mean=mean,
                ndcg_std=std,
                num_clusters=clustering.num_clusters,
                modularity=modularity(dataset.social, clustering),
            )
        )
    return cells


def degree_effect_scores(
    dataset: SocialRecDataset,
    measure: SimilarityMeasure,
    clustering: Clustering,
    n: int,
    seed: int = 0,
    sample_size: Optional[int] = None,
) -> Dict[UserId, float]:
    """Per-user NDCG@n at ``epsilon = inf`` from one ``recommend`` per user."""
    context = EvaluationContext.build(
        dataset, measure, max_n=n, sample_size=sample_size, seed=seed
    )
    recommender = cluster_recommender(measure, math.inf, n, clustering, seed)
    recommender.fit(dataset.social, dataset.preferences)
    rankings = {
        user: recommender.recommend(user, n=n).item_ids()
        for user in context.users
    }
    return context.per_user_ndcg_of_rankings(rankings, n)
