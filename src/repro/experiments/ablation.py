"""Ablations of the framework's design choices (DESIGN.md Section 6).

1. :func:`run_clustering_ablation` — replace Louvain with the alternative
   strategies (random-k, singleton, single-cluster, degree buckets, label
   propagation) and measure the NDCG impact at fixed epsilon.  This
   isolates the paper's central hypothesis: *community* structure, not
   clustering per se, balances approximation and perturbation error.
2. :func:`run_error_decomposition` — measure the Eq. 5/6 error components
   per clustering, showing the perturbation/approximation trade directly.
3. :func:`run_refinement_ablation` — Louvain with vs without multi-level
   refinement: modularity and stability across restarts.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.community.clustering import Clustering
from repro.community.label_propagation import label_propagation_clustering
from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.strategies import (
    degree_bucket_clustering,
    random_clustering,
    single_cluster_clustering,
    singleton_clustering,
)
from repro.core.private import louvain_strategy
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import ExperimentError
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.graph.social_graph import SocialGraph
from repro.metrics.errors import approximation_error, expected_perturbation_error
from repro.similarity.base import SimilarityCache, SimilarityMeasure

__all__ = [
    "ClusteringAblationCell",
    "run_clustering_ablation",
    "ErrorDecompositionRow",
    "run_error_decomposition",
    "RefinementAblationResult",
    "run_refinement_ablation",
    "build_strategy_clusterings",
]


def build_strategy_clusterings(
    social: SocialGraph,
    num_random_clusters: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Clustering]:
    """All ablation clusterings for one social graph, keyed by name.

    The random and degree-bucket strategies use the Louvain cluster count
    so every strategy is compared at (roughly) the same granularity.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    users = social.users()
    if not users:
        raise ExperimentError("cannot build clusterings for an empty graph")
    louvain_clustering = louvain_strategy(runs=10, seed=seed)(social)
    k = (
        num_random_clusters
        if num_random_clusters is not None
        else max(1, louvain_clustering.num_clusters)
    )
    return {
        "louvain": louvain_clustering,
        "label-propagation": label_propagation_clustering(social, rng=rng),
        "random-k": random_clustering(users, min(k, len(users)), rng=rng),
        "degree-buckets": degree_bucket_clustering(social, min(k, len(users))),
        "single-cluster": single_cluster_clustering(users),
        "singleton": singleton_clustering(users),
    }


@dataclass(frozen=True)
class ClusteringAblationCell:
    """NDCG of the framework under one alternative clustering."""

    dataset: str
    strategy: str
    measure: str
    epsilon: float
    n: int
    ndcg_mean: float
    ndcg_std: float
    num_clusters: int
    modularity: float


def run_clustering_ablation(
    dataset: SocialRecDataset,
    measure: SimilarityMeasure,
    epsilon: float = 0.1,
    n: int = 50,
    repeats: int = 5,
    sample_size: Optional[int] = None,
    strategies: Optional[Dict[str, Clustering]] = None,
    seed: int = 0,
) -> List[ClusteringAblationCell]:
    """Compare clustering strategies at fixed epsilon (ablation 1).

    One :class:`~repro.experiments.engine.SweepEngine` scores every
    strategy: the similarity kernel and reference arrays are built once
    and only the per-strategy cluster release changes.  An exception
    inside a cell reaches the caller with its own type.
    """
    if strategies is None:
        strategies = build_strategy_clusterings(dataset.social, seed=seed)
    context = EvaluationContext.build(
        dataset, measure, max_n=n, sample_size=sample_size, seed=seed
    )
    sweep_engine = SweepEngine(dataset)
    cells: List[ClusteringAblationCell] = []
    for name, clustering in strategies.items():
        mean, std = sweep_engine.evaluate(
            context,
            clustering,
            epsilon,
            [n],
            repeats,
            base_seed=seed * 1000 + 13,
        )[n]
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


@dataclass(frozen=True)
class ErrorDecompositionRow:
    """Average Eq. 5/6 error components under one clustering."""

    strategy: str
    epsilon: float
    mean_abs_approximation: float
    mean_expected_perturbation: float
    num_clusters: int


def run_error_decomposition(
    dataset: SocialRecDataset,
    measure: SimilarityMeasure,
    epsilon: float = 0.1,
    max_users: int = 50,
    max_items: int = 20,
    strategies: Optional[Dict[str, Clustering]] = None,
    seed: int = 0,
) -> List[ErrorDecompositionRow]:
    """Measure approximation vs perturbation error per clustering (ablation 2).

    Errors are averaged over a deterministic sample of (user, item) pairs;
    items are sampled among each user's non-trivial candidates so the
    approximation error is measured where it matters.
    """
    if strategies is None:
        strategies = build_strategy_clusterings(dataset.social, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 37)))
    cache = SimilarityCache(measure, dataset.social)
    users = dataset.social.users()
    if len(users) > max_users:
        chosen = rng.choice(len(users), size=max_users, replace=False)
        users = [users[int(i)] for i in sorted(chosen)]
    items = dataset.preferences.items()
    if len(items) > max_items:
        chosen = rng.choice(len(items), size=max_items, replace=False)
        items = [items[int(i)] for i in sorted(chosen)]

    rows: List[ErrorDecompositionRow] = []
    for name, clustering in strategies.items():
        approx: List[float] = []
        perturb: List[float] = []
        for user in users:
            row = cache.row(user)
            if not row:
                continue
            perturb.append(expected_perturbation_error(row, clustering, epsilon))
            for item in items:
                approx.append(
                    abs(
                        approximation_error(
                            row, dataset.preferences, clustering, item
                        )
                    )
                )
        rows.append(
            ErrorDecompositionRow(
                strategy=name,
                epsilon=epsilon,
                mean_abs_approximation=(
                    statistics.fmean(approx) if approx else 0.0
                ),
                mean_expected_perturbation=(
                    statistics.fmean(perturb) if perturb else 0.0
                ),
                num_clusters=clustering.num_clusters,
            )
        )
    return rows


@dataclass(frozen=True)
class RefinementAblationResult:
    """Louvain with vs without multi-level refinement (ablation 3)."""

    refined_mean_modularity: float
    refined_std_modularity: float
    unrefined_mean_modularity: float
    unrefined_std_modularity: float
    runs: int


def run_refinement_ablation(
    social: SocialGraph, runs: int = 10, seed: int = 0
) -> RefinementAblationResult:
    """Compare modularity mean/std across restarts with refinement on/off."""
    if runs < 2:
        raise ExperimentError(f"runs must be >= 2, got {runs}")
    seeds = np.random.SeedSequence((seed, 41)).spawn(runs)
    refined = [
        louvain(social, rng=np.random.default_rng(s), refine=True).modularity
        for s in seeds
    ]
    unrefined = [
        louvain(social, rng=np.random.default_rng(s), refine=False).modularity
        for s in seeds
    ]
    return RefinementAblationResult(
        refined_mean_modularity=statistics.fmean(refined),
        refined_std_modularity=statistics.pstdev(refined),
        unrefined_mean_modularity=statistics.fmean(unrefined),
        unrefined_std_modularity=statistics.pstdev(unrefined),
        runs=runs,
    )
