"""repro — privacy-preserving personalized social recommendations.

A full reproduction of Jorgensen & Yu, *A Privacy-Preserving Framework for
Personalized, Social Recommendations* (EDBT 2014): a framework that turns
top-N social recommenders built on structural similarity measures into
epsilon-differentially-private recommenders by clustering users along the
community structure of the (public) social graph and releasing noisy
per-cluster average preference weights.

Quickstart::

    from repro import (
        PrivateSocialRecommender, SocialRecommender, CommonNeighbors,
        SyntheticDatasetSpec,
    )

    dataset = SyntheticDatasetSpec.lastfm_like(scale=0.1).generate(seed=7)
    private = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.6, n=10)
    private.fit(dataset.social, dataset.preferences)
    print(private.recommend(user=0).item_ids())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.community import (
    Clustering,
    best_louvain_clustering,
    label_propagation_clustering,
    louvain,
    modularity,
    random_clustering,
    single_cluster_clustering,
    singleton_clustering,
)
from repro.cf import ItemBasedCF, ItemCoCounts
from repro.competitors import GroupAndSmooth, LowRankMechanism
from repro.core import (
    NoiseOnEdges,
    NoiseOnUtility,
    PrivateSocialRecommender,
    SocialRecommender,
)
from repro.core.dynamic import (
    DynamicPrivateRecommender,
    decay_allocation,
    uniform_allocation,
)
from repro.cache import SimilarityStore
from repro.datasets import SocialRecDataset, SyntheticDatasetSpec, dataset_stats
from repro.exceptions import (
    BudgetExhaustedError,
    CacheIntegrityError,
    ClusteringError,
    DatasetError,
    GraphError,
    InvalidEpsilonError,
    PrivacyError,
    ReleaseIntegrityError,
    ReproError,
    RetryExhaustedError,
)
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, fault_point
from repro.graph import PreferenceGraph, SocialGraph
from repro.metrics import average_ndcg, ndcg_at_n
from repro.privacy import LaplaceMechanism
from repro.similarity import (
    AdamicAdar,
    CommonNeighbors,
    CosineSimilarity,
    GraphDistance,
    Jaccard,
    Katz,
    PreferentialAttachment,
    ResourceAllocation,
    get_measure,
    list_measures,
)
from repro.types import RankedItem, RecommendationList

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graphs
    "SocialGraph",
    "PreferenceGraph",
    # similarity
    "CommonNeighbors",
    "GraphDistance",
    "AdamicAdar",
    "Katz",
    "Jaccard",
    "CosineSimilarity",
    "ResourceAllocation",
    "PreferentialAttachment",
    "get_measure",
    "list_measures",
    # community
    "Clustering",
    "louvain",
    "best_louvain_clustering",
    "modularity",
    "random_clustering",
    "singleton_clustering",
    "single_cluster_clustering",
    "label_propagation_clustering",
    # privacy
    "LaplaceMechanism",
    # recommenders
    "SocialRecommender",
    "PrivateSocialRecommender",
    "NoiseOnUtility",
    "NoiseOnEdges",
    "LowRankMechanism",
    "GroupAndSmooth",
    "ItemBasedCF",
    "ItemCoCounts",
    "DynamicPrivateRecommender",
    "uniform_allocation",
    "decay_allocation",
    # datasets & metrics
    "SocialRecDataset",
    "SyntheticDatasetSpec",
    "dataset_stats",
    "ndcg_at_n",
    "average_ndcg",
    # value types & errors
    "RankedItem",
    "RecommendationList",
    "ReproError",
    "GraphError",
    "ClusteringError",
    "PrivacyError",
    "InvalidEpsilonError",
    "BudgetExhaustedError",
    "DatasetError",
    "ReleaseIntegrityError",
    "CacheIntegrityError",
    "RetryExhaustedError",
    # caching
    "SimilarityStore",
    # resilience
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "fault_point",
]
