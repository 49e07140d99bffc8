"""The paper's contribution: the privacy-preserving social recommender.

:class:`PrivateSocialRecommender` implements Algorithm 1 end to end:

1. ``createClusters(G_s)`` — cluster users by the community structure of
   the *public* social graph (default: best-of-10 Louvain with multi-level
   refinement, the paper's protocol).  No privacy budget is spent here.
2. Module ``A_w`` — release noisy per-cluster average edge weights for
   every item (see :mod:`repro.core.cluster_weights`).  This is the only
   step that reads the private preference edges; it satisfies
   eps-differential privacy.
3. Module ``A_R`` — estimate every utility query from the noisy averages,

       mu_hat_u^i = sum_c (sum_{v in sim(u) & c} sim(u, v)) * w_hat_c^i

   and output the top-N ranking per user (the scoring core,
   :mod:`repro.core.scoring`).  Pure post-processing of the
   sanitised averages plus public data, so the end-to-end algorithm remains
   eps-DP (paper Theorem 4).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.community.clustering import Clustering
from repro.community.louvain import best_louvain_clustering
from repro.core.base import BaseRecommender, FittedState
from repro.core.cluster_weights import NoisyClusterWeights, noisy_cluster_item_weights
from repro.core.scoring import ReleaseScorer
from repro.graph.protocol import GraphLike
from repro.privacy.budget import BudgetLedger
from repro.privacy.mechanisms import validate_epsilon
from repro.resilience.faults import fault_point
from repro.similarity.base import SimilarityMeasure
from repro.types import ItemId, UserId

__all__ = ["PrivateSocialRecommender", "covering_clustering", "louvain_strategy"]

# A clustering strategy maps the public social graph to a user partition.
ClusteringStrategy = Callable[[GraphLike], Clustering]


def covering_clustering(clustering: Clustering, preferences) -> Clustering:
    """Extend a social clustering to cover every preference-graph user.

    Users that appear only in the preference graph (no social presence)
    still hold private edges; give each a singleton cluster so their edges
    are protected with sensitivity 1 rather than crashing the mechanism.
    Socially isolated users get no utility from any similarity measure
    anyway.  Singletons are appended after the social clusters in
    ``preferences.users()`` order, so cluster indices of the input
    clustering are preserved.  Returns the input unchanged when it already
    covers every preference user.
    """
    uncovered = [u for u in preferences.users() if u not in clustering]
    if not uncovered:
        return clustering
    return Clustering(list(clustering.clusters()) + [[u] for u in uncovered])


def louvain_strategy(runs: int = 10, seed: int = 0) -> ClusteringStrategy:
    """The paper's default strategy: best-of-``runs`` Louvain restarts."""

    def strategy(graph: GraphLike) -> Clustering:
        fault_point("clustering.strategy")
        return best_louvain_clustering(graph, runs=runs, seed=seed).clustering

    return strategy


class PrivateSocialRecommender(BaseRecommender):
    """Differentially private personalised social recommender (Algorithm 1).

    Args:
        measure: social similarity measure (operates on public data only).
        epsilon: privacy parameter; ``math.inf`` disables noise, isolating
            the approximation error as in the paper's Figures 1–3.
        n: default recommendation-list length.
        clustering_strategy: maps the social graph to a disjoint user
            partition; must use *only* the social graph (the privacy proof
            depends on it).  Defaults to the paper's Louvain protocol.
        seed: seed for the Laplace noise.
        max_weight: weight cap for weighted (ratings-style) preference
            graphs — the Section 7 extension.  Edges are clipped to this
            value and the noise is calibrated to ``max_weight/|c|``.  The
            default 1.0 is the paper's unweighted model.
        protection: ``"edge"`` (the paper's guarantee: one preference edge
            is protected) or ``"user"`` (group privacy over a user's whole
            edge set; noise scales by ``user_clamp``).
        user_clamp: per-user contribution bound under user-level
            protection.

    After :meth:`fit`, the attributes :attr:`clustering_`,
    :attr:`noisy_weights_` and :attr:`ledger_` expose the fitted clustering,
    the sanitised averages, and the privacy-budget accounting;
    :attr:`scorer_` is the :class:`~repro.core.scoring.ReleaseScorer`
    every query (and :func:`~repro.core.batch.batch_recommend_all`)
    scores through.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        epsilon: float,
        n: int = 10,
        clustering_strategy: Optional[ClusteringStrategy] = None,
        seed: int = 0,
        max_weight: float = 1.0,
        protection: str = "edge",
        user_clamp: int = 50,
    ) -> None:
        super().__init__(measure, n=n)
        self.epsilon = validate_epsilon(epsilon)
        self.clustering_strategy = (
            clustering_strategy
            if clustering_strategy is not None
            else louvain_strategy()
        )
        self.seed = seed
        self.max_weight = max_weight
        self.protection = protection
        self.user_clamp = user_clamp
        self.clustering_: Optional[Clustering] = None
        self.noisy_weights_: Optional[NoisyClusterWeights] = None
        self.ledger_: Optional[BudgetLedger] = None
        self.scorer_: Optional[ReleaseScorer] = None

    # ------------------------------------------------------------------
    # fit: lines 1-7 of Algorithm 1
    # ------------------------------------------------------------------
    def _prepare(self, state: FittedState) -> None:
        clustering = covering_clustering(
            self.clustering_strategy(state.social), state.preferences
        )
        self.clustering_ = clustering
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.noisy_weights_ = noisy_cluster_item_weights(
            state.preferences,
            clustering,
            self.epsilon,
            rng=rng,
            max_weight=self.max_weight,
            protection=self.protection,
            user_clamp=self.user_clamp,
        )
        ledger = BudgetLedger()
        if not math.isinf(self.epsilon):
            for item in state.items:
                ledger.charge(
                    f"cluster-averages[{item!r}]", self.epsilon, group="per-item"
                )
        self.ledger_ = ledger
        self.scorer_ = ReleaseScorer(self.noisy_weights_, state.similarity)

    # ------------------------------------------------------------------
    # queries: lines 8-21 of Algorithm 1 (pure post-processing)
    # ------------------------------------------------------------------
    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Noisy utility estimates ``mu_hat_u^i`` for every item.

        Unlike the exact recommender, *every* item in the universe gets an
        estimate: the noisy averages are dense, and a zero-preference item
        can legitimately outrank a real one under noise — suppressing such
        items would leak which items have no edges.
        """
        self.state  # raises NotFittedError before estimating anything
        return self.scorer_.utilities(user)

    def recommend(self, user: UserId, n: Optional[int] = None):
        """Top-N from the dense estimate vector (fast vectorised path).

        Degrades gracefully instead of raising: a user unknown to the
        social graph, or one with no similarity signal reaching any
        cluster, is served from the degradation ladder
        (cluster-popularity, then global noisy popularity — see
        :mod:`repro.resilience.degradation`).  The served tier is
        reported on the result's ``tier`` attribute.  Every fallback is
        post-processing of the released averages: ``total_epsilon()`` is
        unchanged.
        """
        self.state  # raises NotFittedError before scoring anything
        return self.scorer_.recommend(user, self.n if n is None else n)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_epsilon(self) -> float:
        """The end-to-end privacy cost recorded at fit time (0 before fit)."""
        return self.ledger_.total_epsilon() if self.ledger_ is not None else 0.0

    def __repr__(self) -> str:
        fitted = "fitted" if self.is_fitted else "unfitted"
        return (
            f"{type(self).__name__}(measure={self.measure!r}, "
            f"epsilon={self.epsilon}, n={self.n}, {fitted})"
        )
