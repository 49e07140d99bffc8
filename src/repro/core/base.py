"""Shared recommender interface.

Every recommender follows the scikit-learn-style two-phase protocol:

1. ``fit(social_graph, preference_graph)`` — snapshot the inputs, build
   (or share, through ``similarity=``) the similarity cache and (for
   private recommenders) run the mechanism's data-dependent preprocessing.
2. ``utilities(user)`` / ``recommend(user)`` / ``recommend_all(users)`` —
   read-only queries against the fitted state.

The split mirrors the paper's static-snapshot assumption (Section 2.3):
recommendations for all users are generated from a single snapshot of the
graphs, and a fitted recommender never observes later mutations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.scoring import top_n_from_vector
from repro.exceptions import ReproError
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.protocol import GraphLike
from repro.metrics.ranking import rank_items
from repro.similarity.base import SimilarityCache, SimilarityMeasure
from repro.types import ItemId, RecommendationList, UserId

__all__ = [
    "BaseRecommender",
    "FittedState",
    "NotFittedError",
    "top_n_from_vector",
]


class NotFittedError(ReproError):
    """A query method was called before ``fit``."""

    def __init__(self, recommender: object) -> None:
        super().__init__(
            f"{type(recommender).__name__} must be fitted before querying; "
            f"call fit(social_graph, preference_graph) first"
        )


@dataclass
class FittedState:
    """Inputs snapshotted at fit time, shared by all recommenders.

    Attributes:
        social: the social graph snapshot.
        preferences: the preference graph snapshot.
        similarity: row cache for the configured measure on ``social``.
        items: the item universe, in a fixed order used for vectorisation.
        item_index: item -> position in ``items``.
    """

    social: GraphLike
    preferences: PreferenceGraph
    similarity: SimilarityCache
    items: list
    item_index: Dict[ItemId, int]


class BaseRecommender(abc.ABC):
    """Common machinery for top-N social recommenders.

    Args:
        measure: the social similarity measure to personalise with.
        n: default recommendation-list length.

    Raises:
        ValueError: if ``n`` < 1.
    """

    def __init__(self, measure: SimilarityMeasure, n: int = 10) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.measure = measure
        self.n = n
        self._state: Optional[FittedState] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        social: GraphLike,
        preferences: PreferenceGraph,
        *,
        similarity: Optional[SimilarityCache] = None,
    ) -> "BaseRecommender":
        """Snapshot the input graphs and run model-specific preparation.

        Users present in the preference graph but absent from the social
        graph are allowed (they simply have empty similarity sets); the
        reverse is also allowed (social users with no recorded preferences).

        Args:
            social: the public social graph.
            preferences: the private preference graph.
            similarity: a cache over ``social`` and this recommender's own
                ``measure`` object, to share its kernel and workload SVD
                with other fits on the same graph (both depend on the
                public graph alone).  ``None`` builds a fresh cache.

        Returns self, for call chaining.

        Raises:
            ValueError: when ``similarity`` wraps another graph or another
                measure object.
        """
        if similarity is None:
            similarity = SimilarityCache(self.measure, social)
        elif similarity.graph is not social or similarity.measure is not self.measure:
            raise ValueError(
                "similarity must be a cache over the fitted social graph "
                "and this recommender's own measure object"
            )
        items = preferences.items()
        self._state = FittedState(
            social=social,
            preferences=preferences,
            similarity=similarity,
            items=items,
            item_index={item: i for i, item in enumerate(items)},
        )
        self._prepare(self._state)
        return self

    def _prepare(self, state: FittedState) -> None:
        """Hook for model-specific work at fit time (default: nothing)."""

    @property
    def state(self) -> FittedState:
        """The fitted state.

        Raises:
            NotFittedError: when ``fit`` has not run yet.
        """
        if self._state is None:
            raise NotFittedError(self)
        return self._state

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """The (possibly noisy) utility of every item for ``user``.

        Raises:
            NotFittedError: when ``fit`` has not run yet.
            NodeNotFoundError: when ``user`` is not in the social graph.
        """

    def recommend(self, user: UserId, n: Optional[int] = None) -> RecommendationList:
        """The top-N recommendation list for ``user``.

        Args:
            user: the target user.
            n: overrides the default list length for this call.
        """
        limit = self.n if n is None else n
        if limit < 1:
            raise ValueError(f"n must be >= 1, got {limit}")
        scores = self.utilities(user)
        ranked = rank_items(scores, n=limit)
        return RecommendationList(user, ranked, [scores[i] for i in ranked])

    def _recommend_from_vector(
        self,
        user: UserId,
        items: Sequence[ItemId],
        estimates: np.ndarray,
        n: int,
        tier: str = "personalized",
    ) -> RecommendationList:
        """Top-N selection from a dense utility vector (vectorised path).

        Ties are broken by item position in ``items``, which is fixed at
        fit time, so the selection is deterministic.  Subclasses whose
        utilities are naturally dense vectors override :meth:`recommend`
        through this helper to avoid building a full item->score dict.
        """
        return top_n_from_vector(user, items, estimates, n, tier=tier)

    def recommend_all(
        self, users: Optional[Iterable[UserId]] = None, n: Optional[int] = None
    ) -> Dict[UserId, RecommendationList]:
        """Recommendation lists for ``users`` (default: all social users)."""
        if users is None:
            users = self.state.social.users()
        return {user: self.recommend(user, n=n) for user in users}

    def __repr__(self) -> str:
        fitted = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}(measure={self.measure!r}, n={self.n}, {fitted})"
