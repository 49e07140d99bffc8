"""The strawman baselines of Section 5.1.1: NOU and NOE.

Both satisfy eps-differential privacy; both are shown by the paper (and by
our Figure 4 benchmark) to destroy recommendation accuracy, which is what
motivates the cluster-based framework.

**Noise on Utility (NOU)** applies the Laplace mechanism directly to the
utility values: ``mu_hat_u^i = mu_u^i + Lap(Delta_A / eps)`` where
``Delta_A = max_v sum_u sim(u, v)`` — the largest possible impact of one
preference edge across all users' queries for one item.  The sensitivity is
driven by the best-connected user in the graph, so the noise typically
exceeds every true utility value.

**Noise on Edges (NOE)** sanitises the preference graph itself:
``w_hat(v, i) = w(v, i) + Lap(1/eps)`` for *every* (user, item) cell —
absent edges are zero-weight and must be perturbed too, or the noise
pattern would reveal which edges exist.  The exact recommender then runs on
the sanitised weights; post-processing keeps the release eps-DP.

Both implementations derive their noise deterministically from
``(seed, user)`` so that repeated queries return the same sanitised values
— the mechanism conceptually publishes one sanitised dataset, and repeated
reads of published data are free.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.core.base import BaseRecommender, FittedState, NotFittedError
from repro.core.scoring import ExactUtilities
from repro.privacy.mechanisms import validate_epsilon
from repro.privacy.sensitivity import utility_query_sensitivity
from repro.similarity.base import SimilarityMeasure
from repro.types import ItemId, UserId

__all__ = ["NoiseOnUtility", "NoiseOnEdges"]


def _user_rng(seed: int, user_position: int) -> np.random.Generator:
    """A generator bound to one user so noise is stable across queries."""
    return np.random.default_rng(np.random.SeedSequence((seed, user_position)))


class NoiseOnUtility(BaseRecommender):
    """NOU: Laplace noise of scale ``Delta_A / eps`` on every utility value.

    Args:
        measure: social similarity measure.
        epsilon: privacy parameter (``math.inf`` disables noise).
        n: default list length.
        seed: noise seed.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        epsilon: float,
        n: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__(measure, n=n)
        self.epsilon = validate_epsilon(epsilon)
        self.seed = seed
        self.sensitivity_: Optional[float] = None
        self._user_position: Dict[UserId, int] = {}
        self._exact: Optional[ExactUtilities] = None

    def _prepare(self, state: FittedState) -> None:
        self.sensitivity_ = utility_query_sensitivity(
            state.social, self.measure, cache=state.similarity
        )
        self._user_position = {u: i for i, u in enumerate(state.social.users())}
        self._exact = ExactUtilities(
            state.similarity, state.preferences, state.item_index
        )

    @property
    def noise_scale(self) -> float:
        """``Delta_A / eps`` (0.0 when eps = inf)."""
        if self.sensitivity_ is None:
            return 0.0
        if math.isinf(self.epsilon):
            return 0.0
        return self.sensitivity_ / self.epsilon

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Exact utilities plus per-item Laplace noise at NOU's scale.

        Every item in the universe receives noise — suppressing the
        zero-utility items would reveal which items the user's similarity
        set never touched.
        """
        noisy = self._utility_vector(user)
        return {item: float(noisy[i]) for i, item in enumerate(self.state.items)}

    def _utility_vector(self, user: UserId) -> np.ndarray:
        """Dense noisy utility vector aligned with ``state.items``."""
        if not self.is_fitted:
            raise NotFittedError(self)
        exact = self._exact.rows([user]).toarray()[0]
        scale = self.noise_scale
        if scale > 0.0:
            position = self._user_position.get(user)
            rng = _user_rng(self.seed, position if position is not None else -1)
            exact = exact + rng.laplace(0.0, scale, size=exact.size)
        return exact

    def recommend(self, user: UserId, n: Optional[int] = None):
        """Top-N from the dense noisy vector (fast vectorised path)."""
        limit = self.n if n is None else n
        if limit < 1:
            raise ValueError(f"n must be >= 1, got {limit}")
        return self._recommend_from_vector(
            user, self.state.items, self._utility_vector(user), limit
        )


class NoiseOnEdges(BaseRecommender):
    """NOE: Laplace noise of scale ``1/eps`` on every preference-edge weight.

    The sanitised weight rows are generated lazily and deterministically per
    user (seeded by ``(seed, "edges", row)``), which keeps memory at one
    item-vector per similar user instead of the full |U| x |I| matrix while
    preserving the one-sanitised-dataset semantics.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        epsilon: float,
        n: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__(measure, n=n)
        self.epsilon = validate_epsilon(epsilon)
        self.seed = seed
        self._user_position: Dict[UserId, int] = {}

    def _prepare(self, state: FittedState) -> None:
        users = list(state.social.users())
        for u in state.preferences.users():
            if u not in state.social:
                users.append(u)
        self._user_position = {u: i for i, u in enumerate(users)}

    @property
    def noise_scale(self) -> float:
        """``1 / eps`` — the per-edge sanitisation scale (0.0 when eps=inf)."""
        if math.isinf(self.epsilon):
            return 0.0
        return 1.0 / self.epsilon

    def _sanitised_row(self, owner: UserId) -> np.ndarray:
        """The noisy weight vector ``w_hat(owner, .)`` over all items."""
        state = self.state
        row = np.zeros(len(state.items))
        if state.preferences.has_user(owner):
            for item, weight in state.preferences.items_of(owner).items():
                row[state.item_index[item]] = weight
        scale = self.noise_scale
        if scale > 0.0:
            position = self._user_position.get(owner, -1)
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, 1, position))
            )
            row = row + rng.laplace(0.0, scale, size=row.size)
        return row

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Utilities computed by the exact formula over sanitised weights."""
        state = self.state
        totals = self._utility_vector(user)
        return {item: float(totals[i]) for i, item in enumerate(state.items)}

    def _utility_vector(self, user: UserId) -> np.ndarray:
        """Dense noisy utility vector aligned with ``state.items``."""
        state = self.state
        totals = np.zeros(len(state.items))
        for v, sim_score in state.similarity.row(user).items():
            totals += sim_score * self._sanitised_row(v)
        return totals

    def recommend(self, user: UserId, n: Optional[int] = None):
        """Top-N from the dense sanitised vector (fast vectorised path)."""
        limit = self.n if n is None else n
        if limit < 1:
            raise ValueError(f"n must be >= 1, got {limit}")
        return self._recommend_from_vector(
            user, self.state.items, self._utility_vector(user), limit
        )
