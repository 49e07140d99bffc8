"""Low-Rank Mechanism adapted to social recommendation (paper Section 6.4).

Following the paper's adaptation of Yuan et al. [34]:

- ``W`` is the ``|U| x |U|`` workload matrix with ``W[u, v] = sim(u, v)``.
- ``D_i`` is the 0/1 preference indicator column for item ``i``.
- Factor ``W ~ B L`` with ``B`` of shape ``(|U|, r)`` and ``L`` of shape
  ``(r, |U|)`` (we use a truncated SVD, splitting the singular values
  between the factors).
- Release ``L D_i + Lap(Delta(L)/eps)`` per compressed coordinate, where
  ``Delta(L) = max_v ||L[:, v]||_1`` is the worst-case L1 change of the
  compressed answer vector when one preference edge flips.
- Answer the workload as ``B (L D_i + noise)``.

Parallel composition across items applies because each ``D_i`` is a
disjoint set of preference edges.  The mechanism wins when ``W`` is
genuinely low-rank; the paper observes that social similarity workloads
have near-full rank, which is why LRM underperforms even NOE here.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List, Optional

import numpy as np

from repro.core.base import BaseRecommender, FittedState
from repro.core.scoring import preference_matrix
from repro.privacy.mechanisms import validate_epsilon
from repro.similarity.base import SimilarityMeasure
from repro.types import ItemId, UserId

__all__ = ["LowRankMechanism"]


class LowRankMechanism(BaseRecommender):
    """LRM-style private social recommender.

    Args:
        measure: social similarity measure defining the workload.
        epsilon: privacy parameter (``math.inf`` disables noise).
        n: default list length.
        rank: factorisation rank ``r``; ``None`` keeps every singular value
            above the tolerance (the numerical rank — the paper's choice of
            ``r = rank(W)``).
        tolerance: relative singular-value cutoff used when ``rank`` is
            ``None``, in ``[0, 1)``.
        seed: noise seed.

    After :meth:`fit`, :attr:`rank_` holds the effective rank and
    :attr:`workload_rank_` the numerical rank of ``W``.

    Raises:
        ValueError: for a ``rank`` that is not ``None`` or an integer
            ``>= 1``, or a ``tolerance`` outside ``[0, 1)``.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        epsilon: float,
        n: int = 10,
        rank: Optional[int] = None,
        tolerance: float = 1e-9,
        seed: int = 0,
    ) -> None:
        super().__init__(measure, n=n)
        self.epsilon = validate_epsilon(epsilon)
        if rank is not None and (
            isinstance(rank, bool) or not isinstance(rank, numbers.Integral) or rank < 1
        ):
            raise ValueError(f"rank must be None or an integer >= 1, got {rank!r}")
        if not (isinstance(tolerance, numbers.Real) and 0.0 <= tolerance < 1.0):
            raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
        self.rank = None if rank is None else int(rank)
        self.tolerance = tolerance
        self.seed = seed
        self.rank_: Optional[int] = None
        self.workload_rank_: Optional[int] = None
        self._users: List[UserId] = []
        self._user_row: Dict[UserId, int] = {}
        self._B: Optional[np.ndarray] = None
        self._noisy_LD: Optional[np.ndarray] = None

    def _prepare(self, state: FittedState) -> None:
        self._users = state.social.users()
        self._user_row = {u: i for i, u in enumerate(self._users)}
        num_users = len(self._users)
        num_items = len(state.items)

        if num_users == 0:
            self._B = np.zeros((0, 0))
            self._noisy_LD = np.zeros((0, num_items))
            self.rank_ = 0
            self.workload_rank_ = 0
            return

        # Truncated SVD factorisation W ~ B L of the public workload
        # W[u, v] = sim(u, v), shared by every fit over the cache.
        u_mat, singular, vt = state.similarity.workload_svd()
        cutoff = self.tolerance * (singular[0] if singular.size else 0.0)
        numerical_rank = int(np.sum(singular > cutoff))
        self.workload_rank_ = numerical_rank
        r = numerical_rank if self.rank is None else min(self.rank, singular.size)
        r = max(r, 1)
        self.rank_ = r
        sqrt_s = np.sqrt(singular[:r])
        self._B = u_mat[:, :r] * sqrt_s[np.newaxis, :]
        factor_l = sqrt_s[:, np.newaxis] * vt[:r, :]

        # Preference indicator matrix D (|U| x |I|), then compressed answers.
        indicator = preference_matrix(
            state.preferences, self._users, state.item_index
        ).toarray()
        compressed = factor_l @ indicator

        if math.isinf(self.epsilon) or num_items == 0:
            self._noisy_LD = compressed
            return
        # One edge flip changes D_i in one coordinate v, moving L D_i by
        # the column L[:, v]; the worst case over v is the max column L1
        # norm.
        sensitivity = float(np.max(np.sum(np.abs(factor_l), axis=0)))
        scale = sensitivity / self.epsilon
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 2)))
        self._noisy_LD = compressed + rng.laplace(0.0, scale, size=compressed.shape)

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Reconstructed noisy utilities ``B_u (L D + noise)`` per item."""
        state = self.state
        assert self._B is not None and self._noisy_LD is not None
        row = self._user_row.get(user)
        if row is None:
            # A user outside the workload has no similarity mass: all zeros.
            return {item: 0.0 for item in state.items}
        estimates = self._B[row, :] @ self._noisy_LD
        return {item: float(estimates[i]) for i, item in enumerate(state.items)}

    def recommend(self, user: UserId, n: Optional[int] = None):
        """Top-N from the reconstructed vector (fast vectorised path)."""
        limit = self.n if n is None else n
        if limit < 1:
            raise ValueError(f"n must be >= 1, got {limit}")
        state = self.state
        assert self._B is not None and self._noisy_LD is not None
        row = self._user_row.get(user)
        if row is None:
            estimates = np.zeros(len(state.items))
        else:
            estimates = self._B[row, :] @ self._noisy_LD
        return self._recommend_from_vector(user, state.items, estimates, limit)
