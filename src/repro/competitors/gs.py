"""Group-and-Smooth adapted to social recommendation (paper Section 6.4).

The GS idea (Kellaris & Papadopoulos, PVLDB 2013) extends NOU the way the
paper's framework extends NOE: group query answers, release noisy group
means.  The adaptation, following the paper's description:

Per item ``i`` (items compose in parallel — disjoint edge sets):

1. **Rough estimates** (privacy cost eps/2).  Each preference edge
   ``(v, i)`` contributes to *at most one* rough estimate: a target user
   ``u`` is sampled uniformly from ``{u | v in sim(u)}`` and
   ``sim(u, v) * w(v, i)`` is added to ``mu_rough_u^i``.  Because each edge
   touches one estimate with coefficient at most ``max sim``, the vector of
   rough estimates has sensitivity ``Delta_rough = max_{u,v} sim(u, v)``;
   Laplace noise of scale ``2 * Delta_rough / eps`` makes them private.
2. **Grouping** (free — post-processing of the rough estimates).  Users are
   sorted by rough estimate and cut into consecutive groups of size ``m``.
3. **Smoothing** (privacy cost eps/2).  Each group's *true* mean utility is
   released with Laplace noise of scale ``2 * Delta_NOU / (m * eps)``:
   one edge changes the true answers by at most ``Delta_NOU`` in L1, and
   dividing by the group size bounds the L1 change of the mean vector by
   ``Delta_NOU / m``.  Every user in a group receives the group's noisy
   mean as its utility estimate.

The group size ``m`` trades NOU-style noise (small m) against smoothing
error (large m).  The paper selected the m with the best NDCG against the
true utilities — "technically violating DP", as its footnote 11 admits —
and :func:`select_group_size` reproduces that concession for the Figure 4
comparison.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.base import BaseRecommender, FittedState
from repro.core.scoring import ExactUtilities, preference_edges
from repro.privacy.mechanisms import validate_epsilon
from repro.privacy.sensitivity import utility_query_sensitivity
from repro.similarity.base import SimilarityMeasure
from repro.types import ItemId, UserId

__all__ = ["GroupAndSmooth", "select_group_size"]

#: Item columns smoothed at a time, bounding the sort and gather
#: temporaries at ``GROUP_BLOCK x |U|``.
GROUP_BLOCK = 64


class GroupAndSmooth(BaseRecommender):
    """GS-style private social recommender.

    Args:
        measure: social similarity measure.
        epsilon: privacy parameter, split evenly between the rough-estimate
            and smoothing phases (``math.inf`` disables noise in both).
        n: default list length.
        group_size: the grouping parameter ``m`` (an integer >= 1).
        seed: noise seed.

    The full noisy utility matrix is materialised at fit time (the
    mechanism is inherently global: grouping needs all users' answers for
    an item at once), so memory is ``O(|U| * |I|)`` — use this on
    evaluation-scale datasets, as the paper does.

    Raises:
        ValueError: for a ``group_size`` that is not an integer >= 1.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        epsilon: float,
        n: int = 10,
        group_size: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(measure, n=n)
        self.epsilon = validate_epsilon(epsilon)
        if (
            isinstance(group_size, bool)
            or not isinstance(group_size, numbers.Integral)
            or group_size < 1
        ):
            raise ValueError(f"group_size must be an integer >= 1, got {group_size!r}")
        self.group_size = int(group_size)
        self.seed = seed
        self._users: List[UserId] = []
        self._user_row: Dict[UserId, int] = {}
        self._estimates: Optional[np.ndarray] = None

    def _prepare(self, state: FittedState) -> None:
        self._users = state.social.users()
        self._user_row = {u: i for i, u in enumerate(self._users)}
        num_users = len(self._users)
        num_items = len(state.items)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 3)))

        # True utilities (needed to smooth), rows in user order, and the
        # reverse similarity index for sampling rough-estimate targets:
        # column v lists (u, sim(u, v)) for every u with v in sim(u), u
        # ascending.
        exact = ExactUtilities(state.similarity, state.preferences, state.item_index)
        true_utilities = exact.rows(self._users).toarray()
        reverse_sim = state.similarity.row_matrix(self._users).tocsc()
        max_sim = float(reverse_sim.data.max(initial=0.0))

        noiseless = math.isinf(self.epsilon)
        half_eps = self.epsilon / 2.0 if not noiseless else math.inf

        # Phase 1: rough estimates — each edge feeds one sampled target.
        # One call draws them in edge order, consuming the stream as one
        # scalar draw per edge would; np.add.at adds in that order too.
        owners, items, weights = preference_edges(
            state.preferences, state.similarity.column_users(), state.item_index
        )
        starts = reverse_sim.indptr[owners]
        counts = reverse_sim.indptr[owners + 1] - starts
        sampled = counts > 0
        slots = starts[sampled] + rng.integers(0, counts[sampled])
        rough = np.zeros((num_users, num_items))
        np.add.at(
            rough,
            (reverse_sim.indices[slots], items[sampled]),
            reverse_sim.data[slots] * weights[sampled],
        )
        if not noiseless and max_sim > 0.0:
            rough += rng.laplace(0.0, max_sim / half_eps, size=rough.shape)

        # Phase 3 sensitivity: one edge moves the true answers by at most
        # Delta_NOU in L1; group means divide that by m.
        delta_nou = utility_query_sensitivity(
            state.social, self.measure, cache=state.similarity
        )
        m = min(self.group_size, max(num_users, 1))
        mean_scale = (
            0.0 if noiseless else (delta_nou / m) / half_eps if delta_nou else 0.0
        )

        # Per item: stable sort by rough estimate, cut into groups of m,
        # release each group's true mean plus one draw (column by column,
        # group by group).  Blocks of columns bound the temporaries.
        full, tail = divmod(num_users, m)
        estimates = np.zeros((num_users, num_items))
        for start in range(0, num_items, GROUP_BLOCK):
            block = slice(start, min(start + GROUP_BLOCK, num_items))
            order = np.argsort(rough[:, block], axis=0, kind="stable")
            ranked = np.ascontiguousarray(
                np.take_along_axis(true_utilities[:, block], order, axis=0).T
            )
            width = ranked.shape[0]
            means = np.empty((width, full + (tail > 0)))
            grouped = ranked[:, : full * m].reshape(-1, m)
            means[:, :full] = grouped.mean(axis=-1).reshape(width, full)
            if tail:
                means[:, full] = ranked[:, full * m :].mean(axis=-1)
            if mean_scale > 0.0:
                means += rng.laplace(0.0, mean_scale, size=means.shape)
            np.put_along_axis(
                estimates[:, block],
                order,
                np.repeat(means, m, axis=1)[:, :num_users].T,
                axis=0,
            )
        self._estimates = estimates

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Smoothed noisy utilities for every item."""
        state = self.state
        assert self._estimates is not None
        row = self._user_row.get(user)
        if row is None:
            return {item: 0.0 for item in state.items}
        values = self._estimates[row, :]
        return {item: float(values[i]) for i, item in enumerate(state.items)}

    def recommend(self, user: UserId, n: Optional[int] = None):
        """Top-N from the smoothed matrix row (fast vectorised path)."""
        limit = self.n if n is None else n
        if limit < 1:
            raise ValueError(f"n must be >= 1, got {limit}")
        state = self.state
        assert self._estimates is not None
        row = self._user_row.get(user)
        if row is None:
            values = np.zeros(len(state.items))
        else:
            values = self._estimates[row, :]
        return self._recommend_from_vector(user, state.items, values, limit)


def select_group_size(
    factory,
    candidate_sizes: Sequence[int],
    social,
    preferences,
    reference_rankings,
    ideal_utilities,
    n: int,
    users: Optional[Iterable[UserId]] = None,
) -> int:
    """Pick the GS group size with the best NDCG against true utilities.

    This reproduces the paper's (admittedly DP-violating, footnote 11)
    model-selection protocol for the Figure 4 comparison.

    Args:
        factory: callable ``group_size -> GroupAndSmooth`` building an
            unfitted recommender with the candidate size.
        candidate_sizes: the grid of m values to try.
        social, preferences: the input graphs.
        reference_rankings: per-user non-private rankings.
        ideal_utilities: per-user true utility maps.
        n: NDCG cutoff.
        users: evaluation users (default: reference ranking keys).

    Raises:
        ValueError: if ``candidate_sizes`` is empty.
    """
    from repro.metrics.ndcg import average_ndcg

    if not candidate_sizes:
        raise ValueError("candidate_sizes must be non-empty")
    eval_users = list(users) if users is not None else list(reference_rankings)
    best_size = candidate_sizes[0]
    best_score = -1.0
    for m in candidate_sizes:
        recommender = factory(m)
        recommender.fit(social, preferences)
        rankings = {
            u: recommender.recommend(u, n=n).item_ids() for u in eval_users
        }
        score = average_ndcg(
            rankings, reference_rankings, ideal_utilities, n, users=eval_users
        )
        if score > best_score:
            best_score = score
            best_size = m
    return best_size
