"""The scoring core: Algorithm 1 step 3 (module ``A_R``) in one place.

Every served list is one post-processing of the released averages
``W_hat`` (items x clusters) and the public kernel ``S``::

    C = the 0/1 user -> cluster indicator, over the kernel's user order
    P = S @ C         P[u, c] = sum of sim(u, v) over the v in cluster c
    E = P @ W_hat^T   mu_hat_u = W_hat @ P[u]

then a top-N cut (equal estimates inside the cut rank by item
position; :func:`rank_rows` states what happens at the cut), or the
degradation ladder for a user whose profile row is zero.  Batch serving,
the sweep engine, the private recommender, the release server and the
privacy audit all score through here.

``P`` sums each kernel row in its stored CSR order (``C`` has one unit
entry per row), the order a per-user loop over the row would use;
callers needing two kernels to agree bit for bit pass column-sorted
copies.  ``E`` is one mat-vec for a single user and one mat-mul against
the contiguous ``W_hat^T`` for a block, so each path keeps its sums.

The exact utilities of Definition 3, ``mu_u^i = sum_v sim(u, v) w(v, i)``,
are one sparse product too (:class:`ExactUtilities`)::

    W  = the users x items preference weights, over the kernel's user order
    mu = S[users] @ W

Scipy's product accumulates ``mu[u, i]`` from zero along ``S``'s row
in the order :meth:`~repro.similarity.base.SimilarityCache.row_matrix`
keeps it, the order a loop over ``row(u)`` uses (``W`` contributes one
term per row), so every value is the loop's to the bit.  The exact
recommender, the evaluation reference, the sweep engine's ideal
utilities and the NOU, LRM and GS baselines all read ``mu`` from here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.community.clustering import Clustering
from repro.exceptions import NodeNotFoundError
from repro.graph.preference_graph import PreferenceGraph
from repro.resilience.degradation import (
    DEGRADATION_LADDER,
    TIER_CLUSTER,
    TIER_EMPTY,
    TIER_GLOBAL,
    TIER_PERSONALIZED,
)
from repro.similarity.matrix import SimilarityMatrix
from repro.types import ItemId, RecommendationList, UserId

__all__ = [
    "RANK_BLOCK",
    "ClusterProfile",
    "ExactUtilities",
    "ReleaseScorer",
    "cluster_indicator",
    "estimate_rows",
    "ladder_estimates",
    "preference_edges",
    "preference_matrix",
    "profile_rows",
    "rank_cutoffs",
    "rank_rows",
    "ranked_list",
    "top_n_from_vector",
    "top_n_rows",
]

#: Rows ranked at a time, bounding the ranking's temporaries at
#: ``RANK_BLOCK x items`` whatever block a caller scores.
RANK_BLOCK = 64


def cluster_indicator(users: Sequence[UserId], clustering: Clustering) -> sp.csr_matrix:
    """``C`` over ``users``; a user outside the clustering gets a zero row."""
    rows, cols = [], []
    for position, user in enumerate(users):
        if user in clustering:
            rows.append(position)
            cols.append(clustering.cluster_of(user))
    return sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(users), clustering.num_clusters),
    )


def _scatter(present: np.ndarray, block: sp.spmatrix) -> np.ndarray:
    """Dense rows: ``block`` at the ``present`` rows, zeros elsewhere."""
    dense = np.zeros((present.size, block.shape[1]))
    dense[present] = block.toarray()
    return dense


def profile_rows(
    kernel: sp.csr_matrix, indicator: sp.csr_matrix, positions: Sequence[int]
) -> np.ndarray:
    """Dense ``P = S @ C`` rows, multiplying only the kernel rows asked for.

    Position -1 marks a user outside the kernel, whose row is zero.
    """
    positions = np.asarray(positions, dtype=np.intp)
    present = positions >= 0
    return _scatter(present, kernel[positions[present]] @ indicator)


class ClusterProfile:
    """``P = S @ C`` for one (kernel, clustering), multiplied once."""

    def __init__(self, kernel: SimilarityMatrix, clustering: Clustering) -> None:
        self.kernel = kernel
        self.clustering = clustering
        self.indicator = cluster_indicator(kernel.users, clustering)
        self.matrix = sp.csr_matrix(kernel.matrix @ self.indicator)

    def positions(self, users: Sequence[UserId]) -> np.ndarray:
        """Kernel row of each user, -1 for a user outside the kernel."""
        index = self.kernel.index
        return np.array([index.get(user, -1) for user in users], dtype=np.intp)

    def rows(self, positions: Sequence[int]) -> np.ndarray:
        """Dense profile rows at kernel ``positions`` (-1: a zero row)."""
        positions = np.asarray(positions, dtype=np.intp)
        present = positions >= 0
        return _scatter(present, self.matrix[positions[present]])

    def row(self, user: UserId) -> np.ndarray:
        """``user``'s dense profile row; zero outside the kernel."""
        vector = np.zeros(self.matrix.shape[1])
        position = self.kernel.index.get(user)
        if position is not None:
            start, stop = self.matrix.indptr[position : position + 2]
            vector[self.matrix.indices[start:stop]] = self.matrix.data[start:stop]
        return vector


def preference_edges(
    preferences: PreferenceGraph,
    users: Sequence[UserId],
    item_index: Mapping[ItemId, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, columns, weights)`` of the edges of ``users``.

    ``rows`` index ``users`` and ``columns`` ``item_index``; the edges
    come in :meth:`PreferenceGraph.edges` order, and edges of users
    outside ``users`` are left out.
    """
    index = {user: row for row, user in enumerate(users)}
    rows: List[int] = []
    columns: List[int] = []
    weights: List[float] = []
    for user in preferences.users():
        row = index.get(user)
        if row is None:
            continue
        owned = preferences.items_of(user)
        rows.extend([row] * len(owned))
        columns.extend(map(item_index.__getitem__, owned))
        weights.extend(owned.values())
    return (
        np.array(rows, dtype=np.intp),
        np.array(columns, dtype=np.intp),
        np.array(weights, dtype=float),
    )


def preference_matrix(
    preferences: PreferenceGraph,
    users: Sequence[UserId],
    item_index: Mapping[ItemId, int],
) -> sp.csr_matrix:
    """``W``: ``w(v, i)`` at row ``v`` of ``users``, column ``item_index[i]``."""
    rows, columns, weights = preference_edges(preferences, users, item_index)
    return sp.csr_matrix(
        (weights, (rows, columns)), shape=(len(users), len(item_index))
    )


class ExactUtilities:
    """Definition 3's exact utilities ``mu = S @ W`` for one fit.

    ``W`` is built once, over the similarity cache's column order; each
    call is then one sparse product over the cache's kernel rows.
    """

    def __init__(
        self,
        similarity,  # SimilarityCache
        preferences: PreferenceGraph,
        item_index: Mapping[ItemId, int],
    ) -> None:
        self.similarity = similarity
        self.weights = preference_matrix(
            preferences, similarity.column_users(), item_index
        )

    def rows(self, users: Sequence[UserId]) -> sp.csr_matrix:
        """``mu`` of each of ``users`` as sparse rows over the items.

        Raises:
            NodeNotFoundError: for a user outside the social graph.
        """
        return self.similarity.row_matrix(users) @ self.weights


def estimate_rows(profile: np.ndarray, release_t: np.ndarray) -> np.ndarray:
    """``E = P @ W_hat^T`` for a block, against the contiguous ``W_hat^T``."""
    return profile @ release_t


def rank_rows(estimates: np.ndarray, limit: int) -> np.ndarray:
    """The top-``limit`` item positions of every row, best first.

    The one tie-break every served ranking uses: ``argpartition`` picks a
    row's top set, then a stable sort on -estimate over the set in item
    order ranks it, so equal estimates inside the set rank by item
    position.  When a tie straddles the cut (the ``limit``-th and
    ``limit + 1``-th largest estimates are equal), which of the tied
    items enter the set is ``argpartition``'s choice, not the lowest
    positions: deterministic for one row and one NumPy, but not a total
    order, and not :func:`~repro.metrics.ranking.rank_items`' order.
    """
    num_rows, num_items = estimates.shape
    limit = min(limit, num_items)
    ranked = np.empty((num_rows, max(limit, 0)), dtype=np.intp)
    if limit <= 0:
        return ranked
    for start in range(0, num_rows, RANK_BLOCK):
        negated = -np.asarray(estimates[start : start + RANK_BLOCK])
        if limit < num_items:
            candidates = np.argpartition(negated, limit - 1, axis=1)[:, :limit]
            candidates = np.sort(candidates, axis=1)
        else:
            candidates = np.tile(
                np.arange(num_items, dtype=np.intp), (negated.shape[0], 1)
            )
        rows = np.arange(negated.shape[0])[:, np.newaxis]
        order = np.argsort(negated[rows, candidates], axis=1, kind="stable")
        ranked[start : start + negated.shape[0]] = candidates[rows, order]
    return ranked


def rank_cutoffs(
    estimates: np.ndarray, limits: Iterable[int]
) -> Dict[int, np.ndarray]:
    """:func:`rank_rows` at every limit in ``limits``, ranking each row once.

    Every row is ranked at the largest limit, and each smaller cutoff
    ``n`` is a prefix of that ranking, except on a row where a tie
    straddles the cut (its ``n``-th and ``n + 1``-th largest estimates
    are equal): :func:`rank_rows` does not fix which tied items it keeps
    there, so that row is re-ranked at ``n``.  ``result[n]`` thus
    equals ``rank_rows(estimates, n)`` bit for bit for every ``n`` on
    NaN-free estimates; the arrays may share memory.
    """
    num_items = estimates.shape[1]
    cuts = {int(limit): min(int(limit), num_items) for limit in limits}
    top = max(cuts.values(), default=0)
    ranked = rank_rows(estimates, top)
    values = np.take_along_axis(estimates, ranked, axis=1)
    out: Dict[int, np.ndarray] = {}
    for limit, cut in cuts.items():
        prefix = ranked[:, : max(cut, 0)]
        if 0 < cut < top:
            straddle = np.flatnonzero(values[:, cut - 1] == values[:, cut])
            if straddle.size:
                prefix = prefix.copy()
                prefix[straddle] = rank_rows(estimates[straddle], cut)
        out[limit] = prefix
    return out


def top_n_rows(
    profile: np.ndarray, release_t: np.ndarray, limit: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each profile row's top-``limit`` item positions and their estimates."""
    estimates = estimate_rows(profile, release_t)
    ranked = rank_rows(estimates, limit)
    return ranked, np.take_along_axis(estimates, ranked, axis=1)


def ranked_list(
    user: UserId,
    items: Sequence[ItemId],
    order: Sequence[int],
    scores: Sequence[float],
    tier: str = TIER_PERSONALIZED,
) -> RecommendationList:
    """The recommendation list of ranked item positions and their scores.

    ``order`` and ``scores`` are converted to builtin lists first, so no
    element is boxed as a NumPy scalar on the way into the list's two
    tuples.
    """
    ranked_items = [items[position] for position in np.asarray(order).tolist()]
    return RecommendationList(
        user, ranked_items, np.asarray(scores).tolist(), tier=tier
    )


def top_n_from_vector(
    user: UserId,
    items: Sequence[ItemId],
    estimates: np.ndarray,
    n: int,
    tier: str = TIER_PERSONALIZED,
) -> RecommendationList:
    """Top-N of one dense utility vector, with :func:`rank_rows`' tie-break.

    Equal estimates inside the top ``n`` rank by item position, but a tie
    straddling the cut is kept in ``argpartition``'s choice, which may
    differ from :func:`~repro.metrics.ranking.rank_items`.
    """
    estimates = np.asarray(estimates)
    order = rank_rows(estimates[np.newaxis, :], n)[0]
    return ranked_list(user, items, order, estimates[order], tier=tier)


def ladder_estimates(
    matrix: np.ndarray,
    column: int,
    sizes: np.ndarray,
    max_tier: str = TIER_CLUSTER,
) -> Tuple[Optional[np.ndarray], str]:
    """``(estimates, tier)`` for a user whose profile row is zero.

    ``column`` is the user's cluster (-1 outside the clustering) and
    ``sizes`` the cluster sizes.  The rungs: the cluster's own column,
    else the size-weighted mean of all columns, else None (empty);
    ``max_tier`` caps the best rung, personalized reading as cluster.

    Raises:
        ValueError: for a ``max_tier`` not on the ladder.
    """
    if max_tier not in DEGRADATION_LADDER:
        raise ValueError(
            f"max_tier must be one of {DEGRADATION_LADDER}, got {max_tier!r}"
        )
    cap = DEGRADATION_LADDER.index(max_tier)
    if cap >= DEGRADATION_LADDER.index(TIER_EMPTY) or matrix.size == 0:
        return None, TIER_EMPTY
    if cap <= DEGRADATION_LADDER.index(TIER_CLUSTER) and column >= 0:
        return np.asarray(matrix[:, column], dtype=float), TIER_CLUSTER
    total = sizes.sum()
    if total <= 0:
        return None, TIER_EMPTY
    return np.asarray(matrix @ (sizes / total), dtype=float), TIER_GLOBAL


class ReleaseScorer:
    """Serves single users from one release and one similarity cache.

    ``PrivateSocialRecommender`` and ``ReleaseServer`` both delegate here.
    The profile is built once, on first use or at :meth:`warm`; a request
    is then a profile-row gather, one mat-vec and a top-N cut, or the
    ladder when the row is zero.
    """

    def __init__(self, weights, similarity) -> None:
        self.weights = weights  # NoisyClusterWeights
        self.similarity = similarity  # SimilarityCache
        self._sizes = np.asarray(weights.clustering.sizes(), dtype=float)
        self._profile: Optional[ClusterProfile] = None

    def profile(self) -> ClusterProfile:
        """``P`` over the cache's kernel and the release clustering."""
        if self._profile is None:
            self._profile = ClusterProfile(
                self.similarity.ensure_kernel().matrix, self.weights.clustering
            )
        return self._profile

    def warm(self, store=None) -> None:
        """Obtain the kernel (through ``store`` when given) and build ``P``."""
        self.similarity.ensure_kernel(store)
        self.profile()

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """The estimate of every released item for ``user``.

        Raises:
            NodeNotFoundError: for a user outside the social graph.
        """
        if user not in self.similarity.graph:
            raise NodeNotFoundError(user)
        weights = self.weights
        estimates = weights.matrix @ self.profile().row(user)
        return {item: float(estimates[i]) for i, item in enumerate(weights.items)}

    def recommend(
        self, user: UserId, n: int, max_tier: str = TIER_PERSONALIZED
    ) -> RecommendationList:
        """Top-``n``, personalized or from the ladder (tier on the result).

        Raises:
            ValueError: if ``n`` < 1 or ``max_tier`` is not a ladder rung.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        weights = self.weights
        if max_tier == TIER_PERSONALIZED:
            vector = self.profile().row(user)
            if vector.any():
                estimates = weights.matrix @ vector
                return top_n_from_vector(user, weights.items, estimates, n)
        clustering = weights.clustering
        column = clustering.cluster_of(user) if user in clustering else -1
        estimates, tier = ladder_estimates(
            weights.matrix, column, self._sizes, max_tier
        )
        if estimates is None:
            return RecommendationList(user, tier=tier)
        return top_n_from_vector(user, weights.items, estimates, n, tier=tier)
