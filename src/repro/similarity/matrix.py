"""Vectorised similarity computation over sparse adjacency matrices.

The per-user BFS row computations in the measure classes are flexible but
Python-speed.  For whole-graph workloads — the LRM workload matrix,
sensitivity analysis, batch evaluation — this module computes all-pairs
similarities at once with scipy sparse algebra:

- Common Neighbors:       ``S = A @ A`` (off-diagonal)
- Adamic/Adar:            ``S = A @ diag(1/log deg) @ A``
- Resource Allocation:    ``S = A @ diag(1/deg) @ A``
- Graph Distance (d<=2):  1 on edges, 1/2 on two-hop pairs
- Katz (bounded):         ``S = sum_l alpha^l  W_l`` with ``W_l`` the
  simple-path count matrices (l <= 3, closed forms below)

where ``A`` is the 0/1 adjacency matrix.  Every function returns a
:class:`SimilarityMatrix` that maps user ids to matrix rows and can be
compared entry-for-entry against the measure classes (the test suite does
exactly that — two independent implementations guarding each other).

Path-count closed forms used for Katz (standard results; ``A2 = A @ A``):

- length 1: ``A``
- length 2: ``A2 - diag(A2)`` (walks of length 2 avoid revisiting the
  start unless they return to it, which only the diagonal does)
- length 3: ``A3 - A @ diag(A2) - diag(A2) @ A + A`` restricted off the
  diagonal — subtracting walks that revisit an endpoint (u-x-u-v and
  u-v-x-v patterns each counted by ``deg`` terms; the ``+A`` restores the
  double-subtracted u-v-u-v walk per edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from repro.graph.social_graph import SocialGraph
from repro.types import UserId

__all__ = [
    "SimilarityMatrix",
    "adjacency_matrix",
    "common_neighbors_matrix",
    "adamic_adar_matrix",
    "resource_allocation_matrix",
    "graph_distance_matrix",
    "katz_matrix",
]


@dataclass(frozen=True)
class SimilarityMatrix:
    """All-pairs similarity scores with the user-id <-> row mapping.

    Attributes:
        matrix: sparse CSR matrix of scores; the diagonal is zero.
        users: row/column order.
        index: user -> row.
    """

    matrix: sp.csr_matrix
    users: List[UserId]
    index: Dict[UserId, int]

    @classmethod
    def from_csr(cls, matrix: sp.spmatrix, users: List[UserId]) -> "SimilarityMatrix":
        """Wrap a CSR matrix and its row order, deriving the index.

        The canonical constructor for deserialisation paths (the
        :mod:`repro.cache` artifact loader) — one place owns the
        user -> row mapping invariant.

        Raises:
            ValueError: when the matrix is not square over ``users``.
        """
        csr = sp.csr_matrix(matrix)
        if csr.shape != (len(users), len(users)):
            raise ValueError(
                f"matrix shape {csr.shape} does not match {len(users)} users"
            )
        return cls(
            matrix=csr,
            users=list(users),
            index={user: i for i, user in enumerate(users)},
        )

    @property
    def num_users(self) -> int:
        """Number of users (rows/columns)."""
        return len(self.users)

    @property
    def nnz(self) -> int:
        """Number of stored non-zero similarity entries."""
        return int(self.matrix.nnz)

    def similarity(self, u: UserId, v: UserId) -> float:
        """``sim(u, v)`` (0.0 for unknown users)."""
        i = self.index.get(u)
        j = self.index.get(v)
        if i is None or j is None or i == j:
            return 0.0
        return float(self.matrix[i, j])

    def row(self, user: UserId) -> Dict[UserId, float]:
        """The non-zero similarity row of ``user`` as a dict."""
        i = self.index.get(user)
        if i is None:
            return {}
        start, stop = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        return {
            self.users[self.matrix.indices[k]]: float(self.matrix.data[k])
            for k in range(start, stop)
            if self.matrix.data[k] != 0.0
        }

    def column_sums(self) -> Dict[UserId, float]:
        """``sum_u sim(u, v)`` per user — the NOU sensitivity inputs.

        Accumulated over ``u`` in row order by
        :func:`repro.privacy.sensitivity.column_sums`, the one
        implementation the NOU and GS sensitivity reads.
        """
        from repro.privacy.sensitivity import column_sums

        return column_sums(self.matrix, self.users)


def adjacency_matrix(graph: SocialGraph):
    """The 0/1 adjacency matrix of the graph plus the row order.

    Delegates to :meth:`~repro.graph.social_graph.SocialGraph.to_csr`, so
    rows follow the canonical stable user order shared with the
    :mod:`repro.compute` backend and the persistent kernel cache.
    """
    matrix, users = graph.to_csr()
    index = {u: i for i, u in enumerate(users)}
    return matrix, users, index


def _strip_diagonal(matrix: sp.spmatrix) -> sp.csr_matrix:
    # csr_matrix(csr) aliases the input's buffers; copy before mutating.
    matrix = sp.csr_matrix(matrix, copy=True)
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix


def common_neighbors_matrix(graph: SocialGraph) -> SimilarityMatrix:
    """All-pairs Common Neighbors: ``(A @ A)`` off the diagonal."""
    adjacency, users, index = adjacency_matrix(graph)
    scores = _strip_diagonal(adjacency @ adjacency)
    return SimilarityMatrix(matrix=scores, users=users, index=index)


def _weighted_two_hop(graph: SocialGraph, weight_of_degree) -> SimilarityMatrix:
    adjacency, users, index = adjacency_matrix(graph)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    weights = np.array([weight_of_degree(d) for d in degrees])
    middle = sp.diags(weights)
    scores = _strip_diagonal(adjacency @ middle @ adjacency)
    return SimilarityMatrix(matrix=scores, users=users, index=index)


def adamic_adar_matrix(graph: SocialGraph) -> SimilarityMatrix:
    """All-pairs Adamic/Adar: shared neighbors weighted by 1/log(degree)."""
    return _weighted_two_hop(
        graph, lambda d: 1.0 / np.log(d) if d >= 2 else 0.0
    )


def resource_allocation_matrix(graph: SocialGraph) -> SimilarityMatrix:
    """All-pairs Resource Allocation: shared neighbors weighted by 1/degree."""
    return _weighted_two_hop(graph, lambda d: 1.0 / d if d > 0 else 0.0)


def graph_distance_matrix(graph: SocialGraph) -> SimilarityMatrix:
    """All-pairs Graph Distance with the paper's d <= 2 cutoff.

    Score 1 for adjacent pairs, 1/2 for non-adjacent pairs with at least
    one shared neighbor.
    """
    adjacency, users, index = adjacency_matrix(graph)
    two_hop = _strip_diagonal(adjacency @ adjacency)
    # Pairs reachable in two hops but not adjacent score 1/2.
    reachable = two_hop.sign()
    non_adjacent = reachable - reachable.multiply(adjacency.sign())
    scores = sp.csr_matrix(adjacency + non_adjacent * 0.5)
    scores = _strip_diagonal(scores)
    return SimilarityMatrix(matrix=scores, users=users, index=index)


def katz_matrix(
    graph: SocialGraph, max_length: int = 3, alpha: float = 0.05
) -> SimilarityMatrix:
    """All-pairs bounded Katz via simple-path count closed forms.

    Supports max_length in {1, 2, 3} (the paper caps k at 3; longer simple
    paths have no convenient closed form).

    Raises:
        ValueError: for an unsupported max_length or invalid alpha.
    """
    if max_length not in (1, 2, 3):
        raise ValueError(
            f"katz_matrix supports max_length in {{1, 2, 3}}, got {max_length}"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    adjacency, users, index = adjacency_matrix(graph)
    total = sp.csr_matrix(adjacency * alpha)
    if max_length >= 2:
        a2 = sp.csr_matrix(adjacency @ adjacency)
        paths2 = _strip_diagonal(a2)
        total = total + paths2 * alpha**2
    if max_length >= 3:
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        degree_diag = sp.diags(degrees)
        a3 = adjacency @ a2
        paths3 = a3 - adjacency @ degree_diag - degree_diag @ adjacency + adjacency
        paths3 = _strip_diagonal(paths3)
        total = total + paths3 * alpha**3
    return SimilarityMatrix(matrix=_strip_diagonal(total), users=users, index=index)
