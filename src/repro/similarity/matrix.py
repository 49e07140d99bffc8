"""All-pairs similarity scores keyed by user id.

:class:`SimilarityMatrix` is the kernel type every consumer reads: the
CSR scores that :func:`repro.compute.build_kernel` builds for each
registered measure, plus the user-id <-> row mapping.  The persistent
kernel cache (:mod:`repro.cache`) stores and loads it, and the scoring
core multiplies it into cluster profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import scipy.sparse as sp

from repro.types import UserId

__all__ = ["SimilarityMatrix"]


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
