"""Similarity-measure interface, registry, and caching.

A measure must implement :meth:`SimilarityMeasure.similarity_row`, which
returns ``sim(u, .)`` — the non-zero similarity scores from one user to all
others.  Pairwise :meth:`similarity` and the *similarity set* ``sim(u)``
(the paper's notation for users with non-zero similarity) derive from it.

Rows are the unit of computation because every consumer in the framework —
utility queries, sensitivity analysis, cluster quality — iterates a whole
row at a time; computing rows directly lets each measure use one BFS/DP
sweep per user instead of O(|U|) pairwise calls.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SimilarityError
from repro.graph.protocol import GraphLike
from repro.types import UserId

__all__ = [
    "SimilarityMeasure",
    "SimilarityCache",
    "register_measure",
    "get_measure",
    "list_measures",
]


class SimilarityMeasure(abc.ABC):
    """Base class for structural social-similarity measures.

    Subclasses must set :attr:`name` (a short registry key, e.g. ``"cn"``)
    and implement :meth:`similarity_row`.
    """

    #: Registry key; subclasses override.
    name: str = ""

    @abc.abstractmethod
    def similarity_row(self, graph: GraphLike, user: UserId) -> Dict[UserId, float]:
        """``sim(u, .)``: non-zero similarities from ``user`` to other users.

        The returned mapping must not contain ``user`` itself and must not
        contain zero or negative values.

        Raises:
            NodeNotFoundError: if ``user`` is not in the graph.
        """

    def similarity(self, graph: GraphLike, u: UserId, v: UserId) -> float:
        """``sim(u, v)``; zero when the users are not similar.

        The default implementation computes a full row; subclasses may
        override with a cheaper pairwise computation.
        """
        if u == v:
            return 0.0
        return self.similarity_row(graph, u).get(v, 0.0)

    def similarity_set(self, graph: GraphLike, user: UserId) -> FrozenSet[UserId]:
        """``sim(u)``: the set of users with *positive* similarity to ``user``.

        Rows are contractually free of zero entries, but the explicit
        threshold keeps the set well-defined even for a measure that leaks
        explicit zeros — and matches :meth:`SimilarityCache.similarity_set`.
        """
        return frozenset(
            v for v, s in self.similarity_row(graph, user).items() if s > 0.0
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SimilarityCache:
    """Serves similarity rows for one (measure, graph) pair.

    Several consumers (recommender, error decomposition, sensitivity)
    want the same rows.  The cache keeps the
    :class:`~repro.similarity.matrix.SimilarityMatrix` it builds or
    loads and serves dict rows from it on demand, so one kernel serves
    every holder of the cache — a fitted recommender and its batch, or a
    whole sweep; rows computed one at a time (the python backend, users
    the kernel lacks) are memoised.  The cache assumes the graph is not
    mutated after wrapping — mutating it invalidates the cache silently,
    so wrap a finished snapshot.

    ``backend`` picks how rows are materialised: ``"auto"`` (the default)
    tries vectorised when the measure supports it and silently degrades to
    python on failure (counted in :attr:`last_compute_stats`);
    ``"vectorized"`` builds the whole kernel at once on the
    :mod:`repro.compute` CSR path (rows agree with the python backend
    within 1e-9; CN / Graph Distance / Katz are bit-identical);
    ``"python"`` computes each row with the measure's own
    ``similarity_row`` — pass it explicitly to force the bit-exact
    reference path.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        graph: GraphLike,
        backend: str = "auto",
    ) -> None:
        from repro.compute.stats import ComputeStats, validate_backend

        validate_backend(backend)
        self._measure = measure
        self._graph = graph
        self._backend = backend
        self._rows: Dict[UserId, Dict[UserId, float]] = {}
        self._kernel = None
        self._last_stats: Optional[ComputeStats] = None

    @property
    def measure(self) -> SimilarityMeasure:
        return self._measure

    @property
    def graph(self) -> GraphLike:
        return self._graph

    @property
    def backend(self) -> str:
        """The backend requested at construction (``auto|vectorized|python``)."""
        return self._backend

    @property
    def last_compute_stats(self):
        """The :class:`~repro.compute.stats.ComputeStats` of the kernel this
        cache built, or None when it built none."""
        return self._last_stats

    def _resolved_backend(self, backend: Optional[str] = None) -> str:
        from repro.compute.kernels import resolve_backend

        requested = self._backend if backend is None else backend
        return resolve_backend(requested, self._measure)

    def ensure_kernel(self, store=None, *, backend: Optional[str] = None, stats=None):
        """The kernel this cache serves from: held, else obtained and kept.

        A kernel comes from :func:`repro.cache.store.load_or_build_kernel`
        (a ``store`` hit, else a build with ``backend`` filling ``stats``,
        persisted to ``store``).  With a ``store`` the lookup runs even
        when a kernel is held, so its hit/miss counters stay per call.
        Returns a :class:`~repro.cache.store.CacheLookup` of the held
        kernel; its ``path`` names a store artifact only when that
        artifact holds this very matrix.
        """
        from repro.cache.store import CacheLookup, load_or_build_kernel
        from repro.compute.stats import ComputeStats

        held = self._kernel
        if held is not None and store is None:
            return CacheLookup(matrix=held, path=None, hit=True)
        if stats is None:
            stats = ComputeStats()
        lookup = load_or_build_kernel(
            self._graph,
            self._measure,
            store,
            backend=self._backend if backend is None else backend,
            stats=stats,
            build=None if held is None else (lambda: held),
        )
        if held is None:
            self._kernel = lookup.matrix
            if stats.backend:  # a construction actually ran
                self._last_stats = stats
            return lookup
        if lookup.matrix is held:
            return lookup
        return CacheLookup(matrix=held, path=None, hit=lookup.hit)

    def row(self, user: UserId) -> Dict[UserId, float]:
        """``sim(u, .)`` (the returned mapping must not be mutated)."""
        cached = self._rows.get(user)
        if cached is not None:
            return cached
        if self._kernel is None and self._resolved_backend() == "vectorized":
            self.ensure_kernel()
        if self._kernel is not None and user in self._kernel.index:
            return self._kernel.row(user)
        # Python backend, or a user absent from the kernel (e.g. added
        # after wrapping): compute the row on its own.
        cached = self._measure.similarity_row(self._graph, user)
        self._rows[user] = cached
        return cached

    def _column_order(self):
        """The held kernel, else the graph's adjacency export: both carry
        the graph's stable user order as ``users`` and ``index``."""
        if self._kernel is not None:
            return self._kernel
        from repro.compute.adjacency import adjacency_csr

        return adjacency_csr(self._graph)

    def column_users(self) -> Sequence[UserId]:
        """The column order of :meth:`row_matrix`: the kernel's user order.

        That is the graph's stable user order, which every kernel of the
        graph follows, so it does not change when a kernel arrives later.
        """
        return self._column_order().users

    def row_matrix(self, users: Sequence[UserId]) -> sp.csr_matrix:
        """``row(u)`` of each of ``users`` as one CSR row over :meth:`column_users`.

        Each row holds its entries in the order :meth:`row` iterates
        them (a kernel row's stored order, a python row's dict order),
        so a product over the result sums exactly as a loop over
        ``row(u)`` does.

        Raises:
            NodeNotFoundError: for a user outside the graph.
        """
        if self._kernel is None and self._resolved_backend() == "vectorized":
            self.ensure_kernel()
        kernel, memoised = self._kernel, self._rows
        if kernel is not None and all(
            user in kernel.index and user not in memoised for user in users
        ):
            rows = kernel.matrix[[kernel.index[user] for user in users]]
            rows.eliminate_zeros()  # row() skips stored zeros
            return rows
        rows = [self.row(user) for user in users]
        columns = self._column_order().index
        indptr = np.cumsum([0] + [len(row) for row in rows])
        indices = [columns[other] for row in rows for other in row]
        data = [score for row in rows for score in row.values()]
        return sp.csr_matrix((data, indices, indptr), shape=(len(rows), len(columns)))

    def similarity(self, u: UserId, v: UserId) -> float:
        """Cached ``sim(u, v)``."""
        if u == v:
            return 0.0
        return self.row(u).get(v, 0.0)

    def similarity_set(self, user: UserId) -> FrozenSet[UserId]:
        """``sim(u)``: users with positive similarity, from the cached row."""
        return frozenset(v for v, s in self.row(user).items() if s > 0.0)

    def precompute(self, users=None, backend: Optional[str] = None) -> None:
        """Warm the cache for ``users`` (default: the whole graph).

        Args:
            users: the users to warm (a vectorised build always covers
                the whole graph).
            backend: override the cache's construction-time backend for
                this warm-up only.
        """
        if self._kernel is None and self._resolved_backend(backend) == "vectorized":
            self.ensure_kernel(backend=backend)
        held = self._kernel.index if self._kernel is not None else {}
        for user in self._graph.users() if users is None else users:
            if user not in held:
                self.row(user)

    def __len__(self) -> int:
        """How many users the cache can answer without computing a row."""
        if self._kernel is None:
            return len(self._rows)
        index = self._kernel.index
        return len(index) + sum(1 for user in self._rows if user not in index)


_REGISTRY: Dict[str, Callable[[], SimilarityMeasure]] = {}


def register_measure(
    name: str, factory: Callable[[], SimilarityMeasure]
) -> None:
    """Register a measure factory under ``name`` (lowercase key).

    Raises:
        SimilarityError: if the name is already taken.
    """
    key = name.lower()
    if key in _REGISTRY:
        raise SimilarityError(f"similarity measure {name!r} already registered")
    _REGISTRY[key] = factory


def get_measure(name: str) -> SimilarityMeasure:
    """Instantiate a registered measure by name (case-insensitive).

    Raises:
        SimilarityError: if no such measure is registered.
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SimilarityError(
            f"unknown similarity measure {name!r}; known measures: {known}"
        ) from None
    return factory()


def list_measures() -> List[str]:
    """Names of all registered measures, sorted."""
    return sorted(_REGISTRY)
