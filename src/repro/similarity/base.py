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
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NodeNotFoundError, SimilarityError
from repro.graph.protocol import GraphLike
from repro.obs.registry import incr
from repro.obs.spans import span
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
    want the same rows.  The cache builds or loads the measure's one
    :class:`~repro.similarity.matrix.SimilarityMatrix` kernel
    (:func:`repro.compute.build_kernel`) on first use and serves every
    row from it, so one kernel serves every holder of the cache — a
    fitted recommender and its batch, a whole sweep, or every fit over
    one graph.  Beside the kernel it holds the workload's SVD
    (:meth:`workload_svd`), which depends on the public graph alone too.
    The cache assumes the graph is not mutated after wrapping — mutating
    it invalidates the cache silently, so wrap a finished snapshot.
    """

    def __init__(self, measure: SimilarityMeasure, graph: GraphLike) -> None:
        self._measure = measure
        self._graph = graph
        self._kernel = None
        self._workload_svd = None

    @property
    def measure(self) -> SimilarityMeasure:
        return self._measure

    @property
    def graph(self) -> GraphLike:
        return self._graph

    def ensure_kernel(self, store=None):
        """The kernel this cache serves from: held, else obtained and kept.

        A kernel comes from :func:`repro.cache.store.load_or_build_kernel`
        (a ``store`` hit, else a build, persisted to ``store``).  With a
        ``store`` the lookup runs even when a kernel is held, so its
        ``cache.*`` counters stay per call.  Returns a
        :class:`~repro.cache.store.CacheLookup` of the held kernel; its
        ``path`` names a store artifact only when that artifact holds
        this very matrix.
        """
        from repro.cache.store import CacheLookup, load_or_build_kernel

        held = self._kernel
        if held is not None and store is None:
            return CacheLookup(matrix=held, path=None, hit=True)
        lookup = load_or_build_kernel(
            self._graph,
            self._measure,
            store,
            build=None if held is None else (lambda: held),
        )
        if held is None:
            self._kernel = lookup.matrix
            return lookup
        if lookup.matrix is held:
            return lookup
        return CacheLookup(matrix=held, path=None, hit=lookup.hit)

    def _held_kernel(self):
        """The held kernel, obtained first when none is held yet."""
        if self._kernel is None:
            self.ensure_kernel()
        return self._kernel

    def row(self, user: UserId) -> Dict[UserId, float]:
        """``sim(u, .)`` (the returned mapping must not be mutated).

        Raises:
            NodeNotFoundError: for a user outside the graph.
        """
        kernel = self._held_kernel()
        if user not in kernel.index:
            raise NodeNotFoundError(user)
        return kernel.row(user)

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

        Each row holds its entries in the kernel row's stored order, so a
        product over the result sums exactly as a loop over ``row(u)``
        does.

        Raises:
            NodeNotFoundError: for a user outside the graph.
        """
        kernel = self._held_kernel()
        try:
            positions = [kernel.index[user] for user in users]
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        rows = kernel.matrix[positions]
        rows.eliminate_zeros()  # row() skips stored zeros
        return rows

    def workload_svd(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The thin SVD ``(U, s, Vt)`` of the dense workload ``W``.

        ``W[u, v] = sim(u, v)``, both axes in ``graph.users()`` order.
        Computed on the first call inside a ``similarity.workload_svd``
        span and counted by ``similarity.workload_svds``, then held beside
        the kernel; the arrays are read-only.
        """
        if self._workload_svd is None:
            users = self._graph.users()
            with span("similarity.workload_svd"):
                rows = self.row_matrix(users)
                columns = {v: col for col, v in enumerate(self.column_users())}
                workload = rows[:, [columns[v] for v in users]].toarray()
                factors = tuple(np.linalg.svd(workload, full_matrices=False))
            for factor in factors:
                factor.setflags(write=False)
            incr("similarity.workload_svds")
            self._workload_svd = factors
        return self._workload_svd

    def similarity(self, u: UserId, v: UserId) -> float:
        """Cached ``sim(u, v)``."""
        if u == v:
            return 0.0
        return self.row(u).get(v, 0.0)

    def similarity_set(self, user: UserId) -> FrozenSet[UserId]:
        """``sim(u)``: users with positive similarity, from the cached row."""
        return frozenset(v for v, s in self.row(user).items() if s > 0.0)

    def precompute(self) -> None:
        """Warm the cache: build (or load) the whole-graph kernel now."""
        self.ensure_kernel()

    def __len__(self) -> int:
        """How many users the cache can answer without a kernel build."""
        return 0 if self._kernel is None else len(self._kernel.index)


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
