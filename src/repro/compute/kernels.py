"""Blocked, vectorised construction of all-pairs similarity kernels.

The per-user ``similarity_row`` implementations are the semantic ground
truth but run at Python speed — one BFS/DP sweep per user.  This module
builds the same kernels with scipy CSR algebra, **one row block at a
time** so peak memory stays bounded by
``block_size * avg_row_density`` instead of the full |U|² product:

- Common Neighbors:    ``A[B] @ A`` off the diagonal
- Adamic/Adar:         ``A[B] @ diag(1/log deg) @ A``
- Resource Allocation: ``A[B] @ diag(1/deg) @ A``
- Katz (l <= 3):       simple-path closed forms, evaluated per block
- Graph Distance:      multi-source blocked BFS by boolean sparse
  algebra — ``frontier @ A`` per level, minus already-visited pairs,
  scoring ``1/d`` exactly; this covers *any* cutoff, not just the
  paper's d <= 2.

Every closed form decomposes row-wise, so blocks are computed one after
another in-process; the assembled kernel streams into
:class:`~repro.similarity.matrix.SimilarityMatrix` without a dense
intermediate.

Equivalence is the contract: each block builder reproduces the python
rows within 1e-9 (Katz and Graph Distance bit-exactly — integer path
counts and exact ``1/d`` scores), property-tested in
``tests/property/test_compute_properties.py``.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.compute.adjacency import CSRAdjacency, adjacency_csr
from repro.compute.stats import ComputeStats, validate_backend
from repro.exceptions import ReproError
from repro.graph.protocol import GraphLike
from repro.obs.adapters import publish_compute_stats
from repro.obs.spans import span
from repro.resilience.faults import fault_point
from repro.similarity.matrix import SimilarityMatrix

__all__ = [
    "build_kernel",
    "python_kernel",
    "resolve_backend",
    "supports_vectorized_kernel",
]

#: Rows per construction block; at lastfm scale one block of the densest
#: kernel (Katz l=3) stays in the tens of megabytes.
DEFAULT_BLOCK_SIZE = 2048

#: Estimated bytes of working memory per stored kernel entry while a
#: block is being built: 8 (float64 data) + 8 (worst-case int64 index)
#: doubled for scipy's product temporaries.
_BUDGET_BYTES_PER_ENTRY = 32


# ----------------------------------------------------------------------
# capability / backend resolution
# ----------------------------------------------------------------------
def _kernel_params(measure: Any) -> Optional[Dict[str, Any]]:
    """The block-builder parameters for ``measure``, or None if unsupported.

    Dispatch is duck-typed on the registry ``name`` plus the public
    parameters, so custom subclasses that change the semantics without
    changing the name should override ``name`` as well.
    """
    name = getattr(measure, "name", "")
    if name in ("cn", "aa", "ra"):
        return {"kind": name}
    if name == "gd":
        max_distance = getattr(measure, "max_distance", None)
        if isinstance(max_distance, int) and max_distance >= 1:
            return {"kind": "gd", "max_distance": max_distance}
        return None
    if name == "kz":
        max_length = getattr(measure, "max_length", None)
        alpha = getattr(measure, "alpha", None)
        if isinstance(max_length, int) and 1 <= max_length <= 3:
            return {"kind": "kz", "max_length": max_length, "alpha": alpha}
        return None
    return None


def supports_vectorized_kernel(measure: Any) -> bool:
    """Whether ``measure`` has a blocked vectorised builder as configured.

    Covers cn/aa/ra, Graph Distance at *any* cutoff, and Katz up to the
    paper's l <= 3 (longer simple paths have no sparse closed form).
    """
    return _kernel_params(measure) is not None


def resolve_backend(backend: str, measure: Any = None) -> str:
    """Map a backend request to the concrete backend that should run.

    ``auto`` resolves to ``vectorized`` when the measure supports it
    (always, when no measure is given) and ``python`` otherwise.

    Raises:
        ValueError: for an unknown backend name.
    """
    validate_backend(backend)
    if backend != "auto":
        return backend
    if measure is None or supports_vectorized_kernel(measure):
        return "vectorized"
    return "python"


# ----------------------------------------------------------------------
# block builders (pure functions of the shared CSR adjacency)
# ----------------------------------------------------------------------
def _zero_own_column(block: sp.csr_matrix, start: int) -> sp.csr_matrix:
    """Zero entry ``(i, start + i)`` of each block row — the diagonal of
    the full kernel restricted to this block — and drop explicit zeros."""
    block = sp.csr_matrix(block, copy=True)
    n_rows, n_cols = block.shape
    limit = min(n_rows, max(0, n_cols - start))
    if limit > 0:
        rows = np.arange(limit)
        # csr fancy assignment is slow; mask via the lil of just the diag.
        diag_mask = sp.csr_matrix(
            (np.ones(limit), (rows, rows + start)), shape=block.shape
        )
        block = block - block.multiply(diag_mask)
    block = sp.csr_matrix(block)
    block.eliminate_zeros()
    return block


def _degree_weights(kind: str, degrees: np.ndarray) -> np.ndarray:
    if kind == "aa":
        with np.errstate(divide="ignore"):
            weights = np.where(degrees >= 2, 1.0 / np.log(degrees), 0.0)
        return weights
    # resource allocation
    with np.errstate(divide="ignore"):
        return np.where(degrees > 0, 1.0 / degrees, 0.0)


def _two_hop_block(
    adjacency: sp.csr_matrix,
    degrees: np.ndarray,
    start: int,
    stop: int,
    kind: str,
) -> sp.csr_matrix:
    block = adjacency[start:stop, :]
    if kind == "cn":
        scores = block @ adjacency
    else:
        scores = (block @ sp.diags(_degree_weights(kind, degrees))) @ adjacency
    return _zero_own_column(scores, start)


def _katz_block(
    adjacency: sp.csr_matrix,
    degrees: np.ndarray,
    start: int,
    stop: int,
    max_length: int,
    alpha: float,
) -> sp.csr_matrix:
    """Damped simple-path counts for one row block (closed forms, l <= 3).

    Mirrors :func:`repro.similarity.matrix.katz_matrix` restricted to rows
    ``start:stop``; every term is a row slice of the full-matrix identity,
    so blocks concatenate to exactly the unblocked kernel.
    """
    block = adjacency[start:stop, :]
    total = sp.csr_matrix(block * alpha)
    if max_length >= 2:
        a2_block = sp.csr_matrix(block @ adjacency)
        paths2 = _zero_own_column(a2_block, start)
        total = total + paths2 * alpha**2
    if max_length >= 3:
        degree_diag = sp.diags(degrees)
        a3_block = a2_block @ adjacency
        paths3 = (
            a3_block
            - block @ degree_diag
            - sp.diags(degrees[start:stop]) @ block
            + block
        )
        paths3 = _zero_own_column(paths3, start)
        total = total + paths3 * alpha**3
    return _zero_own_column(total, start)


def _graph_distance_block(
    adjacency: sp.csr_matrix,
    start: int,
    stop: int,
    max_distance: int,
) -> sp.csr_matrix:
    """Multi-source BFS over the CSR structure for rows ``start:stop``.

    Levels advance by boolean sparse algebra: the next frontier is
    ``sign(frontier @ A)`` minus everything already visited.  Newly
    reached pairs at depth ``d`` score exactly ``1/d``, matching the
    python measure bit for bit at any cutoff.
    """
    num_rows = stop - start
    num_users = adjacency.shape[1]
    rows = np.arange(num_rows)
    frontier = sp.csr_matrix(
        (np.ones(num_rows), (rows, rows + start)), shape=(num_rows, num_users)
    )
    visited = frontier.copy()
    scores = sp.csr_matrix((num_rows, num_users))
    for depth in range(1, max_distance + 1):
        reached = sp.csr_matrix(frontier @ adjacency).sign()
        fresh = sp.csr_matrix(reached - reached.multiply(visited))
        fresh.eliminate_zeros()
        if fresh.nnz == 0:
            break
        scores = scores + fresh * (1.0 / depth)
        visited = visited + fresh
        frontier = fresh
    return sp.csr_matrix(scores)


# ----------------------------------------------------------------------
# memory budgeting: adaptive block bounds + block spill
# ----------------------------------------------------------------------
def _estimated_row_cost(adj: CSRAdjacency, params: Dict[str, Any]) -> np.ndarray:
    """Per-row upper-bound estimate of a kernel block's stored entries.

    One spmv: ``(A @ deg)[u]`` is the number of two-hop walk endpoints
    from ``u`` counted with multiplicity — an upper bound on row ``u``'s
    nnz in any two-hop kernel (cn/aa/ra, Katz l<=2, gd d<=2).  Deeper
    kernels scale the walk estimate by the extra hop count.  Always >= 1
    so empty rows still advance the block partition.
    """
    degrees = adj.degrees
    two_hop = adj.matrix @ degrees
    kind = params["kind"]
    if kind == "kz":
        hops = int(params.get("max_length") or 1)
    elif kind == "gd":
        hops = int(params.get("max_distance") or 2)
    else:
        hops = 2
    factor = max(1.0, float(hops) - 1.0)
    return np.maximum(two_hop * factor + degrees + 1.0, 1.0)


def _budget_bounds(
    adj: CSRAdjacency,
    params: Dict[str, Any],
    memory_budget_bytes: int,
    block_size: int,
) -> List[Tuple[int, int]]:
    """Variable row-block bounds whose estimated working set fits the budget.

    A greedy cut over the cumulative row-cost estimate: each block takes
    rows until the next row would push the estimated product working set
    past ``memory_budget_bytes`` (a single pathological row still gets a
    singleton block — rows cannot split).  ``block_size`` stays an upper
    bound on rows per block, so a generous budget degenerates to the
    fixed-size partition.
    """
    cumulative = np.cumsum(_estimated_row_cost(adj, params))
    budget_entries = max(1.0, memory_budget_bytes / _BUDGET_BYTES_PER_ENTRY)
    n = adj.num_users
    bounds: List[Tuple[int, int]] = []
    start = 0
    consumed = 0.0
    while start < n:
        stop = int(
            np.searchsorted(cumulative, consumed + budget_entries, side="right")
        )
        stop = min(max(stop, start + 1), start + block_size, n)
        bounds.append((start, stop))
        consumed = float(cumulative[stop - 1])
        start = stop
    return bounds


class _BlockSpiller:
    """Spills finished kernel row blocks to ``.npy`` scratch files.

    Under a memory budget, holding every finished block until the final
    ``vstack`` would defeat the budget: the blocks *are* the kernel.
    Instead each finished block's CSR buffers go to disk immediately and
    :meth:`assemble` streams them back one at a time into preallocated
    final arrays — peak memory is one in-flight block plus the final
    kernel, never the 2x of ``vstack``'s concatenate-then-copy.
    """

    def __init__(self, directory: str, stats: ComputeStats) -> None:
        self._dir = directory
        self._stats = stats
        self._blocks: List[Tuple[int, int]] = []  # (nnz, rows) per block

    def _prefix(self, i: int) -> str:
        return os.path.join(self._dir, f"block-{i:05d}")

    def add(self, block: sp.csr_matrix) -> None:
        prefix = self._prefix(len(self._blocks))
        np.save(prefix + ".data.npy", block.data)
        np.save(prefix + ".indices.npy", block.indices)
        np.save(prefix + ".indptr.npy", block.indptr)
        self._blocks.append((int(block.nnz), int(block.shape[0])))
        self._stats.spill_blocks += 1
        self._stats.spill_bytes += (
            block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
        )

    def assemble(self, num_cols: int) -> sp.csr_matrix:
        total_nnz = sum(nnz for nnz, _ in self._blocks)
        total_rows = sum(rows for _, rows in self._blocks)
        limit = np.iinfo(np.int32).max
        idx_dtype = (
            np.int64 if (total_nnz > limit or num_cols > limit) else np.int32
        )
        data = np.empty(total_nnz, dtype=np.float64)
        indices = np.empty(total_nnz, dtype=idx_dtype)
        indptr = np.zeros(total_rows + 1, dtype=idx_dtype)
        nnz_offset = 0
        row_offset = 0
        for i, (nnz, rows) in enumerate(self._blocks):
            prefix = self._prefix(i)
            data[nnz_offset : nnz_offset + nnz] = np.load(prefix + ".data.npy")
            indices[nnz_offset : nnz_offset + nnz] = np.load(
                prefix + ".indices.npy"
            )
            block_indptr = np.load(prefix + ".indptr.npy").astype(np.int64)
            indptr[row_offset + 1 : row_offset + rows + 1] = (
                block_indptr[1:] + nnz_offset
            )
            nnz_offset += nnz
            row_offset += rows
        matrix = sp.csr_matrix(
            (data, indices, indptr), shape=(total_rows, num_cols), copy=False
        )
        # Blocks come out of scipy ops in canonical form; skip the O(nnz)
        # re-verification.
        matrix.has_sorted_indices = True
        return matrix


def _build_block(
    adjacency: sp.csr_matrix,
    degrees: np.ndarray,
    start: int,
    stop: int,
    params: Dict[str, Any],
) -> sp.csr_matrix:
    kind = params["kind"]
    if kind in ("cn", "aa", "ra"):
        return _two_hop_block(adjacency, degrees, start, stop, kind)
    if kind == "gd":
        return _graph_distance_block(adjacency, start, stop, params["max_distance"])
    if kind == "kz":
        return _katz_block(
            adjacency, degrees, start, stop, params["max_length"], params["alpha"]
        )
    raise ReproError(f"unknown kernel kind {kind!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# kernel construction
# ----------------------------------------------------------------------
def python_kernel(
    graph: GraphLike,
    measure: Any,
    adjacency: Optional[CSRAdjacency] = None,
) -> SimilarityMatrix:
    """The reference kernel: one ``similarity_row`` call per user.

    Rows follow the same stable user order as the vectorised path, so the
    two backends produce directly comparable (and identically cacheable)
    matrices.
    """
    adj = adjacency if adjacency is not None else adjacency_csr(graph)
    index = adj.index
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for i, user in enumerate(adj.users):
        for other, score in measure.similarity_row(graph, user).items():
            j = index.get(other)
            if j is not None and score != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(score)
    n = adj.num_users
    matrix = sp.csr_matrix(
        (np.asarray(vals), (rows, cols)), shape=(n, n)
    )
    return SimilarityMatrix.from_csr(matrix, adj.users)


def _vectorized_kernel(
    graph: GraphLike,
    measure: Any,
    params: Dict[str, Any],
    block_size: int,
    memory_budget_bytes: Optional[int],
    stats: ComputeStats,
) -> SimilarityMatrix:
    stage_start = time.perf_counter()
    adj = adjacency_csr(graph)
    stats.add_stage("adjacency", time.perf_counter() - stage_start)

    n = adj.num_users
    if n == 0:
        return SimilarityMatrix.from_csr(sp.csr_matrix((0, 0)), [])
    if memory_budget_bytes is not None:
        bounds = _budget_bounds(adj, params, memory_budget_bytes, block_size)
    else:
        bounds = [(s, min(s + block_size, n)) for s in range(0, n, block_size)]
    stats.blocks = len(bounds)

    if memory_budget_bytes is not None:
        with tempfile.TemporaryDirectory(prefix="kernel-spill-") as spill_dir:
            return _run_blocks(
                adj, bounds, params, stats, spiller=_BlockSpiller(spill_dir, stats)
            )
    return _run_blocks(adj, bounds, params, stats, spiller=None)


def _run_blocks(
    adj: CSRAdjacency,
    bounds: List[Tuple[int, int]],
    params: Dict[str, Any],
    stats: ComputeStats,
    spiller: Optional[_BlockSpiller],
) -> SimilarityMatrix:
    n = adj.num_users
    stage_start = time.perf_counter()
    blocks: List[sp.csr_matrix] = []
    for start, stop in bounds:
        with span("compute.kernel.block"):
            fault_point("compute.kernel.block")
            block = _build_block(adj.matrix, adj.degrees, start, stop, params)
            if spiller is not None:
                spiller.add(block)
            else:
                blocks.append(block)
    stats.add_stage("blocks", time.perf_counter() - stage_start)

    stage_start = time.perf_counter()
    if spiller is not None:
        matrix = spiller.assemble(n)
    else:
        matrix = sp.csr_matrix(sp.vstack(blocks, format="csr"))
    result = SimilarityMatrix.from_csr(matrix, adj.users)
    stats.add_stage("assemble", time.perf_counter() - stage_start)
    return result


def build_kernel(
    graph: GraphLike,
    measure: Any,
    *,
    backend: str = "auto",
    block_size: int = DEFAULT_BLOCK_SIZE,
    memory_budget_bytes: Optional[int] = None,
    stats: Optional[ComputeStats] = None,
) -> SimilarityMatrix:
    """Build the all-pairs similarity kernel for ``measure`` on ``graph``.

    Args:
        graph: the (public) social graph — either an in-memory
            ``SocialGraph`` or an mmap-backed
            :class:`~repro.graph.bigcsr.BigCSRGraph`; any
            :class:`~repro.graph.protocol.GraphLike` works.
        measure: any registered similarity measure.
        backend: ``"auto"`` (vectorised when supported, python fallback on
            any vectorised failure), ``"vectorized"`` (fail rather than
            fall back), or ``"python"`` (reference row loop).
        block_size: kernel rows per construction block; bounds peak
            memory on the vectorised path.
        memory_budget_bytes: hard target for the construction working
            set (vectorised path).  When set, block bounds are derived
            adaptively from a per-row cost estimate so each block's
            product stays within the budget, and finished blocks spill
            to ``.npy`` scratch files instead of accumulating in memory
            (``compute.spill.*`` counters record the traffic).  The
            *result* kernel still materialises — the budget governs
            construction overhead, not output size.
        stats: optional :class:`ComputeStats` to fill with per-stage wall
            times, throughput, and the backend actually used.

    Returns:
        A :class:`~repro.similarity.matrix.SimilarityMatrix` whose rows
        follow the graph's stable user order under either backend.

    Raises:
        ValueError: for an unknown backend or invalid ``block_size`` /
            ``memory_budget_bytes``.
        ReproError: when ``backend="vectorized"`` and the measure has no
            vectorised builder as configured.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if memory_budget_bytes is not None and memory_budget_bytes < 1:
        raise ValueError(
            f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
        )
    if stats is None:
        stats = ComputeStats()
    if memory_budget_bytes is not None:
        stats.memory_budget_bytes = memory_budget_bytes
    with span("compute.build_kernel"):
        try:
            return _build_kernel(
                graph,
                measure,
                backend=backend,
                block_size=block_size,
                memory_budget_bytes=memory_budget_bytes,
                stats=stats,
            )
        finally:
            # Mirror the construction counters into the active telemetry
            # registry (no-op when disabled or nothing ran).
            publish_compute_stats(stats)


def _build_kernel(
    graph: GraphLike,
    measure: Any,
    *,
    backend: str,
    block_size: int,
    memory_budget_bytes: Optional[int],
    stats: ComputeStats,
) -> SimilarityMatrix:
    stats.requested = backend
    stats.measure = getattr(measure, "name", type(measure).__name__)
    resolved = resolve_backend(backend, measure)
    total_start = time.perf_counter()

    if resolved == "vectorized":
        params = _kernel_params(measure)
        if params is None:
            raise ReproError(
                f"measure {measure!r} has no vectorised similarity kernel; "
                f"use backend='python' or 'auto'"
            )
        try:
            fault_point("compute.kernel")
            result = _vectorized_kernel(
                graph, measure, params, block_size, memory_budget_bytes, stats
            )
            stats.backend = "vectorized"
            stats.finish(
                result.num_users, result.nnz, time.perf_counter() - total_start
            )
            return result
        except Exception:
            if backend == "vectorized":
                raise
            # auto: degrade to the reference implementation — slower,
            # never wrong (same ladder shape as serving degradation).
            stats.fallbacks += 1

    stage_start = time.perf_counter()
    result = python_kernel(graph, measure)
    stats.add_stage("rows", time.perf_counter() - stage_start)
    stats.backend = "python"
    stats.finish(result.num_users, result.nnz, time.perf_counter() - total_start)
    return result
