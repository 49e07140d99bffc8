"""Blocked, vectorised construction of all-pairs similarity kernels.

Every registered measure has exactly one kernel builder here, built with
scipy CSR algebra **one row block at a time** so peak memory stays
bounded by ``block_size * avg_row_density`` instead of the full |U|²
product:

- Common Neighbors:    ``A[B] @ A`` off the diagonal
- Adamic/Adar:         ``A[B] @ diag(1/log deg) @ A``
- Resource Allocation: ``A[B] @ diag(1/deg) @ A``
- Jaccard / cosine:    element-wise functions of the CN block and the
  degrees, ``cn / (d_u + d_v - cn)`` and ``cn / sqrt(d_u d_v)``
- Preferential Attachment: ``d_u d_v`` on the pattern of ``A + A²``
- Katz (l <= 3):       simple-path closed forms, evaluated per block
- Graph Distance:      multi-source blocked BFS by boolean sparse
  algebra — ``frontier @ A`` per level, minus already-visited pairs,
  scoring ``1/d`` exactly; this covers *any* cutoff, not just the
  paper's d <= 2.

Every closed form decomposes row-wise, so blocks are computed one after
another in-process; the assembled kernel streams into
:class:`~repro.similarity.matrix.SimilarityMatrix` without a dense
intermediate.

Each block builder reproduces the measures' own ``similarity_row``
(within 1e-9 for Adamic/Adar and Resource Allocation, bit-exactly for
the rest), property-tested in
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
from repro.compute.stats import ComputeStats
from repro.exceptions import SimilarityError
from repro.graph.protocol import GraphLike
from repro.obs.adapters import publish_compute_stats
from repro.obs.spans import span
from repro.resilience.faults import fault_point
from repro.similarity.matrix import SimilarityMatrix

__all__ = ["build_kernel"]

#: Rows per construction block; at lastfm scale one block of the densest
#: kernel (Katz l=3) stays in the tens of megabytes.
DEFAULT_BLOCK_SIZE = 2048

#: Estimated bytes of working memory per stored kernel entry while a
#: block is being built: 8 (float64 data) + 8 (worst-case int64 index)
#: doubled for scipy's product temporaries.
_BUDGET_BYTES_PER_ENTRY = 32

#: Measures whose kernel is a function of the two-hop product alone.
_TWO_HOP_KINDS = ("cn", "aa", "ra", "jc", "cos", "pa")


def _kernel_params(measure: Any) -> Dict[str, Any]:
    """The block-builder parameters for ``measure``.

    Dispatch is duck-typed on the registry ``name`` plus the public
    parameters, so custom subclasses that change the semantics without
    changing the name should override ``name`` as well.

    Raises:
        SimilarityError: for a measure whose name has no kernel.
    """
    name = getattr(measure, "name", "")
    if name in _TWO_HOP_KINDS:
        return {"kind": name}
    if name == "gd":
        return {"kind": "gd", "max_distance": measure.max_distance}
    if name == "kz":
        return {"kind": "kz", "max_length": measure.max_length, "alpha": measure.alpha}
    raise SimilarityError(f"measure {measure!r} has no similarity kernel")


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
    if kind in ("aa", "ra"):
        scores = (block @ sp.diags(_degree_weights(kind, degrees))) @ adjacency
        return _zero_own_column(scores, start)
    if kind == "pa":
        scores = _zero_own_column(block @ adjacency + block, start)
    else:
        scores = _zero_own_column(block @ adjacency, start)
    if kind == "cn":
        return scores
    # Element-wise functions of the common-neighbor counts and the two
    # endpoint degrees, in the product's stored order.  Counts and
    # degrees are exact integers in float64, so each score rounds once,
    # exactly as the measures' own integer arithmetic does.
    row_degree = np.repeat(degrees[start:stop], np.diff(scores.indptr))
    col_degree = degrees[scores.indices]
    common = scores.data
    if kind == "jc":
        scores.data = common / (row_degree + col_degree - common)
    elif kind == "cos":
        scores.data = common / np.sqrt(row_degree * col_degree)
    else:
        scores.data = row_degree * col_degree
    return scores


def _katz_block(
    adjacency: sp.csr_matrix,
    degrees: np.ndarray,
    start: int,
    stop: int,
    max_length: int,
    alpha: float,
) -> sp.csr_matrix:
    """Damped simple-path counts for one row block (closed forms, l <= 3).

    Path-count closed forms (``A2 = A @ A``): length 1 is ``A``; length
    2 is ``A2`` off the diagonal; length 3 is
    ``A3 - A @ diag(deg) - diag(deg) @ A + A`` off the diagonal, which
    subtracts the walks that revisit an endpoint.  Every term is a row
    slice of the full-matrix identity, so blocks concatenate to exactly
    the unblocked kernel.
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
    if kind in _TWO_HOP_KINDS:
        return _two_hop_block(adjacency, degrees, start, stop, kind)
    if kind == "gd":
        return _graph_distance_block(adjacency, start, stop, params["max_distance"])
    if kind == "kz":
        return _katz_block(
            adjacency, degrees, start, stop, params["max_length"], params["alpha"]
        )
    raise SimilarityError(f"unknown kernel kind {kind!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# kernel construction
# ----------------------------------------------------------------------
def _blocked_kernel(
    graph: GraphLike,
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
        block_size: kernel rows per construction block; bounds peak
            memory.
        memory_budget_bytes: hard target for the construction working
            set.  When set, block bounds are derived adaptively from a
            per-row cost estimate so each block's product stays within
            the budget, and finished blocks spill to ``.npy`` scratch
            files instead of accumulating in memory (``compute.spill.*``
            counters record the traffic).  The *result* kernel still
            materialises — the budget governs construction overhead, not
            output size.
        stats: optional :class:`ComputeStats` to fill with per-stage wall
            times and throughput.

    Returns:
        A :class:`~repro.similarity.matrix.SimilarityMatrix` whose rows
        follow the graph's stable user order.

    Raises:
        ValueError: for invalid ``block_size`` / ``memory_budget_bytes``.
        SimilarityError: for a measure whose name has no kernel.
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
    params = _kernel_params(measure)
    with span("compute.build_kernel"):
        total_start = time.perf_counter()
        result = _blocked_kernel(graph, params, block_size, memory_budget_bytes, stats)
        stats.finish(
            measure.name,
            result.num_users,
            result.nnz,
            time.perf_counter() - total_start,
        )
        # Mirror the construction counters into the active telemetry
        # registry (no-op when disabled).
        publish_compute_stats(stats)
        return result
