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

from typing import Any, Dict, List

import numpy as np
import scipy.sparse as sp

from repro.compute.adjacency import adjacency_csr
from repro.exceptions import SimilarityError
from repro.graph.protocol import GraphLike
from repro.obs.registry import incr
from repro.obs.spans import span
from repro.resilience.faults import fault_point
from repro.similarity.matrix import SimilarityMatrix

__all__ = ["build_kernel"]

#: Rows per construction block; at lastfm scale one block of the densest
#: kernel (Katz l=3) stays in the tens of megabytes.
DEFAULT_BLOCK_SIZE = 2048

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
    graph: GraphLike, params: Dict[str, Any], block_size: int
) -> SimilarityMatrix:
    with span("compute.adjacency"):
        adj = adjacency_csr(graph)
    n = adj.num_users
    if n == 0:
        return SimilarityMatrix.from_csr(sp.csr_matrix((0, 0)), [])
    blocks: List[sp.csr_matrix] = []
    for start in range(0, n, block_size):
        with span("compute.kernel.block"):
            fault_point("compute.kernel.block")
            stop = min(start + block_size, n)
            blocks.append(_build_block(adj.matrix, adj.degrees, start, stop, params))
    with span("compute.assemble"):
        matrix = sp.csr_matrix(sp.vstack(blocks, format="csr"))
        result = SimilarityMatrix.from_csr(matrix, adj.users)
    incr("compute.blocks", len(blocks))
    return result


def build_kernel(
    graph: GraphLike,
    measure: Any,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SimilarityMatrix:
    """Build the all-pairs similarity kernel for ``measure`` on ``graph``.

    A completed build counts ``compute.builds``,
    ``compute.measure.<name>``, ``compute.rows``, ``compute.nnz`` and
    ``compute.blocks`` in the active telemetry registry, and times its
    stages with the ``compute.adjacency``, ``compute.kernel.block`` and
    ``compute.assemble`` spans inside ``compute.build_kernel``.

    Args:
        graph: the (public) social graph — either an in-memory
            ``SocialGraph`` or an mmap-backed
            :class:`~repro.graph.bigcsr.BigCSRGraph`; any
            :class:`~repro.graph.protocol.GraphLike` works.
        measure: any registered similarity measure.
        block_size: kernel rows per construction block; bounds peak
            memory.

    Returns:
        A :class:`~repro.similarity.matrix.SimilarityMatrix` whose rows
        follow the graph's stable user order.

    Raises:
        ValueError: for an invalid ``block_size``.
        SimilarityError: for a measure whose name has no kernel.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    params = _kernel_params(measure)
    with span("compute.build_kernel"):
        result = _blocked_kernel(graph, params, block_size)
    incr("compute.builds")
    incr(f"compute.measure.{measure.name}")
    incr("compute.rows", result.num_users)
    incr("compute.nnz", result.nnz)
    return result
