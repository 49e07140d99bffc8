"""Streaming synthetic-graph generators for out-of-core construction.

The generators in :mod:`repro.graph.generators` build an in-memory
:class:`~repro.graph.social_graph.SocialGraph` — a dict-of-sets whose
Python-object overhead caps them around a few hundred thousand users.
This module re-expresses the same models as **seeded edge-chunk
iterators**: each yields ``(u, v)`` numpy int64 array pairs, holding
O(chunk) Python objects regardless of graph size, and feeds straight
into :class:`~repro.graph.bigcsr.BigCSRWriter`'s external sort.

**Bit-exactness contract.**  For the same parameters and the same seed,
each streamer emits *exactly* the edge set its in-memory counterpart
produces — not statistically equivalent, identical.  This holds because
numpy's ``Generator.random(k)`` consumes the underlying bit stream
exactly as ``k`` successive scalar ``.random()`` calls do, so the
streamers batch the very same draws the scalar loops make, in the same
order, and apply the same arithmetic to them (including floating-point
operation order in the Erdős–Rényi index inversion, and the
short-circuit in the planted-partition loop that skips the draw entirely
when a pair's probability is zero).  The property suite in
``tests/property`` pins this across parameter draws.

One caveat: a streamer may consume *more* of the bit stream than the
in-memory generator (batches overshoot the final edge), so the rng's
state after generation differs.  Derive per-phase generators from
independent seeds — as the experiment configs already do — rather than
reusing one rng across phases.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bigcsr import (
    DEFAULT_BUILD_BUDGET_BYTES,
    BigCSRGraph,
    BigCSRWriter,
)

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "stream_erdos_renyi_edges",
    "stream_barabasi_albert_edges",
    "stream_planted_partition_edges",
    "stream_to_bigcsr",
    "erdos_renyi_bigcsr",
    "barabasi_albert_bigcsr",
    "planted_partition_bigcsr",
]

#: Edges per yielded chunk — the unit of "in-flight" memory.
DEFAULT_CHUNK_EDGES = 1 << 17


EdgeBlocks = Iterable[Tuple[np.ndarray, np.ndarray]]


class _ChunkBuffer:
    """Accumulates scalar edges into fixed-size numpy chunks."""

    def __init__(self, chunk_edges: int) -> None:
        self._u = np.empty(chunk_edges, dtype=np.int64)
        self._v = np.empty(chunk_edges, dtype=np.int64)
        self._len = 0
        self._cap = chunk_edges

    def add(self, u: int, v: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        self._u[self._len] = u
        self._v[self._len] = v
        self._len += 1
        if self._len == self._cap:
            return self.drain()
        return None

    def drain(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if self._len == 0:
            return None
        out = (self._u[: self._len].copy(), self._v[: self._len].copy())
        self._len = 0
        return out


def stream_erdos_renyi_edges(
    n: int,
    p: float,
    rng: np.random.Generator,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """G(n, p) as edge chunks — bit-exact vs :func:`erdos_renyi_graph`.

    Batches the geometric-skipping draws: a block of uniforms becomes a
    block of skips, a cumulative sum recovers the candidate edge indices,
    and the index→(u, v) inversion runs vectorised with the identical
    float64 arithmetic the scalar loop uses.  Cost is O(edges), memory
    O(chunk).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or n < 2:
        return
    if p == 1.0:
        # Complete graph: all pairs row by row, no randomness consumed —
        # exactly like the in-memory special case.
        for u in range(n - 1):
            v = np.arange(u + 1, n, dtype=np.int64)
            for start in range(0, v.size, chunk_edges):
                block = v[start : start + chunk_edges]
                yield np.full(block.size, u, dtype=np.int64), block
        return

    log_q = float(np.log1p(-p))
    total = n * (n - 1) // 2
    b = 2 * n - 1
    index = -1
    # Expected edges per batch ~ batch * p / (p ... ) — just size batches
    # near the chunk size; overshoot past `total` ends the stream.
    batch = max(1024, chunk_edges)
    while index < total:
        draws = rng.random(batch)
        # Same elementwise ops as the scalar loop:
        #   skip = floor(log(1 - u) / log_q)
        # For subnormal p the quotient can exceed int64, or overflow to
        # inf (the scalar loop survives via Python's arbitrary-precision
        # int()); any skip >= total already ends the stream, so clamping
        # there changes nothing but keeps the cast defined.
        with np.errstate(over="ignore"):
            quotient = np.log(1.0 - draws) / log_q
        skips = np.minimum(np.floor(quotient), float(total)).astype(np.int64)
        indices = index + np.cumsum(skips + 1)
        valid = indices < total
        if not valid.all():
            indices = indices[: int(np.argmin(valid))]
            if indices.size == 0:
                return
            index = total
        else:
            index = int(indices[-1])
        # Invert the pairing (u, v), u < v, from the linear index — the
        # same float64 expression as the scalar generator.
        u = ((b - np.sqrt(b * b - 8.0 * indices)) // 2).astype(np.int64)
        v = indices - u * (2 * n - u - 1) // 2 + u + 1
        for start in range(0, u.size, chunk_edges):
            yield u[start : start + chunk_edges], v[start : start + chunk_edges]


def stream_barabasi_albert_edges(
    n: int,
    m: int,
    rng: np.random.Generator,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Barabási–Albert as edge chunks — bit-exact vs the in-memory model.

    Preferential attachment is inherently sequential (each arrival
    samples from the history of all previous endpoints), so the control
    flow stays a scalar loop; what changes is the storage: the endpoint
    multiset lives in one preallocated int64 array (16 bytes per
    directed endpoint) instead of a Python list, and edges leave as
    numpy chunks.  Python-object footprint is O(m + chunk), not O(n·m).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if m >= n:
        raise ValueError(f"m must be < n, got m={m}, n={n}")
    buffer = _ChunkBuffer(chunk_edges)
    # Exact endpoint count: the star contributes m edges, every later
    # arrival exactly m more -> 2 * m * (n - m) entries total.
    repeated = np.empty(2 * m * (n - m), dtype=np.int64)
    rlen = 0
    for v in range(1, m + 1):
        chunk = buffer.add(0, v)
        if chunk is not None:
            yield chunk
        repeated[rlen] = 0
        repeated[rlen + 1] = v
        rlen += 2
    integers = rng.integers  # bound method; the hot path
    for new in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(int(repeated[integers(rlen)]))
        for t in targets:
            chunk = buffer.add(new, t)
            if chunk is not None:
                yield chunk
            repeated[rlen] = new
            repeated[rlen + 1] = t
            rlen += 2
    tail = buffer.drain()
    if tail is not None:
        yield tail


def stream_planted_partition_edges(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Planted partition as edge chunks — bit-exact vs the in-memory model.

    The scalar generator draws one uniform per candidate pair in row
    order, **except** pairs whose probability is zero, which are skipped
    without consuming the rng (Python's ``and`` short-circuits).  The
    streamer reproduces both behaviours: with ``p_out > 0`` it
    batch-draws each full row suffix; with ``p_out == 0`` it draws only
    the intra-community suffix (communities are contiguous by
    construction, so that suffix is a single slice).

    Still Θ(n²) draws when ``p_out > 0`` — the model itself is dense in
    candidate pairs — but O(n) peak memory instead of O(n²) Python
    objects.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError(
            f"expected 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    n = int(sum(sizes))
    if p_in == 0.0:  # p_out <= p_in == 0: no pair ever draws
        return
    boundaries = np.cumsum([0, *sizes])
    community = np.empty(n, dtype=np.int64)
    for c in range(len(sizes)):
        community[boundaries[c] : boundaries[c + 1]] = c

    buffer_u: list = []
    buffer_v: list = []
    buffered = 0
    for u in range(n):
        if p_out > 0.0:
            stop = n
            probabilities = np.where(
                community[u + 1 :] == community[u], p_in, p_out
            )
        else:
            # Zero-probability pairs never touch the rng; only the rest
            # of u's own community block draws.
            stop = int(boundaries[community[u] + 1])
            probabilities = p_in
        count = stop - u - 1
        if count <= 0:
            continue
        draws = rng.random(count)
        hits = np.nonzero(draws < probabilities)[0]
        if hits.size:
            buffer_u.append(np.full(hits.size, u, dtype=np.int64))
            buffer_v.append(hits.astype(np.int64) + u + 1)
            buffered += hits.size
            if buffered >= chunk_edges:
                yield np.concatenate(buffer_u), np.concatenate(buffer_v)
                buffer_u, buffer_v, buffered = [], [], 0
    if buffered:
        yield np.concatenate(buffer_u), np.concatenate(buffer_v)


# ----------------------------------------------------------------------
# edge stream -> artifact
# ----------------------------------------------------------------------
def stream_to_bigcsr(
    num_users: int,
    edge_blocks: EdgeBlocks,
    *,
    directory: Optional[str] = None,
    path: Optional[str] = None,
    memory_budget_bytes: int = DEFAULT_BUILD_BUDGET_BYTES,
) -> BigCSRGraph:
    """Drain an edge-chunk iterator into a published BigCSR artifact.

    The glue between the streamers above and
    :class:`~repro.graph.bigcsr.BigCSRWriter`: chunks spill to disk as
    they arrive and the external sort publishes the artifact atomically.
    On any failure the writer's scratch space is cleaned up.
    """
    writer = BigCSRWriter(num_users, memory_budget_bytes=memory_budget_bytes)
    try:
        for u_block, v_block in edge_blocks:
            writer.add_edges(u_block, v_block)
        return writer.finalize(
            directory=directory, path=path
        )
    except BaseException:
        writer.abort()
        raise


def erdos_renyi_bigcsr(
    n: int,
    p: float,
    rng: np.random.Generator,
    *,
    directory: Optional[str] = None,
    path: Optional[str] = None,
    memory_budget_bytes: int = DEFAULT_BUILD_BUDGET_BYTES,
) -> BigCSRGraph:
    """G(n, p) built out-of-core; same edges as the in-memory generator."""
    return stream_to_bigcsr(
        n,
        stream_erdos_renyi_edges(n, p, rng),
        directory=directory,
        path=path,
        memory_budget_bytes=memory_budget_bytes,
    )


def barabasi_albert_bigcsr(
    n: int,
    m: int,
    rng: np.random.Generator,
    *,
    directory: Optional[str] = None,
    path: Optional[str] = None,
    memory_budget_bytes: int = DEFAULT_BUILD_BUDGET_BYTES,
) -> BigCSRGraph:
    """Barabási–Albert built out-of-core; bit-exact vs the in-memory model."""
    return stream_to_bigcsr(
        n,
        stream_barabasi_albert_edges(n, m, rng),
        directory=directory,
        path=path,
        memory_budget_bytes=memory_budget_bytes,
    )


def planted_partition_bigcsr(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    *,
    directory: Optional[str] = None,
    path: Optional[str] = None,
    memory_budget_bytes: int = DEFAULT_BUILD_BUDGET_BYTES,
) -> BigCSRGraph:
    """Planted partition built out-of-core; bit-exact vs the in-memory model."""
    return stream_to_bigcsr(
        int(sum(sizes)),
        stream_planted_partition_edges(sizes, p_in, p_out, rng),
        directory=directory,
        path=path,
        memory_budget_bytes=memory_budget_bytes,
    )
