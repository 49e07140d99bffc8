"""Out-of-core social graphs: a checksummed, mmap-backed CSR artifact.

``SocialGraph`` is a dict-of-sets — ideal for mutation and for the
hundreds-of-thousands-of-users scale of the paper's crawls, hopeless at
ten million: every user id, neighbor set, and set entry is a Python
object.  This module inverts the architecture for large graphs:
**CSR-on-disk is the primary representation**, and Python objects exist
only for the rows a caller actually touches.

An artifact is a *directory* of three flat numpy buffers plus metadata::

    <fingerprint>.bigcsr/
        meta.json      format version, counts, dtypes, per-file SHA-256
                       digests, the graph content fingerprint, and a
                       checksum over the metadata itself
        indptr.npy     CSR row pointers   (int32 when they fit, else int64)
        indices.npy    CSR column ids, sorted per row (same dtype)
        data.npy       float64 ones, so ``to_csr`` is a zero-copy wrap

The discipline is the same as :mod:`repro.cache.store` and
:mod:`repro.core.persistence`:

- **content-addressed** — the canonical directory name is the graph's
  :func:`~repro.cache.keys.graph_fingerprint`, computed *during* the
  build from the sorted edge stream, bit-identical to the fingerprint of
  the equivalent in-memory graph — so both representations share one
  similarity-kernel cache;
- **checksummed** — every buffer file carries a SHA-256 digest, verified
  on open (:exc:`~repro.exceptions.GraphArtifactError` on mismatch);
- **atomic** — built in a sibling temp directory, fsynced, then renamed
  into place, so a crash leaves either the old artifact or none;
- **memory-mapped** — :meth:`BigCSRGraph.to_csr` wraps the on-disk
  buffers without copying; index dtypes are chosen exactly as scipy
  would choose them, so ``csr_matrix(..., copy=False)`` keeps the maps.

:class:`BigCSRWriter` builds artifacts from *streamed* edges with an
external bucket sort: edge chunks spill to disk as they arrive, degrees
accumulate in one int64 array, and ``finalize`` scatters the spill into
row-range buckets sized to a memory budget, sorts each bucket, and
writes the CSR buffers straight through a write-mode memmap — so peak
Python-object memory is O(edges-in-flight), never O(edges).

:class:`BigCSRGraph` then satisfies the
:class:`~repro.graph.protocol.GraphLike` protocol, so ``build_kernel``,
Louvain, ``SimilarityCache``, the sweep engine, and the serving tier all
accept it in place of a ``SocialGraph`` without conversion.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import uuid
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import EdgeError, GraphArtifactError, NodeNotFoundError
from repro.types import UserId

__all__ = [
    "BIGCSR_FORMAT_VERSION",
    "BigCSRGraph",
    "BigCSRWriter",
    "bigcsr_from_social_graph",
    "content_path",
    "open_bigcsr",
]

#: Bump to invalidate every persisted graph artifact when the on-disk
#: layout changes incompatibly.
BIGCSR_FORMAT_VERSION = 1

_META_NAME = "meta.json"
_BUFFER_NAMES = ("indptr.npy", "indices.npy", "data.npy")

#: Default budget for the external sort's in-memory working set.  One
#: bucket of directed edge pairs is at most this many bytes before the
#: per-bucket sort; a single row's adjacency can exceed it (rows cannot
#: be split), so it is a target, not a hard cap.
DEFAULT_BUILD_BUDGET_BYTES = 128 * 2**20

#: Edge pairs buffered in Python before they are flushed as one spill
#: chunk (``add_edge`` path; ``add_edges`` flushes per call).
_EDGE_BUFFER_LEN = 1 << 18

_DIGEST_CHUNK = 8 * 2**20


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_DIGEST_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _meta_checksum(meta: dict) -> str:
    """SHA-256 over the canonical JSON of ``meta`` minus its checksum."""
    payload = {k: v for k, v in meta.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _index_dtype(num_users: int, nnz: int) -> np.dtype:
    """The index dtype scipy would pick for this shape and content.

    Matching scipy's own choice matters: ``csr_matrix(..., copy=False)``
    keeps the given buffers only when their dtype is the one scipy's
    ``get_index_dtype`` resolves, so storing the *same* dtype on disk is
    what makes ``to_csr`` zero-copy.
    """
    limit = np.iinfo(np.int32).max
    if num_users <= limit and nnz <= limit:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def content_path(directory: str, fingerprint: str) -> str:
    """Where the artifact for a graph ``fingerprint`` lives in a store dir."""
    return os.path.join(directory, f"{fingerprint}.bigcsr")


class BigCSRGraph:
    """An immutable social graph backed by on-disk CSR buffers.

    Users are the contiguous ints ``0 .. num_users-1`` — exactly the
    canonical ``stable_user_order`` — so row position and user id
    coincide and no id↔row dictionaries are ever materialised.

    Satisfies :class:`~repro.graph.protocol.GraphLike`; per-user queries
    (``neighbors``, ``degree``, ``has_edge``) read only the touched rows
    from the memory map, and :meth:`to_csr` wraps the buffers without
    copying.  Structural mutation is not supported: :attr:`version` is
    the constant 0.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        num_edges: int,
        fingerprint: str,
        path: Optional[str] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self._num_users = int(indptr.shape[0]) - 1
        self._num_edges = int(num_edges)
        #: The graph's canonical content fingerprint
        #: (:func:`repro.cache.keys.graph_fingerprint` short-circuits to it).
        self.fingerprint = fingerprint
        #: The artifact directory backing the buffers (None: in-memory).
        self.path = path
        self.meta = dict(meta) if meta else {}
        self._matrix: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------
    # GraphLike: scalars and membership
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Constant 0 — the representation is immutable."""
        return 0

    @property
    def num_users(self) -> int:
        return self._num_users

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def nnz(self) -> int:
        """Stored directed entries (``2 * num_edges``)."""
        return int(self._indptr[-1])

    def __contains__(self, user: UserId) -> bool:
        return (
            isinstance(user, (int, np.integer))
            and not isinstance(user, bool)
            and 0 <= int(user) < self._num_users
        )

    def __len__(self) -> int:
        return self._num_users

    def __iter__(self) -> Iterator[UserId]:
        return iter(range(self._num_users))

    def users(self) -> range:
        """All user nodes — a ``range``, never a materialised list."""
        return range(self._num_users)

    def stable_user_order(self) -> range:
        """Canonical order; ints ascending is exactly ``user_sort_key``."""
        return range(self._num_users)

    # ------------------------------------------------------------------
    # GraphLike: per-user queries
    # ------------------------------------------------------------------
    def _row_bounds(self, user: UserId) -> Tuple[int, int]:
        if user not in self:
            raise NodeNotFoundError(user)
        u = int(user)
        return int(self._indptr[u]), int(self._indptr[u + 1])

    def neighbors(self, user: UserId) -> FrozenSet[UserId]:
        """``Gamma(u)`` as a frozen set of Python ints."""
        start, stop = self._row_bounds(user)
        return frozenset(self._indices[start:stop].tolist())

    def neighbor_array(self, user: UserId) -> np.ndarray:
        """``Gamma(u)`` as a sorted numpy view — no Python objects."""
        start, stop = self._row_bounds(user)
        return self._indices[start:stop]

    def degree(self, user: UserId) -> int:
        start, stop = self._row_bounds(user)
        return stop - start

    def degrees(self) -> Dict[UserId, int]:
        """Degree of every user (materialises one dict; prefer
        :meth:`degree_array` at scale)."""
        return dict(enumerate(np.diff(self._indptr).tolist()))

    def has_edge(self, u: UserId, v: UserId) -> bool:
        if u not in self or v not in self:
            return False
        start, stop = self._row_bounds(u)
        position = int(np.searchsorted(self._indices[start:stop], int(v)))
        return (
            position < stop - start
            and int(self._indices[start + position]) == int(v)
        )

    def average_degree(self) -> float:
        if self._num_users == 0:
            return 0.0
        return 2.0 * self._num_edges / self._num_users

    def max_degree(self) -> int:
        if self._num_users == 0:
            return 0
        return int(np.diff(self._indptr).max())

    # ------------------------------------------------------------------
    # GraphLike: edge iteration
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Tuple[UserId, UserId]]:
        """Each undirected edge once, as ``(u, v)`` with ``u < v``,
        ascending — the canonical fingerprint order."""
        for u_block, v_block in self.iter_edge_blocks():
            yield from zip(u_block.tolist(), v_block.tolist())

    def iter_edge_blocks(
        self, block_rows: int = 65536
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Undirected edges as numpy ``(u, v)`` array blocks, ``u < v``,
        globally sorted — O(block) memory regardless of graph size."""
        indptr = self._indptr
        indices = self._indices
        for start in range(0, self._num_users, block_rows):
            stop = min(start + block_rows, self._num_users)
            lo, hi = int(indptr[start]), int(indptr[stop])
            if lo == hi:
                continue
            block = np.asarray(indices[lo:hi], dtype=np.int64)
            counts = np.diff(indptr[start : stop + 1]).astype(np.int64)
            sources = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
            keep = block > sources
            if keep.any():
                yield sources[keep], block[keep]

    # ------------------------------------------------------------------
    # GraphLike: vectorised views
    # ------------------------------------------------------------------
    def to_csr(self, users: Optional[Iterable[UserId]] = None):
        """The 0/1 adjacency as ``(scipy.sparse.csr_matrix, users)``.

        With the default order this wraps the mmap'd buffers in place —
        zero copies, shared page cache across processes — and returns
        ``range(num_users)`` as the user order.  Treat the matrix as
        strictly read-only.  With an explicit ``users`` list the induced
        submatrix is materialised (small-subset use only).
        """
        if users is None:
            return self._adjacency_matrix(), range(self._num_users)
        users = list(users)
        for user in users:
            if user not in self:
                raise NodeNotFoundError(user)
        rows = np.asarray([int(u) for u in users], dtype=np.int64)
        sub = self._adjacency_matrix()[rows, :][:, rows]
        return sp.csr_matrix(sub), users

    def _adjacency_matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            matrix = sp.csr_matrix(
                (self._data, self._indices, self._indptr),
                shape=(self._num_users, self._num_users),
                copy=False,
            )
            # Rows are sorted and duplicate-free by construction; telling
            # scipy avoids a full O(nnz) verification touching every page.
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
            self._matrix = matrix
        return self._matrix

    def degree_array(self, users: Optional[Iterable[UserId]] = None):
        """Degrees as a float64 vector aligned with ``users``."""
        if users is None:
            return np.diff(self._indptr).astype(np.float64)
        users = list(users)
        out = np.empty(len(users))
        for i, user in enumerate(users):
            start, stop = self._row_bounds(user)
            out[i] = stop - start
        return out

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_social_graph(self):
        """Materialise as an in-memory :class:`SocialGraph` (small graphs)."""
        from repro.graph.social_graph import SocialGraph

        graph = SocialGraph()
        graph.add_users(range(self._num_users))
        for u, v in self.edges():
            graph.add_edge(u, v)
        return graph

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_users={self._num_users}, "
            f"num_edges={self._num_edges}, path={self.path!r})"
        )


# ----------------------------------------------------------------------
# opening artifacts
# ----------------------------------------------------------------------
def _load_meta(directory: str) -> dict:
    meta_path = os.path.join(directory, _META_NAME)
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
    except OSError as exc:
        raise GraphArtifactError(
            f"graph artifact {directory!r} has no readable metadata: {exc}"
        ) from exc
    except ValueError as exc:  # malformed JSON or non-UTF-8 bytes
        raise GraphArtifactError(
            f"graph artifact {directory!r} carries unparseable metadata: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise GraphArtifactError(
            f"graph artifact {directory!r} metadata is not an object"
        )
    version = meta.get("version")
    if version != BIGCSR_FORMAT_VERSION:
        raise GraphArtifactError(
            f"graph artifact {directory!r} has format {version!r}; "
            f"this build reads format {BIGCSR_FORMAT_VERSION}"
        )
    if meta.get("checksum") != _meta_checksum(meta):
        raise GraphArtifactError(
            f"graph artifact {directory!r} failed its metadata checksum; "
            f"the artifact is corrupt"
        )
    return meta


def open_bigcsr(path: str, verify: bool = True) -> BigCSRGraph:
    """Open an artifact directory, memory-mapping the CSR buffers.

    Args:
        path: the ``*.bigcsr`` directory.
        verify: stream every buffer once and compare SHA-256 digests
            against the metadata (one sequential read; it also warms the
            page cache).  Pass False when a parent process already
            verified the artifact.

    Raises:
        GraphArtifactError: corrupt or truncated artifacts, checksum
            mismatches, unsupported versions, CSR invariant violations.
    """
    meta = _load_meta(path)
    if verify:
        for name in _BUFFER_NAMES:
            expected = meta["files"].get(name)
            buffer_path = os.path.join(path, name)
            try:
                actual = _file_sha256(buffer_path)
            except OSError as exc:
                raise GraphArtifactError(
                    f"graph artifact {path!r} is missing buffer {name}: {exc}"
                ) from exc
            if actual != expected:
                raise GraphArtifactError(
                    f"graph artifact {path!r} buffer {name} failed its "
                    f"checksum (stored {str(expected)[:12]}..., computed "
                    f"{actual[:12]}...); the artifact is corrupt"
                )
    try:
        indptr = np.load(os.path.join(path, "indptr.npy"), mmap_mode="r")
        indices = np.load(os.path.join(path, "indices.npy"), mmap_mode="r")
        data = np.load(os.path.join(path, "data.npy"), mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise GraphArtifactError(
            f"graph artifact {path!r} has unreadable buffers: {exc}"
        ) from exc
    num_users = int(meta.get("num_users", -1))
    nnz = int(meta.get("nnz", -1))
    if (
        indptr.ndim != 1
        or indices.ndim != 1
        or data.ndim != 1
        or indptr.shape[0] != num_users + 1
        or indices.shape[0] != nnz
        or data.shape[0] != nnz
        or (num_users >= 0 and int(indptr[0]) != 0)
        or (nnz >= 0 and num_users >= 0 and int(indptr[-1]) != nnz)
    ):
        raise GraphArtifactError(
            f"graph artifact {path!r} violates CSR shape invariants "
            f"(num_users={num_users}, nnz={nnz}, "
            f"indptr={indptr.shape}, indices={indices.shape})"
        )
    return BigCSRGraph(
        indptr,
        indices,
        data,
        num_edges=int(meta["num_edges"]),
        fingerprint=str(meta["fingerprint"]),
        path=path,
        meta=meta,
    )


# ----------------------------------------------------------------------
# building artifacts from streamed edges
# ----------------------------------------------------------------------
class BigCSRWriter:
    """Stream edges into a :class:`BigCSRGraph` artifact via external sort.

    Usage::

        writer = BigCSRWriter(num_users=10_000_000)
        for u_chunk, v_chunk in edge_stream:      # numpy arrays
            writer.add_edges(u_chunk, v_chunk)
        graph = writer.finalize(directory="graphs/")   # content-addressed

    The writer holds O(chunk) Python-side memory plus one int64 degree
    vector (8 bytes/user); edges spill to a scratch directory as they
    arrive.  ``finalize`` runs a two-pass external bucket sort governed
    by ``memory_budget_bytes`` and writes the artifact atomically.

    Edges must be duplicate-free (each undirected pair at most once, in
    either orientation) and self-loop-free — both are verified, the
    first during the sort, so a violating stream fails the build instead
    of corrupting the artifact.

    Args:
        num_users: the graph's user count; ids are ``0 .. num_users-1``.
        memory_budget_bytes: target bound on the external sort's working
            set (a single oversized row can exceed it — rows can't split).
        spill_dir: scratch directory for edge spill chunks (default: a
            fresh ``tempfile.mkdtemp``, removed on finalize/abort).
    """

    def __init__(
        self,
        num_users: int,
        *,
        memory_budget_bytes: int = DEFAULT_BUILD_BUDGET_BYTES,
        spill_dir: Optional[str] = None,
    ) -> None:
        if num_users < 0:
            raise ValueError(f"num_users must be >= 0, got {num_users}")
        if memory_budget_bytes < 1:
            raise ValueError(
                f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
            )
        self.num_users = num_users
        self.memory_budget_bytes = memory_budget_bytes
        self._own_spill = spill_dir is None
        self._spill_dir = (
            tempfile.mkdtemp(prefix="bigcsr-spill-")
            if spill_dir is None
            else spill_dir
        )
        os.makedirs(self._spill_dir, exist_ok=True)
        self._degrees = np.zeros(num_users, dtype=np.int64)
        self._chunks: List[str] = []
        self._num_edges = 0
        self._pending_u: List[int] = []
        self._pending_v: List[int] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Add one undirected edge (buffered; flushed in chunks)."""
        self._pending_u.append(u)
        self._pending_v.append(v)
        if len(self._pending_u) >= _EDGE_BUFFER_LEN:
            self._flush_pending()

    def add_edges(self, u, v) -> None:
        """Add a chunk of undirected edges from two aligned arrays."""
        self._flush_pending()
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(
                f"edge arrays must be aligned 1-d, got {u.shape} and {v.shape}"
            )
        if u.size == 0:
            return
        if not (
            np.issubdtype(u.dtype, np.integer)
            and np.issubdtype(v.dtype, np.integer)
        ):
            raise TypeError(
                f"edge arrays must be integer, got {u.dtype} and {v.dtype}"
            )
        u = u.astype(np.int64, copy=False)
        v = v.astype(np.int64, copy=False)
        self._ingest(u, v)

    def _flush_pending(self) -> None:
        if not self._pending_u:
            return
        u = np.asarray(self._pending_u, dtype=np.int64)
        v = np.asarray(self._pending_v, dtype=np.int64)
        self._pending_u = []
        self._pending_v = []
        self._ingest(u, v)

    def _ingest(self, u: np.ndarray, v: np.ndarray) -> None:
        if self._finalized:
            raise ValueError("writer already finalized")
        if (u == v).any():
            loop = int(u[(u == v).argmax()])
            raise EdgeError(f"self-loop on user {loop!r} is not allowed")
        n = self.num_users
        if u.size and (
            int(u.min()) < 0
            or int(v.min()) < 0
            or int(u.max()) >= n
            or int(v.max()) >= n
        ):
            raise NodeNotFoundError(
                int(np.concatenate([u[(u < 0) | (u >= n)], v[(v < 0) | (v >= n)]])[0])
            )
        self._degrees += np.bincount(u, minlength=n)
        self._degrees += np.bincount(v, minlength=n)
        self._num_edges += int(u.size)
        chunk_path = os.path.join(
            self._spill_dir, f"chunk-{len(self._chunks):06d}.npy"
        )
        np.save(chunk_path, np.stack([u, v], axis=1))
        self._chunks.append(chunk_path)

    # ------------------------------------------------------------------
    # finalize: external bucket sort -> artifact
    # ------------------------------------------------------------------
    def _bucket_starts(self, indptr: np.ndarray) -> np.ndarray:
        """Row-range bucket boundaries whose directed entries fit the
        budget (16 bytes per directed pair, sorted in memory)."""
        budget_entries = max(1, self.memory_budget_bytes // 16)
        starts = [0]
        taken = 0
        # Walk cumulative directed counts; a bucket closes when adding the
        # next row would cross the budget (single oversized rows stand alone).
        for row in range(self.num_users):
            row_entries = int(self._degrees[row])
            if taken and taken + row_entries > budget_entries:
                starts.append(row)
                taken = 0
            taken += row_entries
        return np.asarray(starts, dtype=np.int64)

    def finalize(
        self,
        *,
        directory: Optional[str] = None,
        path: Optional[str] = None,
        verify: bool = False,
    ) -> BigCSRGraph:
        """Sort, write, checksum, and atomically publish the artifact.

        Exactly one of ``directory`` (content-addressed placement:
        ``<directory>/<fingerprint>.bigcsr``) or ``path`` (explicit
        location) must be given.  If a content-addressed artifact for
        the same fingerprint already exists it is reused as-is.

        Returns the opened :class:`BigCSRGraph` (buffers mmap'd from the
        published location).

        Raises:
            GraphArtifactError: duplicate edges in the stream, or IO-level
                corruption detected while publishing.
        """
        if (directory is None) == (path is None):
            raise ValueError("pass exactly one of directory= or path=")
        if self._finalized:
            raise ValueError("writer already finalized")
        self._flush_pending()
        self._finalized = True

        from repro.cache.keys import GraphFingerprintHasher

        parent = directory if directory is not None else os.path.dirname(path) or "."
        os.makedirs(parent, exist_ok=True)
        tmp_dir = os.path.join(
            parent, f".bigcsr-tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        os.makedirs(tmp_dir)
        try:
            n = self.num_users
            indptr64 = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr64[1:])
            nnz = int(indptr64[-1])
            idx_dtype = _index_dtype(n, nnz)

            np.save(os.path.join(tmp_dir, "indptr.npy"), indptr64.astype(idx_dtype))
            indices_mm = np.lib.format.open_memmap(
                os.path.join(tmp_dir, "indices.npy"),
                mode="w+",
                dtype=idx_dtype,
                shape=(nnz,),
            )
            hasher = GraphFingerprintHasher()
            hasher.add_int_users(n)
            self._scatter_and_sort(indptr64, indices_mm, hasher)
            indices_mm.flush()
            del indices_mm

            data_mm = np.lib.format.open_memmap(
                os.path.join(tmp_dir, "data.npy"),
                mode="w+",
                dtype=np.float64,
                shape=(nnz,),
            )
            for start in range(0, nnz, 4 * 2**20):
                data_mm[start : start + 4 * 2**20] = 1.0
            data_mm.flush()
            del data_mm

            fingerprint = hasher.hexdigest()
            meta = {
                "version": BIGCSR_FORMAT_VERSION,
                "kind": "bigcsr-graph",
                "num_users": n,
                "num_edges": self._num_edges,
                "nnz": nnz,
                "index_dtype": idx_dtype.name,
                "fingerprint": fingerprint,
                "files": {
                    name: _file_sha256(os.path.join(tmp_dir, name))
                    for name in _BUFFER_NAMES
                },
            }
            meta["checksum"] = _meta_checksum(meta)
            meta_path = os.path.join(tmp_dir, _META_NAME)
            with open(meta_path, "w", encoding="utf-8") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            for name in _BUFFER_NAMES:
                _fsync_file(os.path.join(tmp_dir, name))
            _fsync_dir(tmp_dir)

            final = (
                content_path(directory, fingerprint)
                if directory is not None
                else path
            )
            if os.path.isdir(final):
                # Content-addressed: an existing artifact with this name is
                # the same graph.  For an explicit path, the caller asked
                # to replace whatever was there.
                if directory is not None:
                    shutil.rmtree(tmp_dir)
                    return open_bigcsr(final, verify=verify)
                shutil.rmtree(final)
            os.rename(tmp_dir, final)
            _fsync_dir(parent)
            return open_bigcsr(final, verify=verify)
        finally:
            if os.path.isdir(tmp_dir):
                shutil.rmtree(tmp_dir, ignore_errors=True)
            self._cleanup_spill()

    def abort(self) -> None:
        """Drop spilled chunks without building (idempotent)."""
        self._finalized = True
        self._cleanup_spill()

    def _cleanup_spill(self) -> None:
        for chunk in self._chunks:
            try:
                os.remove(chunk)
            except OSError:
                pass
        self._chunks = []
        if self._own_spill and os.path.isdir(self._spill_dir):
            shutil.rmtree(self._spill_dir, ignore_errors=True)

    def _scatter_and_sort(
        self,
        indptr: np.ndarray,
        indices_out: np.ndarray,
        hasher,
    ) -> None:
        """Two-pass external sort: scatter directed pairs into row-range
        buckets, then sort each bucket and write its CSR slice."""
        starts = self._bucket_starts(indptr)
        num_buckets = len(starts)
        bounds = np.append(starts, self.num_users)

        if num_buckets <= 1:
            pairs = self._load_all_directed()
            self._emit_bucket(0, self.num_users, pairs, indptr, indices_out, hasher)
            return

        bucket_files = [
            open(os.path.join(self._spill_dir, f"bucket-{b:06d}.bin"), "wb")
            for b in range(num_buckets)
        ]
        try:
            for chunk_path in self._chunks:
                chunk = np.load(chunk_path)
                src = np.concatenate([chunk[:, 0], chunk[:, 1]])
                dst = np.concatenate([chunk[:, 1], chunk[:, 0]])
                which = np.searchsorted(bounds[1:], src, side="right")
                order = np.argsort(which, kind="stable")
                src, dst, which = src[order], dst[order], which[order]
                present, first = np.unique(which, return_index=True)
                cuts = np.append(first, src.size)
                for bucket, lo, hi in zip(present, cuts[:-1], cuts[1:]):
                    block = np.empty((hi - lo, 2), dtype=np.int64)
                    block[:, 0] = src[lo:hi]
                    block[:, 1] = dst[lo:hi]
                    block.tofile(bucket_files[bucket])
        finally:
            for handle in bucket_files:
                handle.close()

        for b in range(num_buckets):
            bucket_path = os.path.join(self._spill_dir, f"bucket-{b:06d}.bin")
            pairs = np.fromfile(bucket_path, dtype=np.int64).reshape(-1, 2)
            os.remove(bucket_path)
            self._emit_bucket(
                int(bounds[b]), int(bounds[b + 1]), pairs, indptr, indices_out, hasher
            )

    def _load_all_directed(self) -> np.ndarray:
        blocks = []
        for chunk_path in self._chunks:
            chunk = np.load(chunk_path)
            directed = np.empty((chunk.shape[0] * 2, 2), dtype=np.int64)
            directed[: chunk.shape[0], 0] = chunk[:, 0]
            directed[: chunk.shape[0], 1] = chunk[:, 1]
            directed[chunk.shape[0] :, 0] = chunk[:, 1]
            directed[chunk.shape[0] :, 1] = chunk[:, 0]
            blocks.append(directed)
        if not blocks:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(blocks)

    def _emit_bucket(
        self,
        row_start: int,
        row_stop: int,
        pairs: np.ndarray,
        indptr: np.ndarray,
        indices_out: np.ndarray,
        hasher,
    ) -> None:
        src = pairs[:, 0]
        dst = pairs[:, 1]
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        if src.size:
            dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if dup.any():
                at = int(dup.argmax())
                raise GraphArtifactError(
                    f"duplicate edge ({int(src[at])}, {int(dst[at])}) in the "
                    f"streamed input; edges must be unique"
                )
        lo = int(indptr[row_start])
        hi = int(indptr[row_stop])
        if src.size != hi - lo:  # pragma: no cover - internal invariant
            raise GraphArtifactError(
                f"bucket rows [{row_start}, {row_stop}) expected {hi - lo} "
                f"entries, got {src.size}"
            )
        indices_out[lo:hi] = dst.astype(indices_out.dtype)
        forward = dst > src
        if forward.any():
            hasher.add_sorted_int_edges(src[forward], dst[forward])


# ----------------------------------------------------------------------
# conversion from the in-memory representation
# ----------------------------------------------------------------------
def bigcsr_from_social_graph(
    graph,
    *,
    directory: Optional[str] = None,
    path: Optional[str] = None,
    memory_budget_bytes: int = DEFAULT_BUILD_BUDGET_BYTES,
) -> BigCSRGraph:
    """Persist an in-memory ``SocialGraph`` as a BigCSR artifact.

    The graph's users must be exactly the contiguous ints
    ``0 .. num_users-1`` (the canonical form every synthetic generator
    produces); arbitrary identifiers have no canonical dense row mapping
    and must be relabelled by the caller first.

    Raises:
        ValueError: when the user set is not contiguous ints from 0.
    """
    n = graph.num_users
    users = graph.stable_user_order()
    if list(users) != list(range(n)):
        raise ValueError(
            "bigcsr_from_social_graph requires users to be exactly the "
            f"ints 0..{n - 1}; relabel the graph first"
        )
    writer = BigCSRWriter(n, memory_budget_bytes=memory_budget_bytes)
    try:
        for u, v in graph.edges():
            writer.add_edge(int(u), int(v))
        return writer.finalize(directory=directory, path=path)
    except BaseException:
        writer.abort()
        raise
