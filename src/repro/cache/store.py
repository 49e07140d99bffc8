"""Persistent, checksummed storage for all-pairs similarity kernels.

Computing an all-pairs :class:`~repro.similarity.matrix.SimilarityMatrix`
is the dominant cost of batch serving, yet it reads only *public* data —
the social graph — so it can be cached on disk and reused across
processes, runs, and machines at zero privacy cost.  This module stores
each kernel as a single ``.npz`` artifact:

- **content-addressed** — the filename is the SHA-256 key from
  :mod:`repro.cache.keys`, so a changed graph or measure parameter maps
  to a different artifact instead of silently serving stale scores;
- **checksummed** — a SHA-256 digest over the CSR buffers and metadata is
  embedded and verified on load (the idiom of
  :mod:`repro.core.persistence`, format v2); corruption means *recompute*,
  never a crash and never wrong results;
- **atomic** — written to a sibling temp file, fsynced, then
  ``os.replace``d into place, so a crash leaves either the old artifact
  or none.

:class:`SimilarityStore` fronts the directory with a small in-memory LRU
and counts its lookups in the active telemetry registry
(``cache.memory_hit``, ``cache.disk_hit``, ``cache.miss``,
``cache.corrupt_recomputed``, ``cache.store``, ``cache.eviction``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cache.keys import (
    KERNEL_FORMAT_VERSION,
    measure_fingerprint,
    similarity_cache_key,
)
from repro.compute.kernels import build_kernel
from repro.exceptions import CacheIntegrityError
from repro.graph.protocol import GraphLike
from repro.obs.registry import incr as obs_incr
from repro.resilience.faults import fault_point
from repro.similarity.base import SimilarityMeasure
from repro.similarity.matrix import SimilarityMatrix

__all__ = [
    "CacheEntry",
    "CacheLookup",
    "SimilarityStore",
    "load_kernel_artifact",
    "load_or_build_kernel",
    "save_kernel_artifact",
]


def _buffer_digest(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, payload: bytes
) -> str:
    """SHA-256 over the three CSR buffers and the metadata payload."""
    digest = hashlib.sha256()
    for buffer in (data, indices, indptr):
        digest.update(np.ascontiguousarray(buffer).tobytes())
        digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()


def save_kernel_artifact(
    path: str,
    matrix: SimilarityMatrix,
    key: str,
    measure: SimilarityMeasure,
) -> None:
    """Atomically write ``matrix`` as a checksummed kernel artifact.

    The arrays are stored *uncompressed* (``np.savez``), so a load is a
    plain read with no inflate pass; similarity kernels are sparse enough
    that the size cost is small next to the recompute cost they avoid.

    Raises:
        OSError: for IO failures while writing.
    """
    csr = sp.csr_matrix(matrix.matrix)
    payload = json.dumps(
        {
            "version": KERNEL_FORMAT_VERSION,
            "kind": "similarity-kernel",
            "key": key,
            "measure": measure_fingerprint(measure),
            "users": list(matrix.users),
            "shape": list(csr.shape),
        }
    ).encode("utf-8")
    checksum = _buffer_digest(csr.data, csr.indices, csr.indptr, payload)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            np.savez(
                handle,
                data=csr.data,
                indices=csr.indices,
                indptr=csr.indptr,
                metadata=np.frombuffer(payload, dtype=np.uint8),
                checksum=np.frombuffer(checksum.encode("ascii"), dtype=np.uint8),
            )
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("cache.save.pre-replace", path=tmp_path)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def _read_kernel_arrays(path: str):
    """Read the raw artifact members, wrapping parse failures.

    Raises:
        OSError: for IO-level failures (missing file, transient EIO).
        CacheIntegrityError: for files that read but do not parse as a
            kernel artifact.
    """
    fault_point("cache.load", path=path)
    with open(path, "rb") as handle:
        raw = handle.read()
    # Parsed from memory, so every failure past the read is corruption:
    # a corrupt zip offset must not pass for a transient IO error.
    try:
        with np.load(io.BytesIO(raw)) as archive:
            data = np.asarray(archive["data"])
            indices = np.asarray(archive["indices"])
            indptr = np.asarray(archive["indptr"])
            payload = bytes(archive["metadata"])
            checksum = bytes(archive["checksum"]).decode("ascii")
    except Exception as exc:  # BadZipFile, KeyError, ValueError...
        raise CacheIntegrityError(
            f"cache artifact {path!r} is corrupt or not a kernel archive: {exc}"
        ) from exc
    return data, indices, indptr, payload, checksum


def load_kernel_artifact(path: str) -> Tuple[SimilarityMatrix, dict]:
    """Load and verify a kernel artifact written by :func:`save_kernel_artifact`.

    Returns the reconstructed matrix and the metadata dict.

    Raises:
        CacheIntegrityError: for corrupt archives, checksum mismatches,
            unparseable metadata, and unsupported versions.
        OSError: for IO-level read failures.
    """
    data, indices, indptr, payload, checksum = _read_kernel_arrays(path)
    expected = _buffer_digest(data, indices, indptr, payload)
    if checksum != expected:
        raise CacheIntegrityError(
            f"cache artifact {path!r} failed its checksum "
            f"(stored {checksum[:12]}..., computed {expected[:12]}...); "
            f"the artifact is corrupt"
        )
    try:
        metadata = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheIntegrityError(
            f"cache artifact {path!r} carries unparseable metadata: {exc}"
        ) from exc
    version = metadata.get("version")
    if version != KERNEL_FORMAT_VERSION:
        raise CacheIntegrityError(
            f"cache artifact {path!r} has kernel format {version!r}; "
            f"this build reads format {KERNEL_FORMAT_VERSION}"
        )
    try:
        users = list(metadata["users"])
        shape = tuple(metadata["shape"])
    except (KeyError, TypeError) as exc:
        raise CacheIntegrityError(
            f"cache artifact {path!r} has incomplete metadata: {exc!r}"
        ) from exc
    try:
        matrix = SimilarityMatrix.from_csr(
            sp.csr_matrix((data, indices, indptr), shape=shape), users
        )
    except ValueError as exc:
        raise CacheIntegrityError(
            f"cache artifact {path!r} has inconsistent dimensions: {exc}"
        ) from exc
    return matrix, metadata


@dataclass(frozen=True)
class CacheEntry:
    """What ``repro cache info`` reports about one artifact on disk."""

    path: str
    key: str
    measure: str
    num_users: int
    nnz: int
    size_bytes: int
    mtime: float
    ok: bool


@dataclass(frozen=True)
class CacheLookup:
    """The result of :meth:`SimilarityStore.get_or_compute`.

    Attributes:
        matrix: the kernel, from memory, disk, or a fresh computation.
        path: the on-disk artifact backing it, or None when no store
            holds it.
        hit: True when no recomputation happened.
    """

    matrix: SimilarityMatrix
    path: Optional[str]
    hit: bool


def load_or_build_kernel(
    graph: GraphLike,
    measure: SimilarityMeasure,
    store: Optional["SimilarityStore"] = None,
    *,
    build: Optional[Callable[[], SimilarityMatrix]] = None,
) -> CacheLookup:
    """The kernel for ``(graph, measure)``: a store hit, else a build.

    The one place a kernel is obtained.  The build — ``build()``, by
    default :func:`~repro.compute.build_kernel` — is persisted to
    ``store``; without a store it is the build alone, reported as a miss
    with no artifact path.
    """
    if build is None:

        def build() -> SimilarityMatrix:
            return build_kernel(graph, measure)

    if store is None:
        return CacheLookup(matrix=build(), path=None, hit=False)
    return store.get_or_compute(graph, measure, build)


class SimilarityStore:
    """A directory of kernel artifacts plus a bounded in-memory LRU.

    Args:
        directory: artifact directory; created on first use.
        max_memory_entries: in-process LRU capacity (kernels are a few
            MB at test scale but grow quadratically-ish with the graph,
            so the default keeps only a handful resident).
    """

    def __init__(self, directory: str, max_memory_entries: int = 4) -> None:
        if max_memory_entries < 0:
            raise ValueError(
                f"max_memory_entries must be >= 0, got {max_memory_entries}"
            )
        self.directory = directory
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, SimilarityMatrix]" = OrderedDict()

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key_for(self, graph: GraphLike, measure: SimilarityMeasure) -> str:
        """The content-hash key for ``(graph, measure)``."""
        return similarity_cache_key(graph, measure)

    def path_for(self, key: str) -> str:
        """Where the artifact for ``key`` lives (whether or not it exists)."""
        return os.path.join(self.directory, f"{key}.npz")

    # ------------------------------------------------------------------
    # the main entry point
    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        graph: GraphLike,
        measure: SimilarityMeasure,
        compute: Callable[[], SimilarityMatrix],
    ) -> CacheLookup:
        """The kernel for ``(graph, measure)``, computing and persisting on miss.

        Lookup order: in-memory LRU, then the on-disk artifact (checksum
        verified), then ``compute()``.  A corrupt artifact is deleted,
        recomputed, and rewritten — corruption costs time, never
        correctness.  The returned path always names a fresh, valid
        artifact.
        """
        key = self.key_for(graph, measure)
        path = self.path_for(key)
        cached = self._memory_get(key)
        if cached is not None:
            obs_incr("cache.memory_hit")
            return CacheLookup(matrix=cached, path=path, hit=True)
        corrupt = False
        if os.path.exists(path):
            try:
                matrix, _ = load_kernel_artifact(path)
                obs_incr("cache.disk_hit")
                self._memory_put(key, matrix)
                return CacheLookup(matrix=matrix, path=path, hit=True)
            except (CacheIntegrityError, OSError):
                corrupt = True
                try:
                    os.remove(path)
                except OSError:
                    pass
        matrix = compute()
        if corrupt:
            obs_incr("cache.corrupt_recomputed")
        obs_incr("cache.miss")
        self.put(key, matrix, measure)
        self._memory_put(key, matrix)
        return CacheLookup(matrix=matrix, path=path, hit=False)

    def put(
        self, key: str, matrix: SimilarityMatrix, measure: SimilarityMeasure
    ) -> str:
        """Persist ``matrix`` under ``key``; returns the artifact path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(key)
        save_kernel_artifact(path, matrix, key, measure)
        obs_incr("cache.store")
        return path

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def info(self) -> List[CacheEntry]:
        """One :class:`CacheEntry` per artifact, newest first.

        Unreadable artifacts are reported with ``ok=False`` rather than
        raising — ``repro cache info`` is a diagnostic, not a gate.
        """
        entries: List[CacheEntry] = []
        if not os.path.isdir(self.directory):
            return entries
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".npz"):
                continue
            path = os.path.join(self.directory, name)
            stat = os.stat(path)
            try:
                matrix, metadata = load_kernel_artifact(path)
                entries.append(
                    CacheEntry(
                        path=path,
                        key=metadata.get("key", name[: -len(".npz")]),
                        measure=metadata.get("measure", "?"),
                        num_users=len(matrix.users),
                        nnz=int(matrix.matrix.nnz),
                        size_bytes=stat.st_size,
                        mtime=stat.st_mtime,
                        ok=True,
                    )
                )
            except (CacheIntegrityError, OSError):
                entries.append(
                    CacheEntry(
                        path=path,
                        key=name[: -len(".npz")],
                        measure="?",
                        num_users=0,
                        nnz=0,
                        size_bytes=stat.st_size,
                        mtime=stat.st_mtime,
                        ok=False,
                    )
                )
        entries.sort(key=lambda entry: entry.mtime, reverse=True)
        return entries

    def prune(self, max_bytes: int = 0) -> Tuple[int, int]:
        """Delete artifacts, oldest first, until at most ``max_bytes`` remain.

        ``max_bytes=0`` (the default) empties the cache.  Corrupt
        artifacts are always deleted first.  Returns
        ``(files_removed, bytes_freed)``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.info()
        total = sum(entry.size_bytes for entry in entries)
        removed = 0
        freed = 0
        # Corrupt first, then oldest first.
        doomed = [e for e in entries if not e.ok]
        doomed += sorted(
            (e for e in entries if e.ok), key=lambda entry: entry.mtime
        )
        for entry in doomed:
            if total <= max_bytes and entry.ok:
                break
            try:
                os.remove(entry.path)
            except OSError:
                continue
            self._memory.pop(entry.key, None)
            total -= entry.size_bytes
            removed += 1
            freed += entry.size_bytes
        return removed, freed

    def clear_memory(self) -> None:
        """Drop the in-memory LRU (disk artifacts are untouched)."""
        self._memory.clear()

    # ------------------------------------------------------------------
    # LRU internals
    # ------------------------------------------------------------------
    def _memory_get(self, key: str) -> Optional[SimilarityMatrix]:
        matrix = self._memory.get(key)
        if matrix is not None:
            self._memory.move_to_end(key)
        return matrix

    def _memory_put(self, key: str, matrix: SimilarityMatrix) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = matrix
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            obs_incr("cache.eviction")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(directory={self.directory!r}, "
            f"entries={len(self._memory)}/{self.max_memory_entries})"
        )
