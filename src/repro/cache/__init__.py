"""Persistent caching of public-graph similarity kernels.

The utility/privacy trade-off of the framework depends only on the
released noisy aggregates; the all-pairs similarity matrices that batch
serving multiplies against them are pure functions of *public* inputs.
This package therefore caches those kernels on disk — content-addressed
and checksummed — and reuses them across runs and processes at zero
privacy cost.

- :mod:`repro.cache.keys` — content-hash keys over graph structure and
  measure parameters.
- :mod:`repro.cache.store` — the artifact format and the
  :class:`~repro.cache.store.SimilarityStore` front-end (LRU, counters,
  info/prune), and :func:`~repro.cache.store.load_or_build_kernel`, the
  one "store hit, else build and persist" entry point.
"""

from repro.cache.keys import (
    KERNEL_FORMAT_VERSION,
    graph_fingerprint,
    measure_fingerprint,
    similarity_cache_key,
)
from repro.cache.store import (
    CacheEntry,
    CacheLookup,
    SimilarityStore,
    load_kernel_artifact,
    load_or_build_kernel,
    save_kernel_artifact,
)

__all__ = [
    "KERNEL_FORMAT_VERSION",
    "CacheEntry",
    "CacheLookup",
    "SimilarityStore",
    "graph_fingerprint",
    "load_kernel_artifact",
    "load_or_build_kernel",
    "measure_fingerprint",
    "save_kernel_artifact",
    "similarity_cache_key",
]
