"""Vectorised sparse compute for similarity kernels.

``repro.compute`` is the construction-speed layer: :func:`build_kernel`
builds every registered measure's all-pairs similarity kernel on scipy
CSR algebra, one row block at a time, for
:class:`~repro.similarity.base.SimilarityCache`, the recommenders,
:func:`~repro.core.batch.batch_recommend_all`, the sweep engine, and the
CLI.
"""

from repro.compute.adjacency import (
    CSRAdjacency,
    adjacency_csr,
    clear_adjacency_cache,
)
from repro.compute.kernels import DEFAULT_BLOCK_SIZE, build_kernel

__all__ = [
    "CSRAdjacency",
    "DEFAULT_BLOCK_SIZE",
    "adjacency_csr",
    "build_kernel",
    "clear_adjacency_cache",
]
