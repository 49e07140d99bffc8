"""Global-sensitivity calculators for social-recommendation workloads.

Adding or removing one preference edge ``(v, i)`` changes:

- every utility query ``mu_u^i`` with ``v in sim(u)`` by ``sim(u, v)``, so
  the joint L1 sensitivity of the per-item utility vector released by NOU is
  ``max_v sum_u sim(u, v)`` — the largest *column* sum of the similarity
  workload (:func:`utility_query_sensitivity`).  For most measures this is
  driven by the highest-degree user, which is why NOU drowns the signal.
- exactly one edge weight, by 1, for NOE
  (:func:`edge_weight_sensitivity`).
- exactly one cluster average, by ``1/|c|``, for the proposed framework
  (:func:`cluster_average_sensitivity`).

These are the quantities Theorems 1/3 calibrate the Laplace noise against.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.community.clustering import Clustering
from repro.graph.social_graph import SocialGraph
from repro.similarity.base import SimilarityCache, SimilarityMeasure
from repro.types import UserId

__all__ = [
    "utility_query_sensitivity",
    "edge_weight_sensitivity",
    "cluster_average_sensitivity",
    "similarity_column_sums",
    "column_sums",
]


def column_sums(rows: sp.spmatrix, users: Sequence[UserId]) -> Dict[UserId, float]:
    """``sum_u rows[u, v]`` for the user ``v`` of every column.

    Each column accumulates down ``rows`` in row order, one sequential
    pass over the CSR entries.
    """
    rows = sp.csr_matrix(rows)
    sums = np.bincount(rows.indices, weights=rows.data, minlength=len(users))
    return {user: float(sums[i]) for i, user in enumerate(users)}


def similarity_column_sums(
    graph: SocialGraph,
    measure: SimilarityMeasure,
    cache: Optional[SimilarityCache] = None,
) -> Dict[UserId, float]:
    """``sum_u sim(u, v)`` for every user ``v``.

    This is how much total utility mass a single user's preference edge can
    inject across all other users' queries for one item.  The sums read
    the cache's rows (:meth:`SimilarityCache.row_matrix`) and accumulate
    over ``u`` in ``graph.users()`` order.

    Args:
        graph: the social graph.
        measure: the similarity measure (ignored when ``cache`` is given).
        cache: optional pre-warmed row cache to reuse.
    """
    if cache is None:
        cache = SimilarityCache(measure, graph)
    users = graph.users()
    sums = column_sums(cache.row_matrix(users), cache.column_users())
    return {user: sums[user] for user in users}


def utility_query_sensitivity(
    graph: SocialGraph,
    measure: SimilarityMeasure,
    cache: Optional[SimilarityCache] = None,
) -> float:
    """Global sensitivity of the per-item utility vector (NOU's Delta).

    ``Delta_A = max_v sum_u sim(u, v)`` — the paper's Section 5.1.1.
    Returns 0.0 for an empty graph.
    """
    sums = similarity_column_sums(graph, measure, cache=cache)
    if not sums:
        return 0.0
    return max(sums.values())


def edge_weight_sensitivity() -> float:
    """Sensitivity of a single unweighted preference edge (NOE's Delta): 1."""
    return 1.0


def cluster_average_sensitivity(
    clustering: Clustering, cluster_index: int
) -> float:
    """Sensitivity of one cluster's average edge weight: ``1/|c|``.

    Adding/removing one preference edge changes exactly one cluster's
    average (the cluster holding the edge's user), by at most ``1/|c|`` —
    the key quantity in Algorithm 1's noise calibration.
    """
    return 1.0 / clustering.size_of(cluster_index)
