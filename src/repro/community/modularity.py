"""Modularity of a clustering (paper Eq. 8).

``Q(Phi) = sum_c [ |E_c| / |E_s| - (sum_{u in c} deg(u) / (2|E_s|))^2 ]``

(The paper's Eq. 8 writes ``|E_c| / 2|E_s|`` with ``E_c`` counting each
intra-cluster edge from both endpoints; we count undirected edges once and
divide by ``|E_s|``, which is the same quantity.)

Modularity compares the density of intra-cluster edges against the expected
density in a degree-preserving random rewiring; it is the objective the
Louvain method greedily maximises.
"""

from __future__ import annotations

import numpy as np

from repro.community.clustering import Clustering
from repro.exceptions import ClusteringError
from repro.graph.social_graph import SocialGraph

__all__ = ["label_modularity", "modularity"]


def modularity(graph: SocialGraph, clustering: Clustering) -> float:
    """The modularity ``Q`` of ``clustering`` on ``graph``.

    The per-cluster intra-edge and degree tallies run vectorised over the
    shared CSR adjacency export (integer counts, so the totals are exact);
    the final float accumulation visits clusters in ascending label order,
    matching the original pure-python loop bit for bit.

    Args:
        graph: the social graph.
        clustering: a partition covering exactly the graph's users.

    Returns:
        Q in [-0.5, 1.0]; 0.0 for a graph with no edges.

    Raises:
        ClusteringError: if the clustering does not cover the graph's users.
    """
    if clustering.users() != set(graph.users()):
        raise ClusteringError("clustering must cover exactly the graph's users")
    m = graph.num_edges
    if m == 0:
        return 0.0

    from repro.compute.adjacency import adjacency_csr

    adjacency = adjacency_csr(graph)
    cluster_of = clustering.cluster_of
    assignment = np.fromiter(
        (cluster_of(u) for u in adjacency.users), np.int64, adjacency.num_users
    )
    matrix = adjacency.matrix
    return label_modularity(
        matrix.indptr,
        matrix.indices,
        adjacency.degrees,
        assignment,
        clustering.num_clusters,
        m,
    )


def label_modularity(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    labels: np.ndarray,
    num_clusters: int,
    num_edges: int,
) -> float:
    """``Q`` of a ``0..num_clusters-1`` node labelling of a 0/1 adjacency.

    The arithmetic behind :func:`modularity`: per-cluster intra-edge
    counts and degree sums are integer tallies (exact in any node order),
    and the float accumulation visits clusters in ascending label order.
    So any two node numberings of one graph give the same ``Q``, bit for
    bit, for the same labels.

    Args:
        indptr, indices: the symmetric CSR adjacency, every undirected
            edge stored in both rows.
        degrees: per-node degree, aligned with the rows.
        labels: per-node cluster label.
        num_clusters: the number of labels.
        num_edges: ``|E_s|``, the number of undirected edges (> 0).
    """
    num_users = len(labels)
    degree_sum = np.bincount(labels, weights=degrees, minlength=num_clusters)
    src = np.repeat(np.arange(num_users), np.diff(indptr))
    upper = indices > src  # count each undirected edge once
    intra_edges = upper & (labels[src] == labels[indices])
    intra = np.bincount(
        labels[src[intra_edges]], minlength=num_clusters
    ).astype(np.float64)

    two_m = 2.0 * num_edges
    q = 0.0
    for c in range(num_clusters):
        q += float(intra[c]) / num_edges - (float(degree_sum[c]) / two_m) ** 2
    return q
