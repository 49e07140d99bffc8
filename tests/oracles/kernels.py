"""Reference kernel: one ``similarity_row`` call per user."""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.compute.adjacency import adjacency_csr
from repro.graph.protocol import GraphLike
from repro.similarity.base import SimilarityMeasure
from repro.similarity.matrix import SimilarityMatrix


def python_kernel(graph: GraphLike, measure: SimilarityMeasure) -> SimilarityMatrix:
    """The all-pairs kernel assembled from the measure's own rows.

    Rows follow the graph's stable user order, as
    :func:`repro.compute.build_kernel`'s do; each row's entries are
    stored in column order.
    """
    adj = adjacency_csr(graph)
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
    matrix = sp.csr_matrix((np.asarray(vals), (rows, cols)), shape=(n, n))
    return SimilarityMatrix.from_csr(matrix, adj.users)
