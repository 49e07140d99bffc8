"""Property tests: the vectorised compute layer equals the reference.

Two independent implementations guard each other — the per-user python
rows and the dict-based Louvain oracle are the semantic ground truth,
and the CSR/flat-array code must reproduce them (AA/RA rows within
1e-9, every other row and every partition exactly) on arbitrary graphs,
not just the fixtures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.louvain import louvain
from repro.compute.kernels import build_kernel
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import (
    CosineSimilarity,
    Jaccard,
    PreferentialAttachment,
    ResourceAllocation,
)

from tests.oracles import louvain as oracle

from .strategies import planted_graphs, social_graphs

MEASURES = [
    CommonNeighbors(),
    AdamicAdar(),
    ResourceAllocation(),
    GraphDistance(),
    GraphDistance(max_distance=3),
    Katz(),
    Jaccard(),
    CosineSimilarity(),
    PreferentialAttachment(),
]
MEASURE_IDS = ["cn", "aa", "ra", "gd2", "gd3", "kz", "jc", "cos", "pa"]


class TestKernelEquivalence:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    @given(graph=social_graphs())
    @settings(max_examples=20, deadline=None)
    def test_rows_match_python_measure(self, graph, measure):
        kernel = build_kernel(graph, measure)
        for user in graph.users():
            expected = measure.similarity_row(graph, user)
            actual = kernel.row(user)
            if measure.name not in ("aa", "ra"):
                assert actual == expected
                continue
            assert set(actual) == set(expected)
            for other, score in expected.items():
                assert actual[other] == pytest.approx(score, abs=1e-9)

    @given(graph=social_graphs(), block_size=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_block_size_never_changes_the_kernel(self, graph, block_size):
        reference = build_kernel(graph, CommonNeighbors())
        blocked = build_kernel(graph, CommonNeighbors(), block_size=block_size)
        assert (blocked.matrix != reference.matrix).nnz == 0


class TestLouvainEquivalence:
    @given(graph=social_graphs(max_users=16, max_extra_edges=30),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_identical_partitions(self, graph, seed):
        ref = oracle.louvain(graph, np.random.default_rng(seed))
        vec = louvain(graph, np.random.default_rng(seed))
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity
        assert vec.num_levels == ref.num_levels

    @given(graph=planted_graphs(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_planted_partitions_match_where_the_scan_skips(self, graph, seed):
        # Community structure settles most nodes within a pass or two, so
        # the scan skips a quarter to half of these visits.
        ref = oracle.louvain(graph, np.random.default_rng(seed))
        vec = louvain(graph, np.random.default_rng(seed))
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity
        assert vec.num_levels == ref.num_levels
