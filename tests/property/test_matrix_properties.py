"""Property-based cross-validation of the vectorised similarity engine.

Two independent implementations of every measure — per-user BFS rows and
sparse matrix algebra — must agree on arbitrary graphs.  Hypothesis
explores graph shapes the unit tests never hand-pick (multi-component,
near-complete, stars within stars, ...).
"""

import pytest
from hypothesis import given, settings

from repro.compute import build_kernel
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz

from tests.property.strategies import social_graphs


def _assert_agree(matrix, measure, graph):
    for u in graph.users():
        expected = measure.similarity_row(graph, u)
        actual = matrix.row(u)
        assert set(actual) == set(expected), u
        for v, score in expected.items():
            assert actual[v] == pytest.approx(score), (u, v)


class TestCrossImplementationAgreement:
    @given(graph=social_graphs(max_users=10, max_extra_edges=25))
    @settings(max_examples=40, deadline=None)
    def test_common_neighbors(self, graph):
        _assert_agree(build_kernel(graph, CommonNeighbors()), CommonNeighbors(), graph)

    @given(graph=social_graphs(max_users=10, max_extra_edges=25))
    @settings(max_examples=40, deadline=None)
    def test_adamic_adar(self, graph):
        _assert_agree(build_kernel(graph, AdamicAdar()), AdamicAdar(), graph)

    @given(graph=social_graphs(max_users=10, max_extra_edges=25))
    @settings(max_examples=40, deadline=None)
    def test_graph_distance(self, graph):
        measure = GraphDistance(max_distance=2)
        _assert_agree(build_kernel(graph, measure), measure, graph)

    @given(graph=social_graphs(max_users=9, max_extra_edges=20))
    @settings(max_examples=40, deadline=None)
    def test_katz_three_hops(self, graph):
        measure = Katz(max_length=3, alpha=0.05)
        _assert_agree(build_kernel(graph, measure), measure, graph)

    @given(graph=social_graphs(max_users=10, max_extra_edges=25))
    @settings(max_examples=30, deadline=None)
    def test_matrices_symmetric(self, graph):
        matrix = build_kernel(graph, CommonNeighbors()).matrix
        difference = matrix - matrix.T
        worst = abs(difference).max() if difference.nnz else 0.0
        assert worst == 0.0
