"""Cross-validation of the kernels :func:`repro.compute.build_kernel`
builds against the per-user measure classes — two independent
implementations of the same math guarding each other — and the
:class:`~repro.similarity.matrix.SimilarityMatrix` API they return."""

import pytest

from repro.compute import build_kernel
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import ResourceAllocation


def _assert_matches_measure(matrix, measure, graph, users=None):
    for u in users if users is not None else graph.users():
        expected = measure.similarity_row(graph, u)
        actual = matrix.row(u)
        assert set(actual) == set(expected), u
        for v, score in expected.items():
            assert actual[v] == pytest.approx(score), (u, v)


class TestAgainstMeasureClasses:
    def test_common_neighbors(self, lastfm_small):
        _assert_matches_measure(
            build_kernel(lastfm_small.social, CommonNeighbors()),
            CommonNeighbors(),
            lastfm_small.social,
        )

    def test_adamic_adar(self, lastfm_small):
        _assert_matches_measure(
            build_kernel(lastfm_small.social, AdamicAdar()),
            AdamicAdar(),
            lastfm_small.social,
        )

    def test_resource_allocation(self, lastfm_small):
        _assert_matches_measure(
            build_kernel(lastfm_small.social, ResourceAllocation()),
            ResourceAllocation(),
            lastfm_small.social,
        )

    def test_graph_distance(self, lastfm_small):
        _assert_matches_measure(
            build_kernel(lastfm_small.social, GraphDistance(max_distance=2)),
            GraphDistance(max_distance=2),
            lastfm_small.social,
        )

    def test_katz_length_3(self, lastfm_small):
        _assert_matches_measure(
            build_kernel(lastfm_small.social, Katz(max_length=3, alpha=0.05)),
            Katz(max_length=3, alpha=0.05),
            lastfm_small.social,
        )

    def test_katz_length_2(self, two_communities_graph):
        _assert_matches_measure(
            build_kernel(two_communities_graph, Katz(max_length=2, alpha=0.1)),
            Katz(max_length=2, alpha=0.1),
            two_communities_graph,
        )

    def test_katz_length_1(self, triangle_graph):
        _assert_matches_measure(
            build_kernel(triangle_graph, Katz(max_length=1, alpha=0.1)),
            Katz(max_length=1, alpha=0.1),
            triangle_graph,
        )


class TestMatrixApi:
    def test_similarity_lookup(self, triangle_graph):
        matrix = build_kernel(triangle_graph, CommonNeighbors())
        assert matrix.similarity(1, 2) == 1.0
        assert matrix.similarity(1, 1) == 0.0
        assert matrix.similarity(1, 99) == 0.0

    def test_column_sums_match_sensitivity_module(self, lastfm_small):
        from repro.privacy.sensitivity import similarity_column_sums

        matrix = build_kernel(lastfm_small.social, CommonNeighbors())
        expected = similarity_column_sums(lastfm_small.social, CommonNeighbors())
        actual = matrix.column_sums()
        assert actual == expected

    def test_unknown_user_empty_row(self, triangle_graph):
        matrix = build_kernel(triangle_graph, CommonNeighbors())
        assert matrix.row(99) == {}

    def test_invalid_katz_parameters(self, triangle_graph):
        with pytest.raises(ValueError):
            build_kernel(triangle_graph, Katz(max_length=4))
        with pytest.raises(ValueError):
            build_kernel(triangle_graph, Katz(alpha=1.5))

    def test_empty_graph(self):
        from repro.graph.social_graph import SocialGraph

        matrix = build_kernel(SocialGraph(), CommonNeighbors())
        assert matrix.users == []
        assert matrix.column_sums() == {}
