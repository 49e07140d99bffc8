"""Unit tests for the global-sensitivity calculators."""

import pytest

from repro.community.clustering import Clustering
from repro.core.cluster_weights import cluster_item_averages
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph
from repro.privacy.sensitivity import (
    edge_weight_sensitivity,
    similarity_column_sums,
    utility_query_sensitivity,
)
from repro.similarity.base import SimilarityCache
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance


class TestColumnSums:
    def test_triangle_cn(self, triangle_graph):
        sums = similarity_column_sums(triangle_graph, CommonNeighbors())
        # Every pair shares exactly one neighbor, so each column sums to 2.
        assert sums == {1: 2.0, 2: 2.0, 3: 2.0}

    def test_star_gd(self, star_graph):
        sums = similarity_column_sums(star_graph, GraphDistance(max_distance=2))
        # The hub is at distance 1 from each of 5 leaves: column sum 5.
        assert sums[0] == pytest.approx(5.0)
        # Each leaf: distance 1 from hub + distance 2 from 4 leaves = 1+4*0.5.
        assert sums[1] == pytest.approx(3.0)

    def test_reuses_provided_cache(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        cache.precompute()
        sums = similarity_column_sums(triangle_graph, CommonNeighbors(), cache=cache)
        assert sums[1] == 2.0


class TestUtilityQuerySensitivity:
    def test_is_max_column_sum(self, star_graph):
        delta = utility_query_sensitivity(star_graph, GraphDistance(max_distance=2))
        assert delta == pytest.approx(5.0)

    def test_empty_graph_zero(self):
        assert utility_query_sensitivity(SocialGraph(), CommonNeighbors()) == 0.0

    def test_grows_with_hub_degree(self):
        small_star = SocialGraph([(0, i) for i in range(1, 4)])
        big_star = SocialGraph([(0, i) for i in range(1, 10)])
        measure = CommonNeighbors()
        assert utility_query_sensitivity(big_star, measure) > utility_query_sensitivity(
            small_star, measure
        )

    def test_matches_bruteforce(self, lastfm_small):
        g = lastfm_small.social
        measure = CommonNeighbors()
        delta = utility_query_sensitivity(g, measure)
        brute = max(
            sum(measure.similarity(g, u, v) for u in g.users())
            for v in list(g.users())[:40]
        )
        assert delta >= brute - 1e-9


class TestSimpleSensitivities:
    def test_edge_weight_sensitivity(self):
        assert edge_weight_sensitivity() == 1.0

    def test_cluster_average_sensitivity(self):
        # One edge moves one cluster average by W/|c| (user_clamp * W/|c|
        # under user-level protection): the Laplace scale at epsilon = 1.
        clustering = Clustering([[1, 2, 3, 4], [5]])
        prefs = PreferenceGraph([(1, "a"), (5, "b")])

        def scales(**params):
            averages = cluster_item_averages(prefs, clustering, **params)
            return averages.laplace_scales(1.0).tolist()

        assert scales() == [0.25, 1.0]
        assert scales(max_weight=2.0) == [0.5, 2.0]
        assert scales(protection="user", user_clamp=3) == [0.75, 3.0]
