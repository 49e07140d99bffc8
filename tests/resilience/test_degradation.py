"""Unit tests for the serving degradation ladder."""

import numpy as np
import pytest

from repro.community.clustering import Clustering
from repro.core.cluster_weights import NoisyClusterWeights
from repro.core.persistence import PublishedRelease
from repro.core.private import PrivateSocialRecommender
from repro.core.scoring import ladder_estimates
from repro.graph.social_graph import SocialGraph
from repro.resilience.degradation import (
    DEGRADATION_LADDER,
    TIER_CLUSTER,
    TIER_EMPTY,
    TIER_GLOBAL,
    TIER_PERSONALIZED,
)
from repro.similarity.common_neighbors import CommonNeighbors


def make_weights(matrix, items, clusters):
    matrix = np.asarray(matrix, dtype=float)
    return NoisyClusterWeights(
        matrix=matrix,
        items=list(items),
        item_index={item: i for i, item in enumerate(items)},
        clustering=Clustering(clusters),
        epsilon=1.0,
    )


def _ladder(weights, user):
    """The ladder's ``(estimates, tier)`` for ``user`` of a release."""
    clustering = weights.clustering
    column = clustering.cluster_of(user) if user in clustering else -1
    sizes = np.asarray(clustering.sizes(), dtype=float)
    return ladder_estimates(weights.matrix, column, sizes)


class TestDegradationEstimates:
    def test_ladder_order(self):
        assert DEGRADATION_LADDER == (
            TIER_PERSONALIZED, TIER_CLUSTER, TIER_GLOBAL, TIER_EMPTY
        )

    def test_clustered_user_gets_own_cluster_column(self):
        weights = make_weights(
            [[1.0, 10.0], [2.0, 20.0]], ["a", "b"], [[1, 2], [3]]
        )
        estimates, tier = _ladder(weights, 3)
        assert tier == TIER_CLUSTER
        assert np.allclose(estimates, [10.0, 20.0])

    def test_unknown_user_gets_size_weighted_mean(self):
        weights = make_weights(
            [[1.0, 10.0], [2.0, 20.0]], ["a", "b"], [[1, 2], [3]]
        )
        estimates, tier = _ladder(weights, "stranger")
        assert tier == TIER_GLOBAL
        # clusters of size 2 and 1: mean = (2*col0 + 1*col1) / 3
        assert np.allclose(estimates, [(2 * 1.0 + 10.0) / 3, (2 * 2.0 + 20.0) / 3])

    def test_empty_release_reports_empty_tier(self):
        weights = make_weights(np.zeros((0, 1)), [], [[1]])
        estimates, tier = _ladder(weights, 1)
        assert tier == TIER_EMPTY
        assert estimates is None


@pytest.fixture
def fitted(lastfm_small):
    rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, n=10, seed=3)
    rec.fit(lastfm_small.social, lastfm_small.preferences)
    return rec


class TestServerTiers:
    def test_connected_user_served_personalized(self, fitted, lastfm_small):
        server = PublishedRelease.from_recommender(fitted).server(
            lastfm_small.social
        )
        # pick a user with neighbours so the similarity signal is non-zero
        user = max(lastfm_small.social.users(),
                   key=lastfm_small.social.degree)
        result = server.recommend(user, n=5)
        assert result.tier == TIER_PERSONALIZED
        assert not result.degraded

    def test_unknown_user_served_global(self, fitted, lastfm_small):
        server = PublishedRelease.from_recommender(fitted).server(
            lastfm_small.social
        )
        result = server.recommend("never-seen", n=5)
        assert result.tier == TIER_GLOBAL
        assert result.degraded
        assert 0 < len(result) <= 5

    def test_clustered_but_isolated_user_served_cluster(self, fitted, lastfm_small):
        """A user the release clustered, queried against a snapshot where
        they have no edges: cluster-popularity, not global."""
        user = lastfm_small.social.users()[0]
        lonely_graph = SocialGraph()
        lonely_graph.add_users([user])
        server = PublishedRelease.from_recommender(fitted).server(lonely_graph)
        result = server.recommend(user, n=5)
        assert result.tier == TIER_CLUSTER
        assert result.degraded

    def test_degenerate_release_serves_empty(self, triangle_graph):
        weights = NoisyClusterWeights(
            matrix=np.zeros((0, 0)),
            items=[],
            item_index={},
            clustering=Clustering([]),
            epsilon=1.0,
        )
        release = PublishedRelease(weights, "cn", 1.0)
        server = release.server(triangle_graph)
        result = server.recommend(1, n=5)
        assert result.tier == TIER_EMPTY
        assert len(result) == 0

    def test_truncation_preserves_tier(self, fitted, lastfm_small):
        server = PublishedRelease.from_recommender(fitted).server(
            lastfm_small.social
        )
        result = server.recommend("never-seen", n=5)
        assert result.truncated(2).tier == result.tier


class TestRecommenderLadder:
    def test_unknown_user_degrades_instead_of_raising(self, fitted):
        result = fitted.recommend("never-seen", n=5)
        assert result.tier == TIER_GLOBAL
        assert 0 < len(result) <= 5

    def test_degraded_serving_spends_no_epsilon(self, fitted):
        spent = fitted.total_epsilon()
        fitted.recommend("never-seen", n=5)
        fitted.recommend("another-stranger", n=5)
        assert fitted.total_epsilon() == spent

    def test_known_user_still_personalized(self, fitted, lastfm_small):
        user = max(lastfm_small.social.users(),
                   key=lastfm_small.social.degree)
        assert fitted.recommend(user, n=5).tier == TIER_PERSONALIZED
