"""Unit tests for user-level protection in module A_w."""

import math

import numpy as np
import pytest

from repro.community.clustering import Clustering
from repro.core.cluster_weights import noisy_cluster_item_weights
from repro.core.private import PrivateSocialRecommender
from repro.exceptions import PrivacyError
from repro.graph.preference_graph import PreferenceGraph
from repro.similarity.common_neighbors import CommonNeighbors


@pytest.fixture
def prefs():
    g = PreferenceGraph()
    g.add_users([1, 2])
    for item in ("a", "b", "c", "d"):
        g.add_item(item)
    g.add_edge(1, "a")
    g.add_edge(1, "b")
    g.add_edge(1, "c")
    g.add_edge(2, "a")
    return g


@pytest.fixture
def clustering():
    return Clustering([[1, 2]])


class TestUserLevelSensitivity:
    def test_clamp_drops_excess_edges(self, prefs, clustering):
        result = noisy_cluster_item_weights(
            prefs, clustering, math.inf, protection="user", user_clamp=2
        )
        # User 1's first two items in graph order (a, b) survive; c drops.
        assert result.weight("a", 0) == pytest.approx(1.0)
        assert result.weight("b", 0) == pytest.approx(0.5)
        assert result.weight("c", 0) == pytest.approx(0.0)

    def test_within_clamp_matches_edge_level(self, prefs, clustering):
        user_level = noisy_cluster_item_weights(
            prefs, clustering, math.inf, protection="user", user_clamp=10
        )
        edge_level = noisy_cluster_item_weights(prefs, clustering, math.inf)
        assert np.array_equal(user_level.matrix, edge_level.matrix)

    def test_removing_whole_user_shifts_within_bound(self, prefs, clustering):
        """User-level neighbours: dropping all of user 1's edges changes
        the released (noise-free) matrix by at most user_clamp/|c| in L1."""
        clamp = 2
        without = prefs.copy()
        for item in ("a", "b", "c"):
            without.remove_edge(1, item)
        a = noisy_cluster_item_weights(
            prefs, clustering, math.inf, protection="user", user_clamp=clamp
        )
        b = noisy_cluster_item_weights(
            without, clustering, math.inf, protection="user", user_clamp=clamp
        )
        l1 = float(np.abs(a.matrix - b.matrix).sum())
        assert l1 <= clamp / 2 + 1e-12  # |c| = 2

    def test_user_level_noise_larger(self, prefs, clustering):
        """At the same epsilon, user-level noise must be clamp times the
        edge-level noise (identical RNG stream makes this exact)."""
        clamp = 4
        edge = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(3)
        )
        user = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(3),
            protection="user", user_clamp=clamp,
        )
        exact = noisy_cluster_item_weights(prefs, clustering, math.inf)
        edge_noise = edge.matrix - exact.matrix
        user_noise = user.matrix - exact.matrix
        assert np.allclose(user_noise, clamp * edge_noise)

    def test_invalid_protection_rejected(self, prefs, clustering):
        with pytest.raises(PrivacyError):
            noisy_cluster_item_weights(
                prefs, clustering, 1.0, protection="household"
            )

    def test_invalid_clamp_rejected(self, prefs, clustering):
        with pytest.raises(PrivacyError):
            noisy_cluster_item_weights(
                prefs, clustering, 1.0, protection="user", user_clamp=0
            )

    @pytest.mark.parametrize("clamp", [math.nan, math.inf, 2.5, 2.0, True, "2"])
    def test_clamp_must_be_an_integer(self, prefs, clustering, clamp):
        # NaN compares false against the bound and skips the clamp; a
        # fractional clamp would fail slicing with a raw TypeError.
        with pytest.raises(PrivacyError, match="user_clamp"):
            noisy_cluster_item_weights(
                prefs, clustering, 1.0, protection="user", user_clamp=clamp
            )

    def test_numpy_integer_clamp_accepted(self, prefs, clustering):
        numpy_clamp = noisy_cluster_item_weights(
            prefs, clustering, math.inf, protection="user", user_clamp=np.int64(2)
        )
        plain = noisy_cluster_item_weights(
            prefs, clustering, math.inf, protection="user", user_clamp=2
        )
        assert np.array_equal(numpy_clamp.matrix, plain.matrix)


class TestUserLevelRecommender:
    @pytest.mark.parametrize(
        "params",
        [
            {"max_weight": math.nan},
            {"max_weight": math.inf},
            {"protection": "user", "user_clamp": math.nan},
            {"protection": "user", "user_clamp": 2.5},
        ],
    )
    def test_fit_rejects_a_non_finite_or_fractional_bound(self, lastfm_small, params):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=1.0, **params)
        with pytest.raises(PrivacyError):
            rec.fit(lastfm_small.social, lastfm_small.preferences)
        assert rec.noisy_weights_ is None

    def test_end_to_end(self, lastfm_small):
        rec = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=0.5,
            n=10,
            seed=0,
            protection="user",
            user_clamp=40,
        )
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        user = lastfm_small.social.users()[0]
        assert len(rec.recommend(user)) == 10
        assert rec.total_epsilon() == pytest.approx(0.5)

    def test_user_level_costs_accuracy(self, lastfm_small):
        """Group privacy is strictly harder: at matched epsilon the
        user-level recommender cannot beat the edge-level one by much and
        typically loses clearly."""
        from repro.experiments.evaluation import (
            EvaluationContext,
            evaluate_recommender,
        )

        context = EvaluationContext.build(
            lastfm_small, CommonNeighbors(), max_n=20
        )
        edge = evaluate_recommender(
            context,
            PrivateSocialRecommender(
                CommonNeighbors(), epsilon=0.5, n=20, seed=1
            ),
            20,
        )
        user = evaluate_recommender(
            context,
            PrivateSocialRecommender(
                CommonNeighbors(), epsilon=0.5, n=20, seed=1,
                protection="user", user_clamp=40,
            ),
            20,
        )
        assert user <= edge + 0.02
