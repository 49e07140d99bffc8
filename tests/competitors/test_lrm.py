"""Unit tests for the Low-Rank Mechanism adaptation."""

import math

import numpy as np
import pytest

from repro.competitors.lrm import LowRankMechanism
from repro.core.recommender import SocialRecommender
from repro.exceptions import InvalidEpsilonError
from repro.obs import telemetry
from repro.similarity.base import SimilarityCache
from repro.similarity.common_neighbors import CommonNeighbors


class TestFactorisation:
    def test_eps_inf_full_rank_reconstructs_exact(self, lastfm_small):
        """With no noise and full rank, B(LD) must reproduce W D exactly."""
        social, prefs = lastfm_small.social, lastfm_small.preferences
        lrm = LowRankMechanism(CommonNeighbors(), epsilon=math.inf, n=10)
        lrm.fit(social, prefs)
        exact = SocialRecommender(CommonNeighbors(), n=10).fit(social, prefs)
        for user in social.users()[:10]:
            estimates = lrm.utilities(user)
            for item, value in exact.utilities(user).items():
                assert estimates[item] == pytest.approx(value, abs=1e-6)

    def test_workload_rank_recorded(self, lastfm_small):
        lrm = LowRankMechanism(CommonNeighbors(), epsilon=1.0, n=10)
        lrm.fit(lastfm_small.social, lastfm_small.preferences)
        assert lrm.workload_rank_ is not None
        assert 1 <= lrm.rank_ <= lastfm_small.social.num_users

    def test_high_rank_workload_observed(self, lastfm_small):
        """The paper's observation: similarity workloads have high rank."""
        lrm = LowRankMechanism(CommonNeighbors(), epsilon=1.0, n=10)
        lrm.fit(lastfm_small.social, lastfm_small.preferences)
        assert lrm.workload_rank_ > 0.5 * lastfm_small.social.num_users

    def test_explicit_rank_truncation(self, lastfm_small):
        lrm = LowRankMechanism(CommonNeighbors(), epsilon=math.inf, n=10, rank=5)
        lrm.fit(lastfm_small.social, lastfm_small.preferences)
        assert lrm.rank_ == 5

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            LowRankMechanism(CommonNeighbors(), epsilon=1.0, rank=0)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilonError):
            LowRankMechanism(CommonNeighbors(), epsilon=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rank", 2.5),
            ("rank", True),
            ("rank", "3"),
            ("tolerance", math.nan),
            ("tolerance", math.inf),
            ("tolerance", -1e-9),
            ("tolerance", 1.0),
        ],
    )
    def test_invalid_parameter_rejected_by_the_constructor(self, name, value):
        with pytest.raises(ValueError, match=name):
            LowRankMechanism(CommonNeighbors(), epsilon=1.0, **{name: value})

    def test_numpy_integer_rank_accepted(self, lastfm_small):
        lrm = LowRankMechanism(
            CommonNeighbors(), epsilon=math.inf, n=10, rank=np.int64(5)
        )
        lrm.fit(lastfm_small.social, lastfm_small.preferences)
        assert lrm.rank_ == 5


class TestSharedWorkload:
    def test_fit_on_a_shared_svd_equals_a_fresh_fit(self, lastfm_small):
        """A fit reading the SVD that a fit of the other world at another
        epsilon computed releases exactly what a fit of its own does."""
        social, prefs = lastfm_small.social, lastfm_small.preferences
        owner = next(
            u for u in social.users() if prefs.has_user(u) and prefs.user_degree(u)
        )
        other_world = prefs.without_edge(owner, next(iter(prefs.items_of(owner))))
        measure = CommonNeighbors()
        cache = SimilarityCache(measure, social)
        LowRankMechanism(measure, epsilon=2.0, seed=4).fit(
            social, other_world, similarity=cache
        )
        with telemetry() as registry:
            shared = LowRankMechanism(measure, epsilon=0.5, seed=4).fit(
                social, prefs, similarity=cache
            )
        assert registry.counter("similarity.workload_svds") == 0
        assert registry.counter("compute.builds") == 0
        fresh = LowRankMechanism(CommonNeighbors(), epsilon=0.5, seed=4)
        fresh.fit(social, prefs)
        assert np.array_equal(shared._B, fresh._B)
        assert np.array_equal(shared._noisy_LD, fresh._noisy_LD)
        assert shared.rank_ == fresh.rank_
        assert shared.workload_rank_ == fresh.workload_rank_


class TestNoiseBehaviour:
    def test_noise_applied_in_compressed_space(self, lastfm_small):
        a = LowRankMechanism(CommonNeighbors(), epsilon=0.5, n=10, seed=1)
        b = LowRankMechanism(CommonNeighbors(), epsilon=0.5, n=10, seed=2)
        a.fit(lastfm_small.social, lastfm_small.preferences)
        b.fit(lastfm_small.social, lastfm_small.preferences)
        user = lastfm_small.social.users()[0]
        assert a.utilities(user) != b.utilities(user)

    def test_deterministic_given_seed(self, lastfm_small):
        def fitted(seed):
            lrm = LowRankMechanism(CommonNeighbors(), epsilon=0.5, n=10, seed=seed)
            lrm.fit(lastfm_small.social, lastfm_small.preferences)
            return lrm.utilities(lastfm_small.social.users()[0])

        assert fitted(5) == fitted(5)

    def test_unknown_user_gets_zero_vector(self, triangle_graph, small_preferences):
        lrm = LowRankMechanism(CommonNeighbors(), epsilon=1.0, n=3)
        lrm.fit(triangle_graph, small_preferences)
        # A user outside the workload (not in the social graph).
        assert set(lrm.utilities(999).values()) == {0.0}

    def test_recommend_returns_n_items(self, lastfm_small):
        lrm = LowRankMechanism(CommonNeighbors(), epsilon=1.0, n=5, seed=0)
        lrm.fit(lastfm_small.social, lastfm_small.preferences)
        user = lastfm_small.social.users()[2]
        assert len(lrm.recommend(user)) == 5
