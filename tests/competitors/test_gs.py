"""Unit tests for the Group-and-Smooth adaptation."""

import math

import numpy as np
import pytest

from repro.competitors.gs import GroupAndSmooth, select_group_size
from repro.core.recommender import SocialRecommender
from repro.exceptions import InvalidEpsilonError
from repro.similarity.common_neighbors import CommonNeighbors


class TestGrouping:
    def test_eps_inf_group_size_one_matches_exact(self, lastfm_small):
        """m=1 and no noise: each 'group mean' is the true utility itself."""
        social, prefs = lastfm_small.social, lastfm_small.preferences
        gs = GroupAndSmooth(CommonNeighbors(), epsilon=math.inf, n=10, group_size=1)
        gs.fit(social, prefs)
        exact = SocialRecommender(CommonNeighbors(), n=10).fit(social, prefs)
        for user in social.users()[:8]:
            estimates = gs.utilities(user)
            for item, value in exact.utilities(user).items():
                assert estimates[item] == pytest.approx(value)

    def test_group_members_share_estimates(self, lastfm_small):
        """Within one item column, users in the same group have identical
        smoothed values, so the number of distinct values is bounded by
        ceil(|U| / m)."""
        social, prefs = lastfm_small.social, lastfm_small.preferences
        m = 10
        gs = GroupAndSmooth(CommonNeighbors(), epsilon=math.inf, n=10, group_size=m)
        gs.fit(social, prefs)
        column = gs._estimates[:, 0]
        distinct = len(set(float(v) for v in column))
        assert distinct <= math.ceil(social.num_users / m)

    def test_smoothing_reduces_to_group_means(self):
        """Hand-checkable: two users, group size 2, no noise."""
        from repro.graph.preference_graph import PreferenceGraph
        from repro.graph.social_graph import SocialGraph

        social = SocialGraph([(1, 2), (2, 3), (1, 3)])
        prefs = PreferenceGraph([(1, "a"), (2, "a")])
        prefs.add_user(3)
        gs = GroupAndSmooth(CommonNeighbors(), epsilon=math.inf, n=2, group_size=3)
        gs.fit(social, prefs)
        exact = SocialRecommender(CommonNeighbors(), n=2).fit(social, prefs)
        true_values = [exact.utilities(u).get("a", 0.0) for u in (1, 2, 3)]
        mean = sum(true_values) / 3
        for user in (1, 2, 3):
            assert gs.utilities(user)["a"] == pytest.approx(mean)

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            GroupAndSmooth(CommonNeighbors(), epsilon=1.0, group_size=0)

    @pytest.mark.parametrize("group_size", [2.5, True, math.nan, "8"])
    def test_non_integer_group_size_rejected_by_the_constructor(self, group_size):
        with pytest.raises(ValueError, match="group_size"):
            GroupAndSmooth(CommonNeighbors(), epsilon=1.0, group_size=group_size)

    def test_numpy_integer_group_size_accepted(self, lastfm_small):
        social, prefs = lastfm_small.social, lastfm_small.preferences
        gs = GroupAndSmooth(
            CommonNeighbors(), epsilon=math.inf, n=10, group_size=np.int64(1)
        )
        gs.fit(social, prefs)
        exact = SocialRecommender(CommonNeighbors(), n=10).fit(social, prefs)
        user = social.users()[0]
        for item, value in exact.utilities(user).items():
            assert gs.utilities(user)[item] == pytest.approx(value)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilonError):
            GroupAndSmooth(CommonNeighbors(), epsilon=0.0)


class TestNoise:
    def test_noise_varies_with_seed(self, lastfm_small):
        def fitted(seed):
            gs = GroupAndSmooth(
                CommonNeighbors(), epsilon=0.5, n=10, group_size=8, seed=seed
            )
            gs.fit(lastfm_small.social, lastfm_small.preferences)
            return gs.utilities(lastfm_small.social.users()[0])

        assert fitted(1) != fitted(2)

    def test_deterministic_given_seed(self, lastfm_small):
        def fitted(seed):
            gs = GroupAndSmooth(
                CommonNeighbors(), epsilon=0.5, n=10, group_size=8, seed=seed
            )
            gs.fit(lastfm_small.social, lastfm_small.preferences)
            return gs.utilities(lastfm_small.social.users()[0])

        assert fitted(3) == fitted(3)

    def test_unknown_user_zero_vector(self, triangle_graph, small_preferences):
        gs = GroupAndSmooth(CommonNeighbors(), epsilon=1.0, n=3, group_size=2)
        gs.fit(triangle_graph, small_preferences)
        assert set(gs.utilities(999).values()) == {0.0}


class TestGroupSizeSelection:
    def test_select_group_size_returns_candidate(self, lastfm_small):
        social, prefs = lastfm_small.social, lastfm_small.preferences
        exact = SocialRecommender(CommonNeighbors(), n=10).fit(social, prefs)
        users = social.users()[:10]
        reference = {u: exact.recommend(u).item_ids() for u in users}
        ideal = {u: exact.utilities(u) for u in users}
        chosen = select_group_size(
            lambda m: GroupAndSmooth(
                CommonNeighbors(), epsilon=0.5, n=10, group_size=m, seed=0
            ),
            candidate_sizes=[2, 8],
            social=social,
            preferences=prefs,
            reference_rankings=reference,
            ideal_utilities=ideal,
            n=10,
            users=users,
        )
        assert chosen in (2, 8)

    def test_empty_candidates_rejected(self, lastfm_small):
        with pytest.raises(ValueError):
            select_group_size(
                lambda m: None,
                candidate_sizes=[],
                social=None,
                preferences=None,
                reference_rankings={},
                ideal_utilities={},
                n=10,
            )
