"""Unit tests for the private social recommender (Algorithm 1)."""

import math

import pytest

from repro.community.clustering import Clustering
from repro.community.strategies import singleton_clustering
from repro.core.private import PrivateSocialRecommender, louvain_strategy
from repro.core.recommender import SocialRecommender
from repro.exceptions import InvalidEpsilonError
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph
from repro.obs import PrivacyLedgerView, telemetry
from repro.similarity.common_neighbors import CommonNeighbors


class TestFit:
    def test_clustering_exposed_after_fit(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=1.0, n=5)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        assert rec.clustering_ is not None
        assert rec.clustering_.users() >= set(lastfm_small.social.users())

    def test_default_strategy_is_louvain(self, two_communities_graph):
        prefs = PreferenceGraph([(0, "x"), (4, "y")])
        for u in two_communities_graph.users():
            prefs.add_user(u)
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=math.inf, n=5)
        rec.fit(two_communities_graph, prefs)
        assert rec.clustering_ == Clustering([[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_custom_strategy_used(self, triangle_graph, small_preferences):
        marker = Clustering([[1, 2, 3]])
        rec = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=1.0,
            n=5,
            clustering_strategy=lambda g: marker,
        )
        rec.fit(triangle_graph, small_preferences)
        assert rec.clustering_ is marker

    def test_preference_only_users_get_singletons(self, triangle_graph):
        prefs = PreferenceGraph([(1, "a"), (9, "b")])  # 9 not in social graph
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=1.0, n=5)
        rec.fit(triangle_graph, prefs)
        assert 9 in rec.clustering_
        assert rec.clustering_.size_of(rec.clustering_.cluster_of(9)) == 1

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilonError):
            PrivateSocialRecommender(CommonNeighbors(), epsilon=-1.0)

    def test_budget_accounting_parallel_composition(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.4, n=5)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        # One parallel charge per cluster and item: the cost is epsilon.
        assert rec.total_epsilon() == pytest.approx(0.4)

    def test_budget_zero_for_infinite_epsilon(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=math.inf, n=5)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        assert rec.total_epsilon() == 0.0

    def test_budget_zero_before_fit(self):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.4)
        assert rec.total_epsilon() == 0.0

    @pytest.mark.parametrize("protection", ["edge", "user"])
    @pytest.mark.parametrize("epsilon", [0.4, math.inf])
    def test_total_epsilon_is_what_the_ledger_composes(
        self, lastfm_small, epsilon, protection
    ):
        rec = PrivateSocialRecommender(
            CommonNeighbors(), epsilon=epsilon, n=5, protection=protection
        )
        with telemetry() as registry:
            rec.fit(lastfm_small.social, lastfm_small.preferences)
        view = PrivacyLedgerView(registry.ledger_entries)
        assert len(view.releases()) == (0 if math.isinf(epsilon) else 1)
        assert rec.total_epsilon() == view.total_epsilon()


class TestUtilityEstimates:
    def test_estimate_formula_at_eps_inf(self, triangle_graph, small_preferences):
        """mu_hat must equal sum_c sim_sum(u,c) * avg_c exactly (Eq. 4)."""
        clustering = Clustering([[1, 2], [3]])
        rec = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=math.inf,
            n=3,
            clustering_strategy=lambda g: clustering,
        )
        rec.fit(triangle_graph, small_preferences)
        # For user 3 (CN: sim=1 to both 1 and 2, both in cluster 0):
        # avg weight of "a" in cluster {1,2} is 1.0 => estimate 2*1 = 2.
        # avg of "b" is 0.5 => estimate 2*0.5 = 1. "c": avg 0 in c0, and
        # cluster {3} average is 1 but sim(3,3)=0 => estimate 0.
        utilities = rec.utilities(3)
        assert utilities["a"] == pytest.approx(2.0)
        assert utilities["b"] == pytest.approx(1.0)
        assert utilities["c"] == pytest.approx(0.0)

    def test_singleton_clustering_matches_exact_recommender(self, lastfm_small):
        """With singleton clusters and eps=inf, Algorithm 1 degenerates to
        the exact recommender — zero approximation error."""
        social, prefs = lastfm_small.social, lastfm_small.preferences
        private = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=math.inf,
            n=10,
            clustering_strategy=lambda g: singleton_clustering(g.users()),
        )
        private.fit(social, prefs)
        exact = SocialRecommender(CommonNeighbors(), n=10).fit(social, prefs)
        for user in social.users()[:15]:
            estimates = private.utilities(user)
            truth = exact.utilities(user)
            for item, value in truth.items():
                assert estimates[item] == pytest.approx(value)

    def test_all_items_receive_estimates(self, triangle_graph, small_preferences):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=1.0, n=3, seed=1)
        rec.fit(triangle_graph, small_preferences)
        assert set(rec.utilities(1)) == {"a", "b", "c"}

    def test_noise_varies_with_seed(self, triangle_graph, small_preferences):
        def fitted(seed):
            rec = PrivateSocialRecommender(
                CommonNeighbors(), epsilon=0.1, n=3, seed=seed
            )
            rec.fit(triangle_graph, small_preferences)
            return rec.utilities(1)

        assert fitted(1) != fitted(2)

    def test_deterministic_given_seed(self, triangle_graph, small_preferences):
        def fitted(seed):
            rec = PrivateSocialRecommender(
                CommonNeighbors(), epsilon=0.1, n=3, seed=seed
            )
            rec.fit(triangle_graph, small_preferences)
            return rec.utilities(1)

        assert fitted(7) == fitted(7)


class TestRecommend:
    def test_vector_path_matches_dict_path(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, n=10, seed=3)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        user = lastfm_small.social.users()[0]
        fast = rec.recommend(user, n=10)
        scores = rec.utilities(user)
        slow_sorted = sorted(scores.items(), key=lambda kv: -kv[1])[:10]
        assert [u for _, u in zip(fast.item_ids(), [s for s, _ in slow_sorted])]
        assert fast.utilities() == pytest.approx([v for _, v in slow_sorted])

    def test_recommend_respects_n(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=1.0, n=7)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        user = lastfm_small.social.users()[0]
        assert len(rec.recommend(user)) == 7
        assert len(rec.recommend(user, n=3)) == 3

    def test_invalid_n_at_recommend(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=1.0, n=5)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        with pytest.raises(ValueError):
            rec.recommend(lastfm_small.social.users()[0], n=0)

    def test_high_epsilon_close_to_exact(self, lastfm_small):
        """With very weak privacy the private top-10 nearly matches exact."""
        from repro.metrics.ndcg import ndcg_at_n

        social, prefs = lastfm_small.social, lastfm_small.preferences
        exact = SocialRecommender(CommonNeighbors(), n=10).fit(social, prefs)
        private = PrivateSocialRecommender(
            CommonNeighbors(), epsilon=math.inf, n=10, seed=0
        )
        private.fit(social, prefs)
        scores = []
        for user in social.users()[:25]:
            scores.append(
                ndcg_at_n(
                    private.recommend(user).item_ids(),
                    exact.recommend(user).item_ids(),
                    exact.utilities(user),
                    10,
                )
            )
        assert sum(scores) / len(scores) > 0.85


class TestPrivacySemantics:
    def test_neighbouring_graph_changes_one_cluster_average(self):
        """Adding one preference edge shifts exactly one (item, cluster)
        cell of the released matrix by 1/|c| — the sensitivity the noise is
        calibrated to."""
        social = SocialGraph([(1, 2), (3, 4)])
        clustering = Clustering([[1, 2], [3, 4]])
        prefs1 = PreferenceGraph()
        prefs1.add_users([1, 2, 3, 4])
        prefs1.add_edge(1, "a")
        prefs1.add_item("b")
        prefs2 = prefs1.with_edge(2, "a")

        def fitted(prefs):
            rec = PrivateSocialRecommender(
                CommonNeighbors(),
                epsilon=0.5,
                n=2,
                clustering_strategy=lambda g: clustering,
                seed=11,
            )
            rec.fit(social, prefs)
            return rec.noisy_weights_

        w1, w2 = fitted(prefs1), fitted(prefs2)
        diff = w2.matrix - w1.matrix
        changed = (abs(diff) > 1e-12).sum()
        assert changed == 1
        assert diff[w1.item_index["a"], 0] == pytest.approx(0.5)

    def test_repr(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, n=5)
        assert "epsilon=0.5" in repr(rec)
