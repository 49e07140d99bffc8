"""Unit tests for the shared BaseRecommender machinery."""

import numpy as np
import pytest

from repro.core.base import BaseRecommender, NotFittedError
from repro.graph.preference_graph import PreferenceGraph
from repro.similarity.base import SimilarityCache
from repro.similarity.common_neighbors import CommonNeighbors


class _Stub(BaseRecommender):
    """Minimal concrete recommender: utility = fixed vector per item."""

    def __init__(self, vector, **kwargs):
        super().__init__(CommonNeighbors(), **kwargs)
        self._vector = np.asarray(vector, dtype=float)

    def utilities(self, user):
        return {
            item: float(self._vector[i])
            for i, item in enumerate(self.state.items)
        }

    def recommend_fast(self, user, n):
        return self._recommend_from_vector(user, self.state.items, self._vector, n)


@pytest.fixture
def fitted_stub(triangle_graph):
    prefs = PreferenceGraph()
    for item in ("a", "b", "c", "d"):
        prefs.add_item(item)
    prefs.add_users(triangle_graph.users())
    stub = _Stub([3.0, 1.0, 2.0, 1.0], n=4)
    stub.fit(triangle_graph, prefs)
    return stub


class TestVectorRanking:
    def test_orders_by_utility(self, fitted_stub):
        result = fitted_stub.recommend_fast(1, 4)
        assert result.item_ids() == ["a", "c", "b", "d"]

    def test_tie_break_by_item_position(self, fitted_stub):
        # b (index 1) and d (index 3) tie at 1.0; earlier index wins.
        result = fitted_stub.recommend_fast(1, 4)
        assert result.item_ids().index("b") < result.item_ids().index("d")

    def test_truncation(self, fitted_stub):
        assert len(fitted_stub.recommend_fast(1, 2)) == 2

    def test_n_larger_than_items(self, fitted_stub):
        assert len(fitted_stub.recommend_fast(1, 100)) == 4

    def test_empty_item_universe(self, triangle_graph):
        stub = _Stub([], n=3)
        stub.fit(triangle_graph, PreferenceGraph())
        assert len(stub.recommend_fast(1, 3)) == 0

    def test_matches_dict_path(self, fitted_stub):
        fast = fitted_stub.recommend_fast(1, 4)
        slow = fitted_stub.recommend(1, n=4)
        assert fast.utilities() == slow.utilities()


class TestFitContract:
    def test_state_raises_before_fit(self):
        stub = _Stub([1.0])
        with pytest.raises(NotFittedError):
            _ = stub.state

    def test_item_index_consistent(self, fitted_stub):
        state = fitted_stub.state
        for item, index in state.item_index.items():
            assert state.items[index] == item

    def test_invalid_n_constructor(self):
        with pytest.raises(ValueError):
            _Stub([1.0], n=0)

    def test_preference_only_users_supported(self, triangle_graph):
        prefs = PreferenceGraph([(99, "a")])  # user not in social graph
        stub = _Stub([1.0], n=1)
        stub.fit(triangle_graph, prefs)  # must not raise
        assert stub.is_fitted

    def test_social_graph_snapshot_is_same_object(self, triangle_graph):
        prefs = PreferenceGraph()
        prefs.add_item("a")
        stub = _Stub([1.0], n=1)
        stub.fit(triangle_graph, prefs)
        assert stub.state.social is triangle_graph

    def test_fit_shares_a_passed_cache(self, triangle_graph):
        prefs = PreferenceGraph([(1, "a")])
        stub = _Stub([1.0], n=1)
        shared = SimilarityCache(stub.measure, triangle_graph)
        stub.fit(triangle_graph, prefs, similarity=shared)
        assert stub.state.similarity is shared

    def test_fit_rejects_a_cache_over_another_graph_or_measure(
        self, triangle_graph, two_communities_graph
    ):
        prefs = PreferenceGraph([(1, "a")])
        stub = _Stub([1.0], n=1)
        for cache in (
            SimilarityCache(stub.measure, two_communities_graph),
            SimilarityCache(CommonNeighbors(), triangle_graph),
        ):
            with pytest.raises(ValueError, match="similarity"):
                stub.fit(triangle_graph, prefs, similarity=cache)
        assert not stub.is_fitted
