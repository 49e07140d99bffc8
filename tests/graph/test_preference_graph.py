"""Unit tests for the bipartite PreferenceGraph substrate."""

import math

import pytest

from repro.exceptions import EdgeError, ItemNotFoundError, NodeNotFoundError
from repro.graph.preference_graph import PreferenceGraph


class TestConstruction:
    def test_empty(self):
        g = PreferenceGraph()
        assert g.num_users == 0
        assert g.num_items == 0
        assert g.num_edges == 0

    def test_from_edge_iterable(self):
        g = PreferenceGraph([(1, "a"), (2, "a"), (2, "b")])
        assert g.num_users == 2
        assert g.num_items == 2
        assert g.num_edges == 3

    def test_default_weight_is_one(self):
        g = PreferenceGraph([(1, "a")])
        assert g.weight(1, "a") == 1.0

    def test_explicit_weight(self):
        g = PreferenceGraph()
        g.add_edge(1, "a", weight=4.5)
        assert g.weight(1, "a") == 4.5

    def test_overwrite_weight_keeps_edge_count(self):
        g = PreferenceGraph()
        g.add_edge(1, "a", weight=1.0)
        g.add_edge(1, "a", weight=3.0)
        assert g.num_edges == 1
        assert g.weight(1, "a") == 3.0

    def test_zero_weight_rejected(self):
        g = PreferenceGraph()
        with pytest.raises(EdgeError):
            g.add_edge(1, "a", weight=0.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -0.0])
    def test_non_finite_weight_rejected(self, weight):
        g = PreferenceGraph()
        with pytest.raises(EdgeError, match="finite and positive"):
            g.add_edge(1, "a", weight=weight)
        assert g.num_edges == 0

    def test_negative_weight_rejected(self):
        g = PreferenceGraph()
        with pytest.raises(EdgeError):
            g.add_edge(1, "a", weight=-2.0)

    def test_add_user_and_item_registration(self):
        g = PreferenceGraph()
        g.add_user(1)
        g.add_item("a")
        assert g.has_user(1)
        assert g.has_item("a")
        assert g.num_edges == 0


class TestWeightSemantics:
    def test_absent_edge_is_zero(self, small_preferences):
        assert small_preferences.weight(1, "c") == 0.0

    def test_unknown_user_weight_is_zero(self, small_preferences):
        assert small_preferences.weight(999, "a") == 0.0

    def test_unknown_item_weight_is_zero(self, small_preferences):
        assert small_preferences.weight(1, "zzz") == 0.0


class TestQueries:
    def test_items_of(self, small_preferences):
        assert small_preferences.items_of(1) == {"a": 1.0, "b": 1.0}

    def test_items_of_unknown_user(self, small_preferences):
        with pytest.raises(NodeNotFoundError):
            small_preferences.items_of(999)

    def test_users_of(self, small_preferences):
        assert small_preferences.users_of("a") == {1, 2}

    def test_users_of_unknown_item(self, small_preferences):
        with pytest.raises(ItemNotFoundError):
            small_preferences.users_of("zzz")

    def test_degrees(self, small_preferences):
        assert small_preferences.user_degree(1) == 2
        assert small_preferences.item_degree("a") == 2

    def test_degree_errors(self, small_preferences):
        with pytest.raises(NodeNotFoundError):
            small_preferences.user_degree(999)
        with pytest.raises(ItemNotFoundError):
            small_preferences.item_degree("zzz")

    def test_average_degrees(self, small_preferences):
        assert small_preferences.average_user_degree() == pytest.approx(4 / 3)
        assert small_preferences.average_item_degree() == pytest.approx(4 / 3)

    def test_average_degrees_empty(self):
        g = PreferenceGraph()
        assert g.average_user_degree() == 0.0
        assert g.average_item_degree() == 0.0

    def test_sparsity(self, small_preferences):
        # 3 users x 3 items = 9 cells, 4 edges.
        assert small_preferences.sparsity() == pytest.approx(1 - 4 / 9)

    def test_sparsity_empty(self):
        assert PreferenceGraph().sparsity() == 1.0

    def test_edges_iteration(self, small_preferences):
        edges = set(small_preferences.edges())
        assert edges == {(1, "a", 1.0), (1, "b", 1.0), (2, "a", 1.0), (3, "c", 1.0)}


class TestRemoval:
    def test_remove_edge(self, small_preferences):
        small_preferences.remove_edge(1, "a")
        assert not small_preferences.has_edge(1, "a")
        assert small_preferences.num_edges == 3
        assert small_preferences.users_of("a") == {2}

    def test_remove_missing_edge_raises(self, small_preferences):
        with pytest.raises(EdgeError):
            small_preferences.remove_edge(2, "b")

    def test_remove_edge_unknown_endpoints(self, small_preferences):
        with pytest.raises(NodeNotFoundError):
            small_preferences.remove_edge(999, "a")
        with pytest.raises(ItemNotFoundError):
            small_preferences.remove_edge(1, "zzz")


class TestTransformations:
    def test_thresholded_drops_weak_edges_and_binarises(self):
        g = PreferenceGraph()
        g.add_edge(1, "a", weight=1.0)
        g.add_edge(1, "b", weight=2.0)
        g.add_edge(2, "a", weight=5.0)
        out = g.thresholded(2.0)
        assert not out.has_edge(1, "a")
        assert out.weight(1, "b") == 1.0
        assert out.weight(2, "a") == 1.0

    def test_thresholded_preserves_universe(self):
        g = PreferenceGraph()
        g.add_edge(1, "a", weight=1.0)
        out = g.thresholded(2.0)
        assert out.has_user(1)
        assert out.has_item("a")
        assert out.num_edges == 0

    def test_restricted_to_users(self, small_preferences):
        out = small_preferences.restricted_to_users([1, 3])
        assert out.num_edges == 3
        assert not out.has_user(2)
        assert out.has_item("a")  # items always preserved

    def test_copy_independence(self, small_preferences):
        clone = small_preferences.copy()
        clone.add_edge(3, "a")
        assert not small_preferences.has_edge(3, "a")

    def test_with_edge_and_without_edge(self, small_preferences):
        plus = small_preferences.with_edge(3, "a")
        assert plus.has_edge(3, "a")
        assert not small_preferences.has_edge(3, "a")
        minus = small_preferences.without_edge(1, "a")
        assert not minus.has_edge(1, "a")
        assert small_preferences.has_edge(1, "a")

    def test_equality(self):
        a = PreferenceGraph([(1, "x"), (2, "y")])
        b = PreferenceGraph([(2, "y"), (1, "x")])
        assert a == b

    def test_unhashable(self, small_preferences):
        with pytest.raises(TypeError):
            hash(small_preferences)

    def test_repr(self, small_preferences):
        assert "num_edges=4" in repr(small_preferences)
