"""Unit tests for the shared value types."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.types import RankedItem, RecommendationList, as_recommendation_list


class TestRankedItem:
    def test_as_tuple(self):
        entry = RankedItem(utility=2.5, item="a")
        assert entry.as_tuple() == ("a", 2.5)

    def test_ordering_by_utility_then_item(self):
        assert RankedItem(1.0, "a") < RankedItem(2.0, "a")
        assert RankedItem(1.0, "a") < RankedItem(1.0, "b")

    def test_frozen(self):
        entry = RankedItem(1.0, "a")
        with pytest.raises(AttributeError):
            entry.utility = 2.0


class TestRecommendationList:
    @pytest.fixture
    def rec_list(self):
        return as_recommendation_list("u", [("a", 3.0), ("b", 1.5)])

    def test_item_ids_in_order(self, rec_list):
        assert rec_list.item_ids() == ["a", "b"]

    def test_utilities_aligned(self, rec_list):
        assert rec_list.utilities() == [3.0, 1.5]

    def test_len_and_iter(self, rec_list):
        assert len(rec_list) == 2
        assert [e.item for e in rec_list] == ["a", "b"]

    def test_truncated(self, rec_list):
        top = rec_list.truncated(1)
        assert top.item_ids() == ["a"]
        assert rec_list.item_ids() == ["a", "b"]  # original unchanged

    def test_truncated_negative_rejected(self, rec_list):
        with pytest.raises(ValueError):
            rec_list.truncated(-1)

    def test_user_recorded(self, rec_list):
        assert rec_list.user == "u"

    def test_utilities_coerced_to_float(self):
        rec = as_recommendation_list("u", [("a", 2)])
        assert isinstance(rec.utilities()[0], float)

    def test_items_are_ranked_item_views_best_first(self, rec_list):
        assert rec_list.items == (RankedItem(3.0, "a"), RankedItem(1.5, "b"))
        assert [entry.as_tuple() for entry in rec_list] == [("a", 3.0), ("b", 1.5)]
        assert list(rec_list) == list(rec_list.items)

    def test_truncated_keeps_user_and_tier(self):
        rec = as_recommendation_list("u", [("a", 3.0), ("b", 1.5)], tier="cluster")
        top = rec.truncated(1)
        assert (top.user, top.tier, top.utilities()) == ("u", "cluster", [3.0])
        assert len(rec.truncated(0)) == 0
        assert rec.truncated(5) == rec

    def test_empty_list(self):
        rec = as_recommendation_list("u", [], tier="empty")
        assert len(rec) == 0
        assert rec.items == ()
        assert list(rec) == []
        assert rec.item_ids() == [] and rec.utilities() == []
        assert rec.degraded

    def test_equality_reads_user_ids_utilities_and_tier(self, rec_list):
        same = as_recommendation_list("u", [("a", 3.0), ("b", 1.5)])
        assert rec_list == same
        assert hash(rec_list) == hash(same)
        assert rec_list != as_recommendation_list("v", [("a", 3.0), ("b", 1.5)])
        assert rec_list != as_recommendation_list("u", [("b", 3.0), ("a", 1.5)])
        assert rec_list != as_recommendation_list("u", [("a", 3.0), ("b", 1.0)])
        assert rec_list != as_recommendation_list(
            "u", [("a", 3.0), ("b", 1.5)], tier="global"
        )
        assert rec_list != rec_list.items
        assert rec_list != [("a", 3.0), ("b", 1.5)]

    @pytest.mark.parametrize("name", ["user", "tier", "items"])
    def test_fields_are_frozen(self, rec_list, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec_list, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec_list, name)

    def test_accessors_return_fresh_lists(self, rec_list):
        ids = rec_list.item_ids()
        ids.append("z")
        rec_list.utilities().append(0.0)
        assert rec_list.item_ids() == ["a", "b"]
        assert rec_list.utilities() == [3.0, 1.5]

    def test_numpy_and_int_utilities_become_builtin_floats(self):
        rec = as_recommendation_list(
            "u", [("a", np.float64(0.1)), ("b", np.float32(0.5)), ("c", 2)]
        )
        assert [type(u) for u in rec.utilities()] == [float, float, float]
        assert rec.utilities() == [0.1, 0.5, 2.0]
        assert [type(entry.utility) for entry in rec] == [float, float, float]

    def test_pairs_may_be_any_iterable(self):
        rec = as_recommendation_list("u", iter([("a", 1.0), ("b", 0.5)]))
        assert rec.item_ids() == ["a", "b"]

    def test_pickle_and_repr(self, rec_list):
        assert pickle.loads(pickle.dumps(rec_list)) == rec_list
        assert repr(rec_list) == (
            "RecommendationList(user='u', items=(RankedItem(utility=3.0, "
            "item='a'), RankedItem(utility=1.5, item='b')), "
            "tier='personalized')"
        )


class TestRecommendationListColumns:
    def test_built_from_ids_and_utilities(self):
        rec = RecommendationList("u", ["a", "b"], [3.0, np.float64(1.5)], "cluster")
        assert rec == as_recommendation_list("u", [("a", 3.0), ("b", 1.5)], "cluster")
        assert type(rec.utilities()[1]) is float

    def test_defaults_to_an_empty_personalized_list(self):
        rec = RecommendationList("u")
        assert (len(rec), rec.tier, rec.degraded) == (0, "personalized", False)

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="2 item ids but 1 utilities"):
            RecommendationList("u", ["a", "b"], [1.0])
