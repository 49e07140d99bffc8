"""Property-based tests for the privacy layer and Algorithm 1 invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_weights import noisy_cluster_item_weights
from repro.obs import LedgerEntry, PrivacyLedgerView
from repro.privacy.mechanisms import LaplaceMechanism

from tests.property.strategies import partitions, preference_graphs, social_graphs


class TestMechanismProperties:
    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-1e6, max_value=1e6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_release_is_finite(self, epsilon, sensitivity, value, seed):
        mech = LaplaceMechanism(
            epsilon, sensitivity, rng=np.random.default_rng(seed)
        )
        assert math.isfinite(mech.release(value))

    @given(st.floats(min_value=0.01, max_value=10.0), st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_formula(self, epsilon, sensitivity):
        mech = LaplaceMechanism(epsilon, sensitivity)
        assert mech.scale == pytest.approx(sensitivity / epsilon)

    @given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_budget_spend_sums(self, charges):
        # Distinct releases compose sequentially: their epsilons add.
        view = PrivacyLedgerView(
            [LedgerEntry(f"r{i}", "q", c, 1.0) for i, c in enumerate(charges)]
        )
        assert view.total_epsilon() == pytest.approx(sum(charges))

    @given(
        st.lists(
            st.tuples(st.floats(0.001, 1.0), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_total_is_sum_of_group_maxima(self, charges):
        # A release's parallel charges cost their max; releases add.
        groups = {}
        for eps, group in charges:
            groups[group] = max(groups.get(group, 0.0), eps)
        view = PrivacyLedgerView(
            [LedgerEntry(group, "q", eps, 1.0) for eps, group in charges]
        )
        assert view.total_epsilon() == pytest.approx(sum(groups.values()))


class TestClusterWeightsProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_averages_within_bounds(self, data):
        """With eps = inf, every released average lies in [0, max weight]."""
        graph = data.draw(social_graphs(max_users=8))
        prefs = data.draw(preference_graphs(graph.users()))
        clustering = data.draw(partitions(graph.users()))
        result = noisy_cluster_item_weights(prefs, clustering, math.inf)
        assert np.all(result.matrix >= -1e-12)
        assert np.all(result.matrix <= 1.0 + 1e-12)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_average_equals_manual_computation(self, data):
        graph = data.draw(social_graphs(max_users=8))
        prefs = data.draw(preference_graphs(graph.users()))
        clustering = data.draw(partitions(graph.users()))
        result = noisy_cluster_item_weights(prefs, clustering, math.inf)
        for item in prefs.items():
            for c in range(clustering.num_clusters):
                members = clustering.members_of(c)
                expected = sum(prefs.weight(u, item) for u in members) / len(members)
                assert result.weight(item, c) == pytest.approx(expected)

    @given(st.data(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_one_edge_moves_one_cell_by_inverse_cluster_size(self, data, seed):
        """The Algorithm 1 sensitivity invariant, property-based: adding any
        single preference edge changes exactly one released cell, by 1/|c|,
        under identical noise."""
        graph = data.draw(social_graphs(max_users=8))
        prefs = data.draw(preference_graphs(graph.users()))
        clustering = data.draw(partitions(graph.users()))
        users = graph.users()
        user = data.draw(st.sampled_from(users))
        items = prefs.items()
        item = data.draw(st.sampled_from(items))
        if prefs.has_edge(user, item):
            neighbour = prefs.without_edge(user, item)
            delta = -1.0
        else:
            neighbour = prefs.with_edge(user, item)
            delta = 1.0
        a = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(seed)
        )
        b = noisy_cluster_item_weights(
            neighbour, clustering, 0.5, rng=np.random.default_rng(seed)
        )
        diff = b.matrix - a.matrix
        changed = np.argwhere(np.abs(diff) > 1e-12)
        assert changed.shape[0] == 1
        row, col = changed[0]
        assert row == a.item_index[item]
        assert col == clustering.cluster_of(user)
        assert diff[row, col] == pytest.approx(
            delta / clustering.size_of(int(col))
        )
