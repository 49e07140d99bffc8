"""Unit tests for the dynamic-graph budget wrapper (§7 extension)."""

import pytest

from repro.core.dynamic import (
    DynamicPrivateRecommender,
    decay_allocation,
    uniform_allocation,
)
from repro.exceptions import BudgetExhaustedError, PrivacyError
from repro.similarity.common_neighbors import CommonNeighbors


class TestAllocations:
    def test_uniform_splits_evenly(self):
        policy = uniform_allocation(1.0, 4)
        assert [policy(i) for i in range(4)] == pytest.approx([0.25] * 4)

    def test_uniform_invalid_snapshots(self):
        with pytest.raises(ValueError):
            uniform_allocation(1.0, 0)

    def test_decay_sums_to_total(self):
        policy = decay_allocation(1.0, factor=0.5)
        assert sum(policy(i) for i in range(60)) == pytest.approx(1.0)

    def test_decay_is_decreasing(self):
        policy = decay_allocation(1.0, factor=0.7)
        values = [policy(i) for i in range(5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decay_invalid_factor(self):
        with pytest.raises(ValueError):
            decay_allocation(1.0, factor=1.0)
        with pytest.raises(ValueError):
            decay_allocation(1.0, factor=0.0)


class TestDynamicRecommender:
    @pytest.fixture
    def snapshots(self, lastfm_small):
        """Two graph snapshots: the base dataset and one with extra edges."""
        second_social = lastfm_small.social.copy()
        users = second_social.users()
        if not second_social.has_edge(users[0], users[-1]):
            second_social.add_edge(users[0], users[-1])
        second_prefs = lastfm_small.preferences.copy()
        item = second_prefs.items()[0]
        if not second_prefs.has_edge(users[1], item):
            second_prefs.add_edge(users[1], item)
        return [
            (lastfm_small.social, lastfm_small.preferences),
            (second_social, second_prefs),
        ]

    def test_budget_spent_per_snapshot(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=uniform_allocation(1.0, 2),
        )
        dyn.fit_snapshot(*snapshots[0])
        assert dyn.spent_epsilon() == pytest.approx(0.5)
        dyn.fit_snapshot(*snapshots[1])
        assert dyn.spent_epsilon() == pytest.approx(1.0)

    def test_over_budget_refused(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=uniform_allocation(1.0, 1),
        )
        dyn.fit_snapshot(*snapshots[0])
        with pytest.raises(BudgetExhaustedError):
            dyn.fit_snapshot(*snapshots[1])

    def test_decay_supports_many_snapshots(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=decay_allocation(1.0, factor=0.5),
        )
        for _ in range(4):
            dyn.fit_snapshot(*snapshots[0])
        assert dyn.num_snapshots == 4
        assert dyn.spent_epsilon() < 1.0

    def test_snapshot_epsilons_recorded(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=0.8,
            allocation=uniform_allocation(0.8, 2),
        )
        dyn.fit_snapshot(*snapshots[0])
        dyn.fit_snapshot(*snapshots[1])
        assert dyn.snapshot(0).epsilon == pytest.approx(0.4)
        assert dyn.snapshot(1).epsilon == pytest.approx(0.4)

    def test_recommend_uses_latest_snapshot(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=uniform_allocation(1.0, 2),
            n=5,
        )
        dyn.fit_snapshot(*snapshots[0])
        first = dyn.current
        dyn.fit_snapshot(*snapshots[1])
        assert dyn.current is not first
        user = snapshots[1][0].users()[0]
        assert len(dyn.recommend(user)) == 5

    def test_snapshots_draw_independent_noise(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=uniform_allocation(1.0, 2),
            n=5,
        )
        a = dyn.fit_snapshot(*snapshots[0])
        b = dyn.fit_snapshot(*snapshots[0])  # identical data, new noise
        assert not (a.noisy_weights_.matrix == b.noisy_weights_.matrix).all()

    def test_current_before_fit_raises(self):
        dyn = DynamicPrivateRecommender(CommonNeighbors(), total_epsilon=1.0)
        with pytest.raises(PrivacyError):
            _ = dyn.current

    def test_repr(self, snapshots):
        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=uniform_allocation(1.0, 2),
        )
        dyn.fit_snapshot(*snapshots[0])
        assert "snapshots=1" in repr(dyn)
        assert "remaining=0.5" in repr(dyn)
