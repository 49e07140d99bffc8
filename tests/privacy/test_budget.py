"""Unit tests for privacy-budget accounting.

There is one accountant, the privacy ledger (:mod:`repro.obs.ledger`).
``TestBudgetLedger`` charges it the way a fit does, through
:func:`~repro.core.cluster_weights.apply_laplace_noise`: each draw is one
release of one parallel charge per cluster.  ``TestPrivacyBudget`` pins
the allowance a :class:`~repro.core.dynamic.DynamicPrivateRecommender`
spends on that ledger, one sequential release per snapshot.
"""

import math

import numpy as np
import pytest

from repro.community.clustering import Clustering
from repro.core.cluster_weights import apply_laplace_noise, cluster_item_averages
from repro.core.dynamic import DynamicPrivateRecommender, uniform_allocation
from repro.exceptions import BudgetExhaustedError, InvalidEpsilonError
from repro.graph.preference_graph import PreferenceGraph
from repro.obs import PrivacyLedgerView, telemetry
from repro.similarity.common_neighbors import CommonNeighbors


def charged(*epsilons, clusters=((1, 2), (3,))):
    """The ledger written by one module-A_w draw per epsilon."""
    users = [user for cluster in clusters for user in cluster]
    prefs = PreferenceGraph([(user, f"item{user % 3}") for user in users])
    averages = cluster_item_averages(prefs, Clustering(clusters))
    with telemetry() as registry:
        for epsilon in epsilons:
            apply_laplace_noise(averages, epsilon, np.random.default_rng(0))
    return PrivacyLedgerView(registry.ledger_entries)


class TestBudgetLedger:
    def test_sequential_charges_sum(self):
        view = charged(0.3, 0.2)
        assert len(view.releases()) == 2
        assert view.total_epsilon() == pytest.approx(0.5)

    def test_parallel_group_takes_max(self):
        view = charged(0.5, clusters=((1,), (2, 3), (4, 5, 6)))
        (release,) = view.releases()
        assert [e.composition for e in view.entries] == ["parallel"] * 3
        assert view.release_epsilon(release) == 0.5
        assert view.total_epsilon() == 0.5

    def test_mixed_groups(self):
        view = charged(0.5, 0.25)
        assert [row[1:] for row in view.summary()] == [(0.5, 2), (0.25, 2)]
        assert view.total_epsilon() == pytest.approx(0.75)

    def test_algorithm1_accounting_shape(self):
        # Algorithm 1: one epsilon charge per cluster, all parallel => epsilon.
        view = charged(0.1, clusters=[(user,) for user in range(100)])
        assert len(view.entries) == 100
        assert view.total_epsilon() == pytest.approx(0.1)

    def test_infinite_charge_rejected(self):
        # epsilon = inf draws no noise, so the ledger holds no charge.
        view = charged(math.inf)
        assert view.entries == []
        assert view.total_epsilon() == 0.0

    def test_summary_sorted(self):
        # One row per release, in the order the releases were charged.
        view = charged(0.1, 0.2)
        summary = view.summary()
        assert [row[0] for row in summary] == view.releases()
        assert [row[1:] for row in summary] == [(0.1, 2), (0.2, 2)]

    def test_empty_ledger_zero(self):
        assert charged().total_epsilon() == 0.0
        assert PrivacyLedgerView([]).summary() == []


class TestPrivacyBudget:
    @pytest.fixture
    def snapshot(self, triangle_graph, small_preferences):
        return triangle_graph, small_preferences

    @staticmethod
    def dynamic(total, allocation=None):
        return DynamicPrivateRecommender(
            CommonNeighbors(), total_epsilon=total, allocation=allocation
        )

    def test_initial_state(self):
        dyn = self.dynamic(1.0)
        assert dyn.num_snapshots == 0
        assert dyn.spent_epsilon() == 0.0
        assert "remaining=1)" in repr(dyn)

    def test_spend_decrements(self, snapshot):
        dyn = self.dynamic(1.0, allocation=lambda index: 0.3)
        dyn.fit_snapshot(*snapshot)
        assert dyn.spent_epsilon() == pytest.approx(0.3)
        assert "remaining=0.7)" in repr(dyn)

    def test_overspend_raises(self, snapshot):
        dyn = self.dynamic(0.5, allocation=lambda index: [0.4, 0.2][index])
        dyn.fit_snapshot(*snapshot)
        with pytest.raises(BudgetExhaustedError):
            dyn.fit_snapshot(*snapshot)
        assert dyn.num_snapshots == 1
        assert dyn.spent_epsilon() == pytest.approx(0.4)

    def test_exact_spend_allowed(self, snapshot):
        dyn = self.dynamic(1.0, allocation=lambda index: 1.0)
        dyn.fit_snapshot(*snapshot)
        assert dyn.spent_epsilon() == 1.0
        assert "remaining=0)" in repr(dyn)

    def test_many_small_charges_tolerate_roundoff(self, snapshot):
        # Four charges of 1.0 / 5 leave 0.19999999999999996 < 0.2: the
        # 1e-12 round-off tolerance lets every planned snapshot fit.
        for planned in (5, 10):
            dyn = self.dynamic(1.0, allocation=uniform_allocation(1.0, planned))
            for _ in range(planned):
                dyn.fit_snapshot(*snapshot)
            assert dyn.spent_epsilon() == pytest.approx(1.0)
            with pytest.raises(BudgetExhaustedError):
                dyn.fit_snapshot(*snapshot)
            assert dyn.num_snapshots == planned

    def test_infinite_budget_never_exhausts(self, snapshot):
        dyn = self.dynamic(math.inf, allocation=uniform_allocation(1.0, 1))
        for _ in range(3):
            dyn.fit_snapshot(*snapshot)
        assert dyn.spent_epsilon() == 3.0
        assert "remaining=inf" in repr(dyn)

    def test_infinite_snapshots_charge_nothing(self, snapshot):
        # The default policy splits an infinite total into epsilon = inf
        # snapshots: no noise is drawn, so nothing is spent.
        dyn = self.dynamic(math.inf)
        dyn.fit_snapshot(*snapshot)
        assert dyn.snapshot(0).epsilon == math.inf
        assert dyn.spent_epsilon() == 0.0

    def test_invalid_charge(self, snapshot):
        dyn = self.dynamic(1.0, allocation=lambda index: -0.1)
        with pytest.raises(InvalidEpsilonError):
            dyn.fit_snapshot(*snapshot)
        assert dyn.spent_epsilon() == 0.0

    def test_invalid_total(self):
        for total in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidEpsilonError):
                self.dynamic(total)

    def test_can_spend(self, snapshot):
        fits = self.dynamic(0.5, allocation=lambda index: 0.5)
        fits.fit_snapshot(*snapshot)
        assert fits.spent_epsilon() == 0.5
        dyn = self.dynamic(0.5, allocation=lambda index: 0.6)
        with pytest.raises(BudgetExhaustedError):
            dyn.fit_snapshot(*snapshot)
        assert dyn.spent_epsilon() == 0.0

    def test_charge_recorded_before_fit(self, snapshot):
        # A snapshot whose fit crashes stays charged, and the retry at
        # the same index is charged again: the ledger cannot under-count.
        def crashing(graph):
            raise RuntimeError("clustering crashed")

        dyn = DynamicPrivateRecommender(
            CommonNeighbors(),
            total_epsilon=1.0,
            allocation=uniform_allocation(1.0, 4),
            clustering_strategy=crashing,
        )
        with pytest.raises(RuntimeError):
            dyn.fit_snapshot(*snapshot)
        assert dyn.spent_epsilon() == 0.25
        with pytest.raises(RuntimeError):
            dyn.fit_snapshot(*snapshot)
        assert dyn.num_snapshots == 0
        assert dyn.spent_epsilon() == 0.5

    def test_repr(self):
        assert "remaining" in repr(self.dynamic(1.0))
