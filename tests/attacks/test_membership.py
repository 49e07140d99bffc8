"""Unit tests for the membership-inference attack on module A_w."""

import math

import numpy as np
import pytest

from repro.attacks.estimator import EPS_SENTINEL
from repro.attacks.membership import (
    deterministic_membership_result,
    run_membership_attack,
    unit_laplace_draws,
)
from repro.community.clustering import Clustering
from repro.core.cluster_weights import cluster_item_averages
from repro.graph.preference_graph import PreferenceGraph

TRIALS = 500


@pytest.fixture
def attack_world():
    """Two neighbouring worlds differing in the edge (u1, 'a').

    u1's cluster has size 2, so the attacked cell moves by 1/2 and the
    noise scale is 1/(2 eps) — the exactly-eps-DP marginal.
    """
    prefs = PreferenceGraph()
    for user, item in [
        ("u1", "a"),
        ("u1", "b"),
        ("u2", "a"),
        ("u3", "b"),
        ("u4", "a"),
    ]:
        prefs.add_edge(user, item)
    clustering = Clustering([{"u1", "u2"}, {"u3", "u4"}])
    averages_with = cluster_item_averages(prefs, clustering)
    averages_without = cluster_item_averages(
        prefs.without_edge("u1", "a"), clustering
    )
    return averages_without, averages_with


@pytest.fixture
def draws():
    root = np.random.SeedSequence(99)
    s0, s1 = root.spawn(2)
    return unit_laplace_draws(s0, TRIALS), unit_laplace_draws(s1, TRIALS)


class TestUnitDraws:
    def test_deterministic_in_the_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        a = unit_laplace_draws(seq, 10)
        b = unit_laplace_draws(np.random.SeedSequence(7), 10)
        np.testing.assert_array_equal(a, b)

    def test_invalid_trials(self):
        with pytest.raises(ValueError, match="trials"):
            unit_laplace_draws(np.random.SeedSequence(0), 0)


class TestPrivateChannel:
    def test_exact_statistics_match_the_cell_geometry(
        self, attack_world, draws
    ):
        without, with_ = attack_world
        result = run_membership_attack(
            without, with_, "u1", "a", 1.0, draws[0], draws[1]
        )
        assert result.victim == "u1" and result.item == "a"
        assert result.trials == TRIALS
        assert result.statistic_with - result.statistic_without == 0.5

    def test_bound_respects_the_configured_epsilon(
        self, attack_world, draws
    ):
        without, with_ = attack_world
        for eps in (0.5, 1.0, 2.0):
            result = run_membership_attack(
                without, with_, "u1", "a", eps, draws[0], draws[1]
            )
            assert not result.deterministic
            assert 0.0 <= result.eps_empirical <= eps + 1e-9

    def test_bounds_monotone_in_epsilon_under_common_draws(
        self, attack_world, draws
    ):
        without, with_ = attack_world
        bounds = [
            run_membership_attack(
                without, with_, "u1", "a", eps, draws[0], draws[1]
            ).eps_empirical
            for eps in (0.1, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_infinite_epsilon_is_a_deterministic_channel(
        self, attack_world, draws
    ):
        without, with_ = attack_world
        result = run_membership_attack(
            without, with_, "u1", "a", math.inf, draws[0], draws[1]
        )
        assert result.trials == 1
        assert result.deterministic
        assert result.eps_empirical == EPS_SENTINEL


class TestDeployedChannel:
    def test_equal_utilities_certify_nothing(self):
        result = deterministic_membership_result("v", "i", 0.75, 0.75)
        assert result.eps_empirical == 0.0
        assert result.deterministic

    def test_differing_utilities_hit_the_sentinel(self):
        result = deterministic_membership_result("v", "i", 0.25, 0.75)
        assert result.eps_empirical == EPS_SENTINEL
        assert result.deterministic
        assert result.estimate.clipped
