"""Unit tests for module A_w: noisy cluster-average weights."""

import math

import numpy as np
import pytest

from repro.community.clustering import Clustering
from repro.core.cluster_weights import (
    apply_laplace_noise,
    cluster_item_averages,
    noisy_cluster_item_weights,
)
from repro.exceptions import ClusteringError, InvalidEpsilonError
from repro.graph.preference_graph import PreferenceGraph

from tests.oracles.cluster_weights import exact_averages


@pytest.fixture
def prefs():
    g = PreferenceGraph()
    g.add_users([1, 2, 3, 4])
    g.add_edge(1, "a")
    g.add_edge(2, "a")
    g.add_edge(3, "b")
    g.add_item("c")  # an item with no edges at all
    return g


@pytest.fixture
def clustering():
    return Clustering([[1, 2], [3, 4]])


class TestExactAverages:
    def test_epsilon_inf_gives_exact_averages(self, prefs, clustering):
        result = noisy_cluster_item_weights(prefs, clustering, math.inf)
        assert result.weight("a", 0) == pytest.approx(1.0)   # both of {1,2}
        assert result.weight("a", 1) == pytest.approx(0.0)
        assert result.weight("b", 0) == pytest.approx(0.0)
        assert result.weight("b", 1) == pytest.approx(0.5)   # 3 of {3,4}
        assert result.weight("c", 0) == pytest.approx(0.0)

    def test_matrix_shape_covers_all_cells(self, prefs, clustering):
        result = noisy_cluster_item_weights(prefs, clustering, math.inf)
        assert result.matrix.shape == (3, 2)  # 3 items x 2 clusters

    def test_weighted_edges_with_cap(self, clustering):
        g = PreferenceGraph()
        g.add_users([1, 2, 3, 4])
        g.add_edge(1, "a", weight=3.0)
        result = noisy_cluster_item_weights(g, clustering, math.inf, max_weight=5.0)
        assert result.weight("a", 0) == pytest.approx(1.5)

    def test_weights_clipped_to_cap(self, clustering):
        """With the default unweighted model (cap 1.0), heavier edges are
        clipped — otherwise one rating could exceed the calibrated
        sensitivity."""
        g = PreferenceGraph()
        g.add_users([1, 2, 3, 4])
        g.add_edge(1, "a", weight=3.0)
        result = noisy_cluster_item_weights(g, clustering, math.inf)
        assert result.weight("a", 0) == pytest.approx(0.5)

    def test_noise_scales_with_weight_cap(self):
        clustering = Clustering([[1]])
        g = PreferenceGraph()
        g.add_users([1])
        g.add_edge(1, "a", weight=1.0)
        small = noisy_cluster_item_weights(
            g, clustering, 0.5, rng=np.random.default_rng(3), max_weight=1.0
        )
        large = noisy_cluster_item_weights(
            g, clustering, 0.5, rng=np.random.default_rng(3), max_weight=4.0
        )
        # Same underlying uniform draws: the noise is exactly 4x larger.
        assert large.weight("a", 0) - 1.0 == pytest.approx(
            4.0 * (small.weight("a", 0) - 1.0)
        )

    def test_invalid_weight_cap(self, prefs, clustering):
        from repro.exceptions import PrivacyError

        with pytest.raises(PrivacyError):
            noisy_cluster_item_weights(prefs, clustering, 1.0, max_weight=0.0)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, -1.0])
    def test_weight_cap_must_be_finite_and_positive(self, prefs, clustering, cap):
        # A NaN or infinite cap makes the Laplace scale non-finite: the
        # release would hold no finite cell.
        from repro.exceptions import PrivacyError

        with pytest.raises(PrivacyError, match="max_weight"):
            noisy_cluster_item_weights(prefs, clustering, 1.0, max_weight=cap)
        with pytest.raises(PrivacyError, match="max_weight"):
            cluster_item_averages(prefs, clustering, max_weight=cap)


class TestNoise:
    def test_noise_added_everywhere_including_empty_cells(self, prefs, clustering):
        result = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(0)
        )
        # The all-zero item "c" must still carry noise in every cell —
        # otherwise the zero pattern reveals edge absence.
        assert result.weight("c", 0) != 0.0
        assert result.weight("c", 1) != 0.0

    def test_noise_scale_shrinks_with_cluster_size(self, prefs):
        big = Clustering([[1, 2, 3, 4]])
        small = Clustering([[1], [2], [3], [4]])
        eps = 0.1
        reps = 400

        def spread(clustering):
            devs = []
            for seed in range(reps):
                out = noisy_cluster_item_weights(
                    prefs, clustering, eps, rng=np.random.default_rng(seed)
                )
                devs.append(abs(out.weight("c", 0)))
            return np.mean(devs)

        # Expected |Lap(1/(4 eps))| is a quarter of |Lap(1/eps)|.
        assert spread(big) < spread(small) / 2.5

    def test_unclustered_user_with_edges_rejected(self, prefs):
        partial = Clustering([[1, 2]])  # users 3, 4 uncovered
        with pytest.raises(ClusteringError):
            noisy_cluster_item_weights(prefs, partial, 1.0)

    def test_unclustered_user_without_edges_tolerated(self, clustering):
        g = PreferenceGraph()
        g.add_users([1, 2, 3, 4, 5])  # 5 has no edges and no cluster
        g.add_edge(1, "a")
        result = noisy_cluster_item_weights(g, clustering, math.inf)
        assert result.weight("a", 0) == pytest.approx(0.5)

    def test_invalid_epsilon(self, prefs, clustering):
        with pytest.raises(InvalidEpsilonError):
            noisy_cluster_item_weights(prefs, clustering, 0.0)

    def test_deterministic_given_rng(self, prefs, clustering):
        a = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(42)
        )
        b = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(42)
        )
        assert np.array_equal(a.matrix, b.matrix)


class TestResultAccessors:
    def test_weight_unknown_item(self, prefs, clustering):
        result = noisy_cluster_item_weights(prefs, clustering, math.inf)
        with pytest.raises(KeyError):
            result.weight("zzz", 0)

    def test_weight_bad_cluster_index(self, prefs, clustering):
        result = noisy_cluster_item_weights(prefs, clustering, math.inf)
        with pytest.raises(IndexError):
            result.weight("a", 5)

    def test_records_epsilon_and_clustering(self, prefs, clustering):
        result = noisy_cluster_item_weights(prefs, clustering, 0.7)
        assert result.epsilon == 0.7
        assert result.clustering is clustering


class TestAveragesNoiseSplit:
    """The cluster_item_averages / apply_laplace_noise factoring."""

    def test_composition_matches_monolithic_call(self, prefs, clustering):
        averages = cluster_item_averages(prefs, clustering)
        split = apply_laplace_noise(averages, 0.5, rng=np.random.default_rng(7))
        whole = noisy_cluster_item_weights(
            prefs, clustering, 0.5, rng=np.random.default_rng(7)
        )
        assert np.array_equal(split, whole.matrix)

    def test_averages_are_pure_and_reusable(self, prefs, clustering):
        averages = cluster_item_averages(prefs, clustering)
        before = averages.matrix.copy()
        first = apply_laplace_noise(averages, 0.5, rng=np.random.default_rng(1))
        second = apply_laplace_noise(averages, 0.5, rng=np.random.default_rng(2))
        assert np.array_equal(averages.matrix, before)
        assert not np.array_equal(first, second)

    def test_infinite_epsilon_returns_copy_of_averages(self, prefs, clustering):
        averages = cluster_item_averages(prefs, clustering)
        exact = apply_laplace_noise(averages, math.inf)
        assert np.array_equal(exact, averages.matrix)
        assert exact is not averages.matrix

    def test_laplace_scales_match_sensitivity(self, prefs, clustering):
        averages = cluster_item_averages(prefs, clustering)
        scales = averages.laplace_scales(0.5)
        # Delta/( |c| eps ) with Delta = 1 and |c| = 2 for both clusters.
        assert scales == pytest.approx([1.0, 1.0])
        assert averages.laplace_scales(math.inf) is None

    def test_user_level_scales(self, prefs, clustering):
        averages = cluster_item_averages(
            prefs, clustering, protection="user", user_clamp=10
        )
        assert averages.laplace_scales(1.0) == pytest.approx([5.0, 5.0])

    def test_invalid_epsilon_rejected_before_noise(self, prefs, clustering):
        averages = cluster_item_averages(prefs, clustering)
        with pytest.raises(InvalidEpsilonError):
            apply_laplace_noise(averages, -1.0)

    def test_unknown_backend_rejected(self, prefs, clustering):
        # One accumulation: neither function takes a backend selector.
        with pytest.raises(TypeError):
            cluster_item_averages(prefs, clustering, backend="python")
        with pytest.raises(TypeError):
            noisy_cluster_item_weights(prefs, clustering, 1.0, backend="python")


class TestBackendEquality:
    """The CSR accumulation must equal the per-edge loop bit-for-bit."""

    def test_simple_graph(self, prefs, clustering):
        vec = cluster_item_averages(prefs, clustering)
        assert np.array_equal(vec.matrix, exact_averages(prefs, clustering))
        assert vec.items == prefs.items()

    def test_weighted_clipped_graph(self, clustering):
        g = PreferenceGraph()
        g.add_users([1, 2, 3, 4])
        g.add_edge(1, "a", weight=3.0)
        g.add_edge(2, "a", weight=0.25)
        g.add_edge(2, "b", weight=0.5)
        g.add_edge(3, "b", weight=1.5)
        vec = cluster_item_averages(g, clustering, max_weight=1.0)
        expected = exact_averages(g, clustering, max_weight=1.0)
        assert np.array_equal(vec.matrix, expected)

    def test_user_level_clamp(self):
        clustering = Clustering([[1, 2]])
        g = PreferenceGraph()
        g.add_users([1, 2])
        for item in ["a", "b", "c", "d"]:
            g.add_edge(1, item)
        g.add_edge(2, "d")
        kwargs = dict(protection="user", user_clamp=2)
        vec = cluster_item_averages(g, clustering, **kwargs)
        assert np.array_equal(vec.matrix, exact_averages(g, clustering, **kwargs))
        # The clamp kept only 1's first two items (graph item order).
        assert vec.matrix[vec.item_index["c"], 0] == 0.0
        assert vec.matrix[vec.item_index["d"], 0] == pytest.approx(0.5)

    def test_random_unweighted_graph(self):
        rng = np.random.default_rng(11)
        g = PreferenceGraph()
        users = list(range(40))
        g.add_users(users)
        for u in users:
            for item in rng.choice(60, size=rng.integers(0, 12), replace=False):
                g.add_edge(u, f"i{item}")
        clustering = Clustering(
            [users[:13], users[13:20], users[20:39], [users[39]]]
        )
        vec = cluster_item_averages(g, clustering)
        assert np.array_equal(vec.matrix, exact_averages(g, clustering))

    def test_empty_graph(self):
        g = PreferenceGraph()
        clustering = Clustering([])
        vec = cluster_item_averages(g, clustering)
        assert vec.matrix.shape == exact_averages(g, clustering).shape == (0, 0)

    def test_unclustered_user_rejected_by_both(self, prefs):
        partial = Clustering([[1, 2]])
        with pytest.raises(ClusteringError):
            cluster_item_averages(prefs, partial)
        with pytest.raises(ClusteringError):
            exact_averages(prefs, partial)


class TestEmpiricalDifferentialPrivacy:
    def test_neighbouring_graphs_indistinguishable_within_bound(self):
        """Monte-Carlo eps-DP check of one released cluster average.

        Two neighbouring preference graphs (one extra edge into a 2-user
        cluster) must produce output distributions whose densities differ
        by at most exp(eps) per bucket.
        """
        eps = 0.5
        clustering = Clustering([[1, 2]])
        d1 = PreferenceGraph()
        d1.add_users([1, 2])
        d1.add_edge(1, "a")
        d2 = d1.with_edge(2, "a")

        samples = 300_000
        rng = np.random.default_rng(9)
        scale = 1.0 / (2 * eps)
        out1 = 0.5 + rng.laplace(0.0, scale, size=samples)
        out2 = 1.0 + rng.laplace(0.0, scale, size=samples)
        # Verify the mechanism actually uses these exact parameters.
        got1 = noisy_cluster_item_weights(
            d1, clustering, eps, rng=np.random.default_rng(1)
        )
        got2 = noisy_cluster_item_weights(
            d2, clustering, eps, rng=np.random.default_rng(1)
        )
        # Same seed => same noise; difference must be exactly the 1/|c| shift.
        assert got2.weight("a", 0) - got1.weight("a", 0) == pytest.approx(0.5)

        bins = np.linspace(-2.5, 4.0, 30)
        h1, _ = np.histogram(out1, bins=bins)
        h2, _ = np.histogram(out2, bins=bins)
        mask = (h1 > 400) & (h2 > 400)
        ratios = h1[mask] / h2[mask]
        bound = math.exp(eps)
        assert np.all(ratios < bound * 1.15)
        assert np.all(1.0 / ratios < bound * 1.15)
