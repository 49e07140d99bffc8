"""Unit tests for the synthetic dataset builders."""

import dataclasses
import math

import pytest

from repro.community.louvain import louvain
from repro.datasets.stats import dataset_stats
from repro.datasets.synthetic import SyntheticDatasetSpec
from repro.exceptions import DatasetError


class TestSpecValidation:
    def test_valid_spec(self):
        spec = SyntheticDatasetSpec(
            name="t", num_users=50, num_communities=2, attachment=3,
            inter_community_edges=5, num_items=20, mean_prefs_per_user=5.0,
        )
        assert spec.name == "t"

    def test_too_few_users(self):
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(
                name="t", num_users=1, num_communities=2, attachment=1,
                inter_community_edges=0, num_items=5, mean_prefs_per_user=1.0,
            )

    def test_bad_affinities(self):
        base = dict(
            name="t", num_users=50, num_communities=2, attachment=3,
            inter_community_edges=5, num_items=20, mean_prefs_per_user=5.0,
        )
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(**base, community_affinity=1.5)
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(**base, subgroup_affinity=-0.1)
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(**base, contagion=1.0)

    def test_bad_scale(self):
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec.lastfm_like(scale=0.0)
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec.flixster_like(scale=-1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.parametrize("preset", ["lastfm_like", "flixster_like"])
    def test_non_finite_scale(self, preset, scale):
        # NaN fails every comparison, so a `scale <= 0` check lets it
        # through to int(round(...)), as it does inf.
        with pytest.raises(DatasetError, match="finite and positive"):
            getattr(SyntheticDatasetSpec, preset)(scale=scale)


class TestGeneration:
    def test_deterministic(self):
        spec = SyntheticDatasetSpec.lastfm_like(scale=0.05)
        a = spec.generate(seed=1)
        b = spec.generate(seed=1)
        assert a.social == b.social
        assert a.preferences == b.preferences

    def test_different_seeds_differ(self):
        spec = SyntheticDatasetSpec.lastfm_like(scale=0.05)
        assert spec.generate(seed=1).social != spec.generate(seed=2).social

    def test_all_users_have_preferences_possible(self, lastfm_small):
        # Every user must be registered in both graphs.
        assert set(lastfm_small.preferences.users()) >= set(
            lastfm_small.social.users()
        )

    def test_validates_clean(self, lastfm_small):
        lastfm_small.validate()

    def test_community_sizes_sum(self, rng):
        spec = SyntheticDatasetSpec.lastfm_like(scale=0.1)
        sizes = spec.community_sizes(rng)
        assert sum(sizes) == spec.num_users
        assert all(s > spec.attachment for s in sizes)


class TestStructuralTargets:
    def test_lastfm_preset_statistics(self):
        ds = SyntheticDatasetSpec.lastfm_like(scale=0.3).generate(seed=7)
        stats = dataset_stats(ds)
        # Degree distribution: mean near the crawl's 13.4, heavy tail.
        assert 8.0 < stats.avg_user_degree < 18.0
        assert stats.std_user_degree > 0.5 * stats.avg_user_degree
        # Sparse preference matrix.
        assert stats.sparsity > 0.9

    def test_lastfm_has_low_degree_users(self):
        ds = SyntheticDatasetSpec.lastfm_like(scale=0.2).generate(seed=7)
        degrees = list(ds.social.degrees().values())
        assert min(degrees) <= 2

    def test_flixster_denser_than_lastfm(self):
        lastfm = SyntheticDatasetSpec.lastfm_like(scale=0.2).generate(seed=7)
        flixster = SyntheticDatasetSpec.flixster_like(scale=0.003).generate(seed=7)
        assert (
            dataset_stats(flixster).avg_user_degree
            > dataset_stats(lastfm).avg_user_degree
        )

    def test_isolated_components_generated(self):
        """The crawl's 19 stray components (§6.1) are reproduced in
        miniature: the preset appends tiny path components of 2-7 users."""
        import dataclasses

        from repro.graph.components import connected_components

        spec = SyntheticDatasetSpec.lastfm_like(scale=0.2)
        assert spec.num_isolated_components > 0
        ds = spec.generate(seed=5)
        components = connected_components(ds.social)
        small = [c for c in components if len(c) <= spec.isolated_component_max_size]
        assert len(small) == spec.num_isolated_components
        # Users in stray components still carry preference edges.
        stray_user = next(iter(small[0]))
        assert ds.preferences.user_degree(stray_user) >= 1
        # Disabling the knob removes them.
        plain = dataclasses.replace(spec, num_isolated_components=0)
        assert len(connected_components(plain.generate(seed=5).social)) == 1

    def test_invalid_isolated_settings(self):
        import dataclasses

        spec = SyntheticDatasetSpec.lastfm_like(scale=0.1)
        with pytest.raises(DatasetError):
            dataclasses.replace(spec, num_isolated_components=-1)
        with pytest.raises(DatasetError):
            dataclasses.replace(spec, isolated_component_max_size=1)

    def test_community_structure_present(self, lastfm_small):
        result = louvain(lastfm_small.social)
        assert result.modularity > 0.3

    def test_tastes_correlate_with_communities(self, lastfm_small):
        """Users in the same Louvain community must share more items than
        users in different communities — the homophily any social
        recommender depends on."""
        import numpy as np

        clustering = louvain(lastfm_small.social).clustering
        prefs = lastfm_small.preferences
        rng = np.random.default_rng(0)
        users = [u for u in lastfm_small.social.users() if prefs.user_degree(u) > 0]

        def jaccard(u, v):
            a = set(prefs.items_of(u))
            b = set(prefs.items_of(v))
            return len(a & b) / max(len(a | b), 1)

        same, diff = [], []
        for _ in range(800):
            u, v = rng.choice(len(users), size=2, replace=False)
            u, v = users[int(u)], users[int(v)]
            (same if clustering.co_clustered(u, v) else diff).append(jaccard(u, v))
        assert sum(same) / len(same) > 1.5 * (sum(diff) / len(diff))
