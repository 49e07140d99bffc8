"""Unit tests for the Louvain implementation."""

import numpy as np
import pytest

from repro.community.clustering import Clustering
from repro.community.louvain import LouvainResult, best_louvain_clustering, louvain
from repro.community.modularity import modularity
from repro.core.private import louvain_strategy
from repro.graph.generators import community_attachment_graph
from repro.graph.social_graph import SocialGraph


class TestBasics:
    def test_empty_graph(self):
        result = louvain(SocialGraph())
        assert result.clustering.num_clusters == 0
        assert result.modularity == 0.0

    def test_edgeless_graph_singletons(self):
        g = SocialGraph()
        g.add_users([1, 2, 3])
        result = louvain(g)
        assert result.clustering.sizes() == [1, 1, 1]

    def test_partition_covers_all_users(self, lastfm_small):
        result = louvain(lastfm_small.social, rng=np.random.default_rng(0))
        assert result.clustering.users() == set(lastfm_small.social.users())

    def test_reported_modularity_consistent(self, lastfm_small):
        result = louvain(lastfm_small.social, rng=np.random.default_rng(0))
        assert result.modularity == pytest.approx(
            modularity(lastfm_small.social, result.clustering)
        )

    def test_deterministic_given_rng_seed(self, lastfm_small):
        a = louvain(lastfm_small.social, rng=np.random.default_rng(5))
        b = louvain(lastfm_small.social, rng=np.random.default_rng(5))
        assert a.clustering == b.clustering
        assert a.modularity == b.modularity


class TestQuality:
    def test_recovers_two_cliques(self, two_communities_graph):
        result = louvain(two_communities_graph, rng=np.random.default_rng(1))
        expected = Clustering([[0, 1, 2, 3], [4, 5, 6, 7]])
        assert result.clustering == expected

    def test_recovers_planted_communities(self, rng):
        sizes = [40, 40, 40]
        g = community_attachment_graph(sizes, 4, 6, rng)
        result = louvain(g, rng=np.random.default_rng(2))
        # Check most pairs from the same planted block are co-clustered.
        agree = total = 0
        boundaries = [0, 40, 80, 120]
        for b in range(3):
            block = list(range(boundaries[b], boundaries[b + 1]))
            for i in range(0, len(block), 5):
                for j in range(i + 1, len(block), 5):
                    total += 1
                    if result.clustering.co_clustered(block[i], block[j]):
                        agree += 1
        assert agree / total > 0.8

    def test_modularity_competitive_with_networkx(self, lastfm_small):
        import networkx as nx

        g = lastfm_small.social
        ours = best_louvain_clustering(g, runs=5, seed=0).modularity
        nx_graph = nx.Graph(list(g.edges()))
        nx_graph.add_nodes_from(g.users())
        communities = nx.algorithms.community.louvain_communities(nx_graph, seed=0)
        theirs = nx.algorithms.community.modularity(nx_graph, communities)
        assert ours >= theirs - 0.02

    def test_modularity_beats_random_clustering(self, lastfm_small, rng):
        from repro.community.strategies import random_clustering

        g = lastfm_small.social
        result = louvain(g, rng=np.random.default_rng(3))
        rand = random_clustering(g.users(), result.clustering.num_clusters, rng)
        assert result.modularity > modularity(g, rand) + 0.1


class TestRefinement:
    def test_refinement_never_hurts_modularity(self, lastfm_medium):
        g = lastfm_medium.social
        for seed in range(3):
            refined = louvain(g, rng=np.random.default_rng(seed), refine=True)
            plain = louvain(g, rng=np.random.default_rng(seed), refine=False)
            assert refined.modularity >= plain.modularity - 1e-9

    def test_result_metadata(self, lastfm_small):
        result = louvain(lastfm_small.social, rng=np.random.default_rng(0))
        assert isinstance(result, LouvainResult)
        assert result.num_levels >= 1


class TestBestOfRuns:
    def test_best_of_runs_takes_max(self, lastfm_small):
        g = lastfm_small.social
        best = best_louvain_clustering(g, runs=5, seed=0)
        singles = [
            louvain(g, rng=np.random.default_rng(child)).modularity
            for child in np.random.SeedSequence(0).spawn(5)
        ]
        assert best.modularity == pytest.approx(max(singles))

    def test_invalid_runs(self, lastfm_small):
        with pytest.raises(ValueError):
            best_louvain_clustering(lastfm_small.social, runs=0)

    def test_deterministic_in_seed(self, lastfm_small):
        a = best_louvain_clustering(lastfm_small.social, runs=3, seed=9)
        b = best_louvain_clustering(lastfm_small.social, runs=3, seed=9)
        assert a.clustering == b.clustering


_BAD_RUNS = [0, -1, 2.5, float("nan"), True, None, "3", np.float64(3.0)]
_BAD_SEEDS = [-1, 1.5, None, True, np.bool_(False), "0", np.float64(0.0)]


class TestProtocolValidation:
    """``runs`` and ``seed`` are checked before anything is built."""

    @pytest.mark.parametrize("runs", _BAD_RUNS, ids=repr)
    def test_bad_runs_rejected(self, runs):
        # No graph: the check comes before the base graph is built.
        with pytest.raises(ValueError, match="runs"):
            best_louvain_clustering(None, runs=runs)

    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_bad_seed_rejected(self, seed):
        # seed=None would draw OS entropy: not deterministic in seed.
        with pytest.raises(ValueError, match="seed"):
            best_louvain_clustering(None, runs=2, seed=seed)

    @pytest.mark.parametrize("runs", _BAD_RUNS, ids=repr)
    def test_strategy_rejects_bad_runs_on_construction(self, runs):
        with pytest.raises(ValueError, match="runs"):
            louvain_strategy(runs=runs)

    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_strategy_rejects_bad_seed_on_construction(self, seed):
        with pytest.raises(ValueError, match="seed"):
            louvain_strategy(runs=2, seed=seed)

    def test_numpy_integers_accepted(self, lastfm_small):
        g = lastfm_small.social
        expected = best_louvain_clustering(g, runs=2, seed=3)
        got = best_louvain_clustering(g, runs=np.int64(2), seed=np.int64(3))
        assert got == expected
        strategy = louvain_strategy(runs=np.int64(2), seed=np.uint8(3))
        assert strategy(g) == expected.clustering
