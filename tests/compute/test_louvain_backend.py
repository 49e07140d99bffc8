"""The flat-array Louvain against the dict-based reference oracle."""

import importlib
import random

import numpy as np
import pytest

from repro.community.louvain import best_louvain_clustering, louvain
from repro.community.modularity import modularity
from repro.datasets.synthetic import SyntheticDatasetSpec
from repro.graph.bigcsr import bigcsr_from_social_graph
from repro.graph.social_graph import SocialGraph
from repro.obs import Telemetry, telemetry

from tests.oracles import louvain as oracle


def _random_graph(seed, n=40, extra=80):
    rnd = random.Random(seed)
    graph = SocialGraph()
    graph.add_users(range(n))
    for _ in range(extra):
        u, v = rnd.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


def _shuffled_graph(seed, ids, n=60, extra=150):
    """Users inserted in a shuffled order, so ``users()`` differs from
    ``stable_user_order()`` and the base graph takes the permutation."""
    rnd = random.Random(seed)
    names = [ids(i) for i in range(n)]
    inserted = list(names)
    rnd.shuffle(inserted)
    graph = SocialGraph()
    graph.add_users(inserted)
    for _ in range(extra):
        u, v = rnd.sample(names, 2)
        graph.add_edge(u, v)
    assert graph.users() != graph.stable_user_order()
    return graph


_ID_KINDS = {"int": int, "str": lambda i: f"user-{i}"}


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    @pytest.mark.parametrize("refine", [True, False])
    def test_identical_partitions(self, seed, refine):
        graph = _random_graph(seed)
        ref = oracle.louvain(graph, np.random.default_rng(seed), refine=refine)
        vec = louvain(graph, np.random.default_rng(seed), refine=refine)
        assert vec == ref

    def test_best_of_runs_identical(self):
        graph = _random_graph(5, n=80, extra=200)
        ref = oracle.best_louvain_clustering(graph, runs=4, seed=0)
        vec = best_louvain_clustering(graph, runs=4, seed=0)
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity

    def test_unknown_backend_rejected(self):
        # One implementation: Louvain takes no backend selector.
        with pytest.raises(TypeError):
            louvain(_random_graph(0), backend="python")
        with pytest.raises(TypeError):
            best_louvain_clustering(_random_graph(0), backend="python")

    def test_modularity_matches_reported(self):
        graph = _random_graph(7)
        result = louvain(graph)
        assert modularity(graph, result.clustering) == result.modularity


class TestOutOfOrderUsers:
    """Graphs whose insertion order is not their stable order."""

    @pytest.mark.parametrize("kind", sorted(_ID_KINDS))
    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("refine", [True, False])
    def test_single_run_matches_oracle(self, kind, seed, refine):
        graph = _shuffled_graph(seed, _ID_KINDS[kind])
        ref = oracle.louvain(graph, np.random.default_rng(seed), refine=refine)
        vec = louvain(graph, np.random.default_rng(seed), refine=refine)
        assert vec == ref

    @pytest.mark.parametrize("kind", sorted(_ID_KINDS))
    @pytest.mark.parametrize("runs", [4, 10])
    def test_best_of_runs_matches_oracle(self, kind, runs):
        graph = _shuffled_graph(6, _ID_KINDS[kind], n=90, extra=260)
        ref = oracle.best_louvain_clustering(graph, runs=runs, seed=2)
        vec = best_louvain_clustering(graph, runs=runs, seed=2)
        assert vec == ref
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert modularity(graph, vec.clustering) == vec.modularity


@pytest.fixture(scope="module")
def lastfm_graph():
    """lastfm-like x0.26 (516 users, 2,737 edges): big enough that the
    move scan skips about 40% of its visits."""
    return SyntheticDatasetSpec.lastfm_like(scale=0.26).generate(seed=1).social


class TestPrunedScan:
    """The scan skips visits that cannot move a node; the oracle never
    does, so these pin the skip rule where it actually fires."""

    @staticmethod
    def _assert_same(vec, ref):
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity
        assert vec.num_levels == ref.num_levels

    @staticmethod
    def _assert_skipped(registry):
        visits = registry.counter("louvain.node_visits")
        assert 0 < registry.counter("louvain.node_evaluations") < visits

    def test_best_of_ten_matches_oracle(self, lastfm_graph):
        ref = oracle.best_louvain_clustering(lastfm_graph, runs=10, seed=0)
        with telemetry(Telemetry()) as registry:
            vec = best_louvain_clustering(lastfm_graph, runs=10, seed=0)
        self._assert_same(vec, ref)
        self._assert_skipped(registry)

    @pytest.mark.parametrize("seed", [1, 5])
    @pytest.mark.parametrize("refine", [True, False])
    def test_single_run_matches_oracle(self, lastfm_graph, seed, refine):
        ref = oracle.louvain(lastfm_graph, np.random.default_rng(seed), refine=refine)
        with telemetry(Telemetry()) as registry:
            vec = louvain(lastfm_graph, np.random.default_rng(seed), refine=refine)
        self._assert_same(vec, ref)
        self._assert_skipped(registry)


class TestGraphRepresentations:
    def test_social_and_bigcsr_graphs_give_identical_partitions(self, tmp_path):
        # Ids inserted ascending, edges in random order: both graphs number
        # their nodes alike, so neighbor-run order must not depend on the
        # representation either.
        graph = _random_graph(11, n=120, extra=400)
        big = bigcsr_from_social_graph(graph, directory=str(tmp_path))
        assert list(big.users()) == graph.users()
        for seed in (0, 3):
            for refine in (True, False):
                social_run = louvain(graph, np.random.default_rng(seed), refine=refine)
                big_run = louvain(big, np.random.default_rng(seed), refine=refine)
                assert big_run == social_run
        social_best = best_louvain_clustering(graph, runs=4, seed=1)
        assert best_louvain_clustering(big, runs=4, seed=1) == social_best


class TestSharedBase:
    def test_best_of_ten_builds_the_base_graph_once(self):
        graph = _shuffled_graph(2, int, n=80, extra=220)
        with telemetry(Telemetry()) as registry:
            best_louvain_clustering(graph, runs=10, seed=0)
        assert registry.counter("louvain.base_builds") == 1
        assert registry.counter("louvain.runs") == 10

    def test_each_single_run_builds_its_own_base(self):
        graph = _random_graph(3)
        with telemetry(Telemetry()) as registry:
            louvain(graph)
            louvain(graph)
        assert registry.counter("louvain.base_builds") == 2
        assert registry.counter("louvain.runs") == 2


class TestFaultDegradation:
    pytestmark = pytest.mark.faults

    def test_explicit_vectorized_propagates(self, monkeypatch):
        # No second implementation catches a failing local-move pass.
        louvain_module = importlib.import_module("repro.community.louvain")

        def failing(*_args, **_kwargs):
            raise MemoryError("injected")

        monkeypatch.setattr(louvain_module, "_one_level_flat", failing)
        with pytest.raises(MemoryError):
            louvain(_random_graph(2))
