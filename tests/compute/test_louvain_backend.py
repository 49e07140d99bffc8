"""The flat-array Louvain against the dict-based reference oracle."""

import importlib
import random

import numpy as np
import pytest

from repro.community.louvain import best_louvain_clustering, louvain
from repro.community.modularity import modularity
from repro.graph.social_graph import SocialGraph

from tests.oracles import louvain as oracle


def _random_graph(seed, n=40, extra=80):
    rnd = random.Random(seed)
    graph = SocialGraph()
    graph.add_users(range(n))
    for _ in range(extra):
        u, v = rnd.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


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
        assert modularity(graph, result.clustering) == pytest.approx(
            result.modularity, abs=1e-12
        )


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
