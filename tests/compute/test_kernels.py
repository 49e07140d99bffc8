"""Equivalence and behaviour tests for the vectorised kernel builder."""

import numpy as np
import pytest

from repro.compute.kernels import (
    build_kernel,
    python_kernel,
    resolve_backend,
    supports_vectorized_kernel,
)
from repro.compute.stats import ComputeStats, validate_backend
from repro.exceptions import ReproError
from repro.graph.social_graph import SocialGraph
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import Jaccard, ResourceAllocation

MEASURES = [
    CommonNeighbors(),
    AdamicAdar(),
    ResourceAllocation(),
    GraphDistance(),
    GraphDistance(max_distance=4),
    Katz(),
    Katz(max_length=2, alpha=0.2),
]
MEASURE_IDS = ["cn", "aa", "ra", "gd2", "gd4", "kz3", "kz2"]


@pytest.fixture(scope="module")
def graph(request):
    import random

    rnd = random.Random(11)
    g = SocialGraph()
    g.add_users(range(60))
    for _ in range(220):
        u, v = rnd.sample(range(60), 2)
        g.add_edge(u, v)
    return g


def _rows_close(kernel, measure, graph, tol=1e-9):
    for user in graph.users():
        expected = measure.similarity_row(graph, user)
        actual = kernel.row(user)
        assert set(actual) == set(expected), user
        for other, score in expected.items():
            assert actual[other] == pytest.approx(score, abs=tol), (user, other)


class TestEquivalence:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    def test_vectorized_rows_match_python(self, graph, measure):
        kernel = build_kernel(graph, measure, backend="vectorized")
        _rows_close(kernel, measure, graph)

    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    def test_rankings_identical(self, graph, measure):
        # Rankings are compared at the 1e-9 equivalence resolution: the
        # weighted measures (aa/ra) can differ by one ulp from a different
        # float summation order, which must never reorder anything at the
        # contract's tolerance.
        vec = build_kernel(graph, measure, backend="vectorized")
        ref = build_kernel(graph, measure, backend="python")
        for user in graph.users():
            rank = sorted(
                ref.row(user).items(),
                key=lambda kv: (-round(kv[1], 9), str(kv[0])),
            )
            vrank = sorted(
                vec.row(user).items(),
                key=lambda kv: (-round(kv[1], 9), str(kv[0])),
            )
            assert [k for k, _ in vrank] == [k for k, _ in rank], user

    def test_block_size_invariance(self, graph):
        full = build_kernel(graph, CommonNeighbors(), backend="vectorized")
        for block_size in (1, 7, 64):
            blocked = build_kernel(
                graph,
                CommonNeighbors(),
                backend="vectorized",
                block_size=block_size,
            )
            assert (blocked.matrix != full.matrix).nnz == 0

    def test_python_kernel_rows_are_exact(self, graph):
        measure = AdamicAdar()
        kernel = python_kernel(graph, measure)
        for user in graph.users()[:10]:
            assert kernel.row(user) == measure.similarity_row(graph, user)

    def test_empty_graph(self):
        kernel = build_kernel(SocialGraph(), CommonNeighbors())
        assert kernel.num_users == 0


class TestBackendResolution:
    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_backend("gpu")

    def test_auto_resolves_by_support(self):
        assert resolve_backend("auto", CommonNeighbors()) == "vectorized"
        assert resolve_backend("auto", Jaccard()) == "python"
        assert resolve_backend("python", CommonNeighbors()) == "python"
        assert resolve_backend("vectorized", Jaccard()) == "vectorized"

    def test_support_predicate(self):
        assert supports_vectorized_kernel(GraphDistance(max_distance=7))
        assert supports_vectorized_kernel(Katz(max_length=1))
        assert not supports_vectorized_kernel(Katz(max_length=4))
        assert not supports_vectorized_kernel(Jaccard())

    def test_explicit_vectorized_unsupported_raises(self, graph):
        with pytest.raises(ReproError):
            build_kernel(graph, Jaccard(), backend="vectorized")

    def test_auto_unsupported_runs_python(self, graph):
        stats = ComputeStats()
        kernel = build_kernel(graph, Jaccard(), backend="auto", stats=stats)
        assert stats.backend == "python"
        assert stats.fallbacks == 0
        _rows_close(kernel, Jaccard(), graph, tol=0.0)

    def test_bad_block_size_rejected(self, graph):
        with pytest.raises(ValueError):
            build_kernel(graph, CommonNeighbors(), block_size=0)


class TestStats:
    def test_stats_populated(self, graph):
        stats = ComputeStats()
        build_kernel(
            graph, CommonNeighbors(), backend="vectorized", stats=stats,
            block_size=16,
        )
        assert stats.backend == "vectorized"
        assert stats.rows == graph.num_users
        assert stats.blocks >= 2
        assert stats.rows_per_second > 0
        assert set(stats.stage_seconds) == {"adjacency", "blocks", "assemble"}

    def test_python_stats(self, graph):
        stats = ComputeStats()
        build_kernel(graph, CommonNeighbors(), backend="python", stats=stats)
        assert stats.backend == "python"
        assert "rows" in stats.stage_seconds


class TestFaultDegradation:
    pytestmark = pytest.mark.faults

    def test_auto_falls_back_to_python(self, graph):
        stats = ComputeStats()
        plan = FaultPlan(
            [FaultSpec(site="compute.kernel.block", on_call=1)]
        )
        with plan.installed():
            kernel = build_kernel(
                graph, CommonNeighbors(), backend="auto", stats=stats
            )
        assert stats.backend == "python"
        assert stats.fallbacks == 1
        _rows_close(kernel, CommonNeighbors(), graph, tol=0.0)

    def test_explicit_vectorized_propagates_fault(self, graph):
        plan = FaultPlan([FaultSpec(site="compute.kernel.block", on_call=1)])
        with plan.installed():
            with pytest.raises(OSError):
                build_kernel(graph, CommonNeighbors(), backend="vectorized")
