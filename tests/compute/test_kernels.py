"""Equivalence and behaviour tests for the blocked kernel builder."""

import pytest

from repro.compute.kernels import build_kernel
from repro.exceptions import SimilarityError
from repro.graph.social_graph import SocialGraph
from repro.obs import telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.base import get_measure, list_measures
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import (
    CosineSimilarity,
    Jaccard,
    PreferentialAttachment,
    ResourceAllocation,
)

from tests.oracles.kernels import python_kernel

MEASURES = [
    CommonNeighbors(),
    AdamicAdar(),
    ResourceAllocation(),
    GraphDistance(),
    GraphDistance(max_distance=4),
    Katz(),
    Katz(max_length=2, alpha=0.2),
    Jaccard(),
    CosineSimilarity(),
    PreferentialAttachment(),
]
MEASURE_IDS = ["cn", "aa", "ra", "gd2", "gd4", "kz3", "kz2", "jc", "cos", "pa"]

#: Measures whose kernel rows differ from ``similarity_row`` by float
#: summation order (within 1e-9); every other kernel equals it exactly.
INEXACT = ("aa", "ra")


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
        if measure.name not in INEXACT:
            assert actual == expected, user
            continue
        assert set(actual) == set(expected), user
        for other, score in expected.items():
            assert actual[other] == pytest.approx(score, abs=tol), (user, other)


class TestEquivalence:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    def test_vectorized_rows_match_python(self, graph, measure):
        kernel = build_kernel(graph, measure)
        _rows_close(kernel, measure, graph)

    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    def test_rankings_identical(self, graph, measure):
        # Rankings are compared at the 1e-9 equivalence resolution: the
        # weighted measures (aa/ra) can differ by one ulp from a different
        # float summation order, which must never reorder anything at the
        # contract's tolerance.
        vec = build_kernel(graph, measure)
        ref = python_kernel(graph, measure)
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
        for measure in (CommonNeighbors(), Jaccard(), PreferentialAttachment()):
            full = build_kernel(graph, measure)
            for block_size in (1, 7, 64):
                blocked = build_kernel(graph, measure, block_size=block_size)
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
    """How a measure resolves to its one kernel builder."""

    def test_validate_rejects_unknown(self, graph):
        # One kernel per measure: build_kernel takes no backend selector.
        with pytest.raises(TypeError):
            build_kernel(graph, CommonNeighbors(), backend="python")

    def test_auto_resolves_by_support(self, graph):
        # Every registered measure has a kernel, so the measure alone
        # decides the builder.
        for name in list_measures():
            measure = get_measure(name)
            with telemetry() as registry:
                kernel = build_kernel(graph, measure)
            assert registry.counter(f"compute.measure.{name}") == 1
            _rows_close(kernel, measure, graph)

    def test_support_predicate(self, graph):
        build_kernel(graph, GraphDistance(max_distance=7))
        build_kernel(graph, Katz(max_length=1))
        with pytest.raises(ValueError, match="max_length"):
            Katz(max_length=4)

    def test_explicit_vectorized_unsupported_raises(self, graph):
        class Unregistered(CommonNeighbors):
            name = "no-such-kernel"

        with telemetry() as registry:
            with pytest.raises(SimilarityError, match="no similarity kernel"):
                build_kernel(graph, Unregistered())
        assert registry.snapshot().counters == {}

    def test_bad_block_size_rejected(self, graph):
        with pytest.raises(ValueError):
            build_kernel(graph, CommonNeighbors(), block_size=0)


class TestStats:
    def test_stats_populated(self, graph):
        # The counters are pinned in tests/obs/test_layer_counters.py;
        # the stages are spans inside the build's own span.
        with telemetry() as registry:
            build_kernel(graph, CommonNeighbors(), block_size=16)
        blocks = registry.counter("compute.blocks")
        assert blocks == -(-graph.num_users // 16) >= 2
        build = "compute.build_kernel"
        assert registry.span_total(build)[0] == 1
        assert registry.span_total(f"{build}/compute.adjacency")[0] == 1
        assert registry.span_total(f"{build}/compute.kernel.block")[0] == blocks
        assert registry.span_total(f"{build}/compute.assemble")[0] == 1
        assert registry.snapshot().gauges == {}


class TestFaultDegradation:
    pytestmark = pytest.mark.faults

    def test_explicit_vectorized_propagates_fault(self, graph):
        # No second implementation catches a failing block.
        plan = FaultPlan([FaultSpec(site="compute.kernel.block", on_call=1)])
        with telemetry() as registry, plan.installed():
            with pytest.raises(OSError):
                build_kernel(graph, CommonNeighbors())
        # A build that did not complete counts no work.
        assert registry.counter("compute.builds") == 0
        assert registry.counter("compute.blocks") == 0
