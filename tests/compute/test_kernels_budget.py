"""Tests for memory-budgeted kernel construction (spill path)."""

import numpy as np
import pytest

from repro.compute.kernels import _budget_bounds, build_kernel
from repro.compute.adjacency import adjacency_csr
from repro.compute.stats import ComputeStats
from repro.graph.generators import erdos_renyi_graph
from repro.obs.registry import Telemetry, set_telemetry
from repro.similarity.base import get_measure


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(200, 0.06, np.random.default_rng(5))


@pytest.mark.parametrize("measure_name", ["cn", "aa", "ra", "gd", "kz"])
def test_budgeted_kernel_bit_identical(graph, measure_name):
    measure = get_measure(measure_name)
    unbudgeted = build_kernel(graph, measure)
    budgeted = build_kernel(graph, measure, memory_budget_bytes=100_000)
    assert (unbudgeted.matrix != budgeted.matrix).nnz == 0


def test_spill_counters_recorded(graph):
    stats = ComputeStats()
    build_kernel(
        graph, get_measure("cn"), memory_budget_bytes=100_000, stats=stats
    )
    assert stats.memory_budget_bytes == 100_000
    assert stats.blocks > 1
    assert stats.spill_blocks == stats.blocks
    assert stats.spill_bytes > 0


def test_spill_counters_published_to_telemetry(graph):
    registry = Telemetry()
    set_telemetry(registry)
    try:
        build_kernel(graph, get_measure("cn"), memory_budget_bytes=100_000)
        snapshot = registry.snapshot()
    finally:
        set_telemetry(None)
    assert snapshot.counters["compute.spill.blocks"] > 0
    assert snapshot.counters["compute.spill.bytes"] > 0
    assert snapshot.gauges["compute.memory_budget_bytes"] == 100_000


def test_no_spill_without_budget(graph):
    stats = ComputeStats()
    build_kernel(graph, get_measure("cn"), stats=stats)
    assert stats.memory_budget_bytes == 0
    assert stats.spill_blocks == 0
    assert stats.spill_bytes == 0


def test_tiny_budget_still_correct(graph):
    """Even a budget far below one row's cost degrades to singleton
    blocks, never wrong answers."""
    unbudgeted = build_kernel(graph, get_measure("cn"))
    stats = ComputeStats()
    tiny = build_kernel(
        graph, get_measure("cn"), memory_budget_bytes=1, stats=stats
    )
    assert (unbudgeted.matrix != tiny.matrix).nnz == 0
    assert stats.blocks == graph.num_users


def test_generous_budget_uses_fixed_partition(graph):
    """A budget larger than the whole kernel degenerates to the
    block_size-capped partition."""
    stats = ComputeStats()
    build_kernel(
        graph,
        get_measure("cn"),
        block_size=64,
        memory_budget_bytes=1 << 34,
        stats=stats,
    )
    assert stats.blocks == (graph.num_users + 63) // 64


def test_budget_bounds_cover_all_rows(graph):
    adj = adjacency_csr(graph)
    bounds = _budget_bounds(adj, {"kind": "cn"}, 50_000, 2048)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == graph.num_users
    for (_, stop), (next_start, _) in zip(bounds, bounds[1:]):
        assert stop == next_start
    assert all(stop > start for start, stop in bounds)


def test_invalid_budget_rejected(graph):
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        build_kernel(graph, get_measure("cn"), memory_budget_bytes=0)
