"""Round-trip tests for the stats -> registry publishers.

Each publisher mirrors one perf-counter dataclass into the registry; the
tests publish a known stats object and read the snapshot's counters and
gauges back directly.
"""

from repro.compute.stats import ComputeStats
from repro.core.batch import BatchStats
from repro.experiments.engine import EngineStats
from repro.obs import (
    Telemetry,
    publish_batch_stats,
    publish_compute_stats,
    publish_engine_stats,
)


def _compute_stats():
    stats = ComputeStats()
    stats.blocks = 4
    stats.add_stage("adjacency", 0.125)
    stats.add_stage("blocks", 0.5)
    stats.finish(measure="cn", rows=100, nnz=4321, total_seconds=0.25)
    return stats


class TestComputeRoundTrip:
    def test_publish_then_view(self):
        reg = Telemetry()
        stats = _compute_stats()
        publish_compute_stats(stats, reg)
        snap = reg.snapshot()
        assert snap.counters == {
            "compute.builds": 1,
            "compute.measure.cn": 1,
            "compute.rows": 100,
            "compute.nnz": 4321,
            "compute.blocks": 4,
            "compute.spill.blocks": 0,
            "compute.spill.bytes": 0,
        }
        assert snap.gauges == {
            "compute.total_seconds": 0.25,
            "compute.rows_per_second": stats.rows_per_second,
            "compute.stage.adjacency": 0.125,
            "compute.stage.blocks": 0.5,
        }

    def test_unbuilt_stats_not_published(self):
        reg = Telemetry()
        publish_compute_stats(ComputeStats(), reg)  # no build completed
        assert reg.snapshot().counters == {}

    def test_noop_when_disabled(self):
        publish_compute_stats(_compute_stats())  # no active registry


class TestEngineRoundTrip:
    def test_publish_then_view(self):
        reg = Telemetry()
        stats = EngineStats(
            measures=2,
            cells=6,
            repeats=12,
            cache_hits=1,
            cache_misses=1,
            kernel_seconds=0.5,
            wall_seconds=2.5,
            compute=_compute_stats(),
        )
        publish_engine_stats(stats, reg)
        snap = reg.snapshot()
        assert snap.counters == {
            "engine.measures": 2,
            "engine.cells": 6,
            "engine.repeats": 12,
            "engine.cache_hits": 1,
            "engine.cache_misses": 1,
        }
        # build_kernel publishes the nested ComputeStats itself, once.
        assert snap.gauges == {
            "engine.kernel_seconds": 0.5,
            "engine.wall_seconds": 2.5,
        }

    def test_counters_accumulate_across_publishes(self):
        reg = Telemetry()
        publish_engine_stats(EngineStats(cells=2, repeats=4), reg)
        publish_engine_stats(EngineStats(cells=3, repeats=6), reg)
        snap = reg.snapshot()
        assert snap.counters["engine.cells"] == 5
        assert snap.counters["engine.repeats"] == 10


class TestBatchRoundTrip:
    def test_publish_then_view(self):
        reg = Telemetry()
        stats = BatchStats(
            users_served=50,
            wall_seconds=1.5,
            rows_per_second=33.0,
            num_shards=4,
            fallback_users=5,
            cache_hits=1,
            kernel_seconds=0.25,
        )
        stats.shard_seconds.extend([0.125, 0.25, 0.5])
        publish_batch_stats(stats, reg)
        snap = reg.snapshot()
        assert snap.counters == {
            "batch.users_served": 50,
            "batch.num_shards": 4,
            "batch.fallback_users": 5,
            "batch.cache_hits": 1,
            "batch.cache_misses": 0,
        }
        # Shard times are aggregated: one gauge, the exact total.
        assert snap.gauges == {
            "batch.wall_seconds": 1.5,
            "batch.kernel_seconds": 0.25,
            "batch.rows_per_second": 33.0,
            "batch.shard_seconds": 0.875,
        }
