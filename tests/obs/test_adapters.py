"""Round-trip tests for the stats <-> registry adapters."""

from repro.compute.stats import ComputeStats
from repro.core.batch import BatchStats
from repro.experiments.engine import EngineStats
from repro.obs import (
    Telemetry,
    batch_stats_view,
    compute_stats_view,
    engine_stats_view,
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
        view = compute_stats_view(reg.snapshot())
        assert view == stats

    def test_view_is_none_without_builds(self):
        assert compute_stats_view(Telemetry().snapshot()) is None

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
            legacy_cells=1,
            cache_hits=1,
            cache_misses=1,
            kernel_seconds=0.5,
            wall_seconds=2.5,
            compute=_compute_stats(),
        )
        stats.record_transition("sequential->legacy")
        # build_kernel publishes its ComputeStats once, at construction.
        publish_compute_stats(stats.compute, reg)
        publish_engine_stats(stats, reg)
        view = engine_stats_view(reg.snapshot())
        assert view == stats
        assert view.tier_transitions == {"sequential->legacy": 1}

    def test_counters_accumulate_across_publishes(self):
        reg = Telemetry()
        publish_engine_stats(EngineStats(cells=2, legacy_cells=1), reg)
        publish_engine_stats(EngineStats(cells=3, legacy_cells=1), reg)
        snap = reg.snapshot()
        assert snap.counters["engine.cells"] == 5
        assert snap.counters["engine.legacy_cells"] == 2


class TestBatchRoundTrip:
    def test_publish_then_view(self):
        reg = Telemetry()
        stats = BatchStats(
            mode="per-user",
            users_served=50,
            wall_seconds=1.5,
            rows_per_second=33.0,
            num_shards=4,
            fallback_shards=1,
            fallback_users=5,
            cache_hits=1,
            kernel_seconds=0.25,
        )
        stats.shard_seconds.extend([0.125, 0.25, 0.5])
        stats.record_transition("kernel->per-user")
        publish_batch_stats(stats, reg)
        view = batch_stats_view(reg.snapshot())
        # Shard times come back aggregated: one entry, the exact total.
        assert view.shard_seconds == [0.875]
        view.shard_seconds = stats.shard_seconds
        assert view == stats

    def test_tier_transitions_round_trip(self):
        reg = Telemetry()
        stats = BatchStats(mode="sequential", users_served=3)
        stats.record_transition("vectorized->per-user")
        publish_batch_stats(stats, reg)
        snap = reg.snapshot()
        assert snap.counters["batch.tier_transition.vectorized->per-user"] == 1
        assert batch_stats_view(snap).tier_transitions == {
            "vectorized->per-user": 1
        }
