"""Adapters between the ad-hoc perf-counter dataclasses and the registry.

The performance layers each grew their own counter object —
:class:`~repro.compute.stats.ComputeStats` (kernel construction),
:class:`~repro.experiments.engine.EngineStats` (the sweep engine), and
:class:`~repro.core.batch.BatchStats` (batch serving).  Their public APIs
stay exactly as they were; this module re-expresses them as *views over
the registry*:

- ``publish_*_stats`` mirrors a stats object into the active registry's
  namespaced counters and gauges (no-op when telemetry is disabled), so
  one trace/summary carries every layer's counters;
- ``*_stats_view`` reconstructs the dataclass from a
  :class:`~repro.obs.registry.TelemetrySnapshot`, so exporters, the
  ``repro obs report`` command, and tests can round-trip through the
  registry without importing the producing layer.

Scalar fields round-trip exactly (integers bit-for-bit, floats as
written).  Per-shard wall-time *lists* are aggregated — the registry
stores count and total (``batch.shard_seconds``), not the sequence.
Nested ``compute`` stats live under their own ``compute.*`` namespace,
which :func:`~repro.compute.build_kernel` publishes once per
construction, so the engine and batch adapters leave it alone and their
views rebuild ``compute`` from it.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import (
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
)

__all__ = [
    "publish_compute_stats",
    "publish_engine_stats",
    "publish_batch_stats",
    "compute_stats_view",
    "engine_stats_view",
    "batch_stats_view",
]


def _registry(registry: Optional[Telemetry]) -> Optional[Telemetry]:
    return registry if registry is not None else get_telemetry()


def publish_compute_stats(stats, registry: Optional[Telemetry] = None) -> None:
    """Mirror one :class:`ComputeStats` into ``compute.*`` counters/gauges."""
    registry = _registry(registry)
    if registry is None or not stats.measure:
        return
    registry.incr("compute.builds")
    registry.incr(f"compute.measure.{stats.measure}")
    registry.incr("compute.rows", stats.rows)
    registry.incr("compute.nnz", stats.nnz)
    registry.incr("compute.blocks", stats.blocks)
    registry.incr("compute.spill.blocks", stats.spill_blocks)
    registry.incr("compute.spill.bytes", stats.spill_bytes)
    if stats.memory_budget_bytes:
        registry.set_gauge(
            "compute.memory_budget_bytes", stats.memory_budget_bytes
        )
    registry.add_gauge("compute.total_seconds", stats.total_seconds)
    registry.set_gauge("compute.rows_per_second", stats.rows_per_second)
    for stage, seconds in stats.stage_seconds.items():
        registry.add_gauge(f"compute.stage.{stage}", seconds)


def publish_engine_stats(stats, registry: Optional[Telemetry] = None) -> None:
    """Mirror one :class:`EngineStats` into ``engine.*`` counters/gauges.

    Counters accumulate across calls, so publish *deltas* or publish once
    at the end of a sweep (the engine publishes on close/finalise).
    """
    registry = _registry(registry)
    if registry is None:
        return
    registry.incr("engine.measures", stats.measures)
    registry.incr("engine.cells", stats.cells)
    registry.incr("engine.repeats", stats.repeats)
    registry.incr("engine.legacy_cells", stats.legacy_cells)
    registry.incr("engine.cache_hits", stats.cache_hits)
    registry.incr("engine.cache_misses", stats.cache_misses)
    registry.add_gauge("engine.kernel_seconds", stats.kernel_seconds)
    registry.add_gauge("engine.wall_seconds", stats.wall_seconds)
    for edge, count in stats.tier_transitions.items():
        registry.incr(f"engine.tier_transition.{edge}", count)


def publish_batch_stats(stats, registry: Optional[Telemetry] = None) -> None:
    """Mirror one :class:`BatchStats` into ``batch.*`` counters/gauges."""
    registry = _registry(registry)
    if registry is None:
        return
    registry.incr(f"batch.mode.{stats.mode}")
    registry.incr("batch.users_served", stats.users_served)
    registry.incr("batch.num_shards", stats.num_shards)
    registry.incr("batch.fallback_shards", stats.fallback_shards)
    registry.incr("batch.fallback_users", stats.fallback_users)
    registry.incr("batch.cache_hits", stats.cache_hits)
    registry.incr("batch.cache_misses", stats.cache_misses)
    registry.add_gauge("batch.wall_seconds", stats.wall_seconds)
    registry.add_gauge("batch.kernel_seconds", stats.kernel_seconds)
    registry.set_gauge("batch.rows_per_second", stats.rows_per_second)
    registry.add_gauge("batch.shard_seconds", sum(stats.shard_seconds))
    for edge, count in stats.tier_transitions.items():
        registry.incr(f"batch.tier_transition.{edge}", count)


def _mode_from(snapshot: TelemetrySnapshot, prefix: str) -> str:
    """The most-counted ``<prefix><mode>`` label in the snapshot."""
    best = ""
    best_count = 0
    for name, count in snapshot.counters.items():
        if name.startswith(prefix) and count > best_count:
            best = name[len(prefix):]
            best_count = count
    return best


def _transitions_from(snapshot: TelemetrySnapshot, prefix: str):
    return {
        name[len(prefix):]: count
        for name, count in snapshot.counters.items()
        if name.startswith(prefix) and count
    }


def compute_stats_view(snapshot: TelemetrySnapshot):
    """Reconstruct a :class:`ComputeStats` from a snapshot's ``compute.*``.

    Returns None when the snapshot records no kernel construction.
    Aggregates across builds: rows/nnz/blocks and stage seconds are the
    published totals.
    """
    from repro.compute.stats import ComputeStats

    if not snapshot.counters.get("compute.builds"):
        return None
    stats = ComputeStats(
        measure=_mode_from(snapshot, "compute.measure."),
        rows=snapshot.counters.get("compute.rows", 0),
        nnz=snapshot.counters.get("compute.nnz", 0),
        blocks=snapshot.counters.get("compute.blocks", 0),
        memory_budget_bytes=int(
            snapshot.gauges.get("compute.memory_budget_bytes", 0)
        ),
        spill_blocks=snapshot.counters.get("compute.spill.blocks", 0),
        spill_bytes=snapshot.counters.get("compute.spill.bytes", 0),
        total_seconds=snapshot.gauges.get("compute.total_seconds", 0.0),
        rows_per_second=snapshot.gauges.get("compute.rows_per_second", 0.0),
    )
    for name, seconds in snapshot.gauges.items():
        if name.startswith("compute.stage."):
            stats.stage_seconds[name[len("compute.stage."):]] = seconds
    return stats


def engine_stats_view(snapshot: TelemetrySnapshot):
    """Reconstruct an :class:`EngineStats` from a snapshot's ``engine.*``."""
    from repro.experiments.engine import EngineStats

    stats = EngineStats(
        measures=snapshot.counters.get("engine.measures", 0),
        cells=snapshot.counters.get("engine.cells", 0),
        repeats=snapshot.counters.get("engine.repeats", 0),
        legacy_cells=snapshot.counters.get("engine.legacy_cells", 0),
        cache_hits=snapshot.counters.get("engine.cache_hits", 0),
        cache_misses=snapshot.counters.get("engine.cache_misses", 0),
        kernel_seconds=snapshot.gauges.get("engine.kernel_seconds", 0.0),
        wall_seconds=snapshot.gauges.get("engine.wall_seconds", 0.0),
        compute=compute_stats_view(snapshot),
    )
    stats.tier_transitions.update(
        _transitions_from(snapshot, "engine.tier_transition.")
    )
    return stats


def batch_stats_view(snapshot: TelemetrySnapshot):
    """Reconstruct a :class:`BatchStats` from a snapshot's ``batch.*``.

    Per-shard wall times come back aggregated: the view's
    ``shard_seconds`` holds one entry, the published total.
    """
    from repro.core.batch import BatchStats

    stats = BatchStats(
        mode=_mode_from(snapshot, "batch.mode.") or "sequential",
        users_served=snapshot.counters.get("batch.users_served", 0),
        num_shards=snapshot.counters.get("batch.num_shards", 0),
        fallback_shards=snapshot.counters.get("batch.fallback_shards", 0),
        fallback_users=snapshot.counters.get("batch.fallback_users", 0),
        cache_hits=snapshot.counters.get("batch.cache_hits", 0),
        cache_misses=snapshot.counters.get("batch.cache_misses", 0),
        wall_seconds=snapshot.gauges.get("batch.wall_seconds", 0.0),
        kernel_seconds=snapshot.gauges.get("batch.kernel_seconds", 0.0),
        rows_per_second=snapshot.gauges.get("batch.rows_per_second", 0.0),
        compute=compute_stats_view(snapshot),
    )
    total_shard_seconds = snapshot.gauges.get("batch.shard_seconds", 0.0)
    if total_shard_seconds:
        stats.shard_seconds.append(total_shard_seconds)
    stats.tier_transitions.update(
        _transitions_from(snapshot, "batch.tier_transition.")
    )
    return stats
