"""Publishers from the perf-counter dataclasses into the registry.

The performance layers each keep a small counter object —
:class:`~repro.compute.stats.ComputeStats` (kernel construction),
:class:`~repro.experiments.engine.EngineStats` (the sweep engine), and
:class:`~repro.core.batch.BatchStats` (batch serving) — which their
callers read straight off the result.  ``publish_*_stats`` mirrors one
into the active registry's namespaced counters and gauges (no-op when
telemetry is disabled), so one trace or summary carries every layer's
counters.

Per-chunk wall-time *lists* are aggregated: the registry stores the
total (``batch.shard_seconds``), not the sequence.  Nested ``compute``
stats live under their own ``compute.*`` namespace, which
:func:`~repro.compute.build_kernel` publishes once per construction, so
the engine and batch publishers leave it alone.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import Telemetry, get_telemetry

__all__ = [
    "publish_compute_stats",
    "publish_engine_stats",
    "publish_batch_stats",
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
    registry.incr("engine.cache_hits", stats.cache_hits)
    registry.incr("engine.cache_misses", stats.cache_misses)
    registry.add_gauge("engine.kernel_seconds", stats.kernel_seconds)
    registry.add_gauge("engine.wall_seconds", stats.wall_seconds)


def publish_batch_stats(stats, registry: Optional[Telemetry] = None) -> None:
    """Mirror one :class:`BatchStats` into ``batch.*`` counters/gauges."""
    registry = _registry(registry)
    if registry is None:
        return
    registry.incr("batch.users_served", stats.users_served)
    registry.incr("batch.num_shards", stats.num_shards)
    registry.incr("batch.fallback_users", stats.fallback_users)
    registry.incr("batch.cache_hits", stats.cache_hits)
    registry.incr("batch.cache_misses", stats.cache_misses)
    registry.add_gauge("batch.wall_seconds", stats.wall_seconds)
    registry.add_gauge("batch.kernel_seconds", stats.kernel_seconds)
    registry.set_gauge("batch.rows_per_second", stats.rows_per_second)
    registry.add_gauge("batch.shard_seconds", sum(stats.shard_seconds))
