"""Orchestrator tests: submit, supervise, degrade, collect."""

import json
import os
import threading

import pytest

from repro.dist import (
    SweepSpec,
    SweepWorker,
    collect_results,
    queue_status,
    run_distributed_tradeoff,
    submit_tradeoff_sweep,
)
from repro.exceptions import SweepQueueError
from repro.obs import Telemetry, telemetry
from repro.similarity.base import get_measure

from .conftest import (
    EPSILONS,
    MEASURES,
    NS,
    REPEATS,
    SEED,
    as_tuples,
    tiny_spec,
)


def orchestrate(dataset, queue_dir, **kwargs):
    kwargs.setdefault("grace_s", 0.05)
    kwargs.setdefault("poll_s", 0.01)
    return run_distributed_tradeoff(
        dataset,
        [get_measure(m) for m in MEASURES],
        EPSILONS,
        NS,
        queue_dir=queue_dir,
        repeats=REPEATS,
        seed=SEED,
        **kwargs,
    )


class TestGracefulDegradation:
    def test_no_workers_degrades_to_inprocess(
        self, tiny_dataset, baseline, tmp_path
    ):
        """With nobody attached, the orchestrator runs the sweep itself —
        same results, queue bookkeeping consistent."""
        queue_dir = str(tmp_path / "queue")
        registry = Telemetry()
        with telemetry(registry):
            result = orchestrate(tiny_dataset, queue_dir)
        assert as_tuples(result) == baseline
        status = queue_status(queue_dir)
        assert status.done == status.total == 3
        counters = registry.snapshot().counters
        assert counters["dist.degraded_inprocess"] == 1
        assert counters["dist.completed"] == 3

    def test_partial_progress_resumed(self, tiny_dataset, baseline, tmp_path):
        """An orchestrator attaching to a half-drained queue finishes
        only the remainder."""
        queue_dir = str(tmp_path / "queue")
        queue = submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        SweepWorker(queue, dataset=tiny_dataset, max_cells=1).run()
        assert queue_status(queue_dir).done == 1
        result = orchestrate(tiny_dataset, queue_dir)
        assert as_tuples(result) == baseline

    def test_timeout_forces_degradation(self, tiny_dataset, baseline, tmp_path):
        """A stuck queue (live-looking lease, nobody home) cannot outwait
        a timeout: the orchestrator degrades and finishes."""
        queue_dir = str(tmp_path / "queue")
        queue = submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        queue.claim("ghost-worker", lease_ttl=3600.0)  # never completes
        result = orchestrate(
            tiny_dataset, queue_dir, grace_s=3600.0, timeout_s=0.05
        )
        assert as_tuples(result) == baseline


class TestWithExternalWorker:
    def test_orchestrator_waits_for_attached_worker(
        self, tiny_dataset, baseline, tmp_path
    ):
        """A live worker's leases hold the orchestrator's patience: it
        supervises rather than degrading, then collects."""
        queue_dir = str(tmp_path / "queue")
        queue = submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        worker = SweepWorker(
            queue, dataset=tiny_dataset, worker_id="external", max_idle_s=5.0
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            result = orchestrate(tiny_dataset, queue_dir, grace_s=30.0)
        finally:
            thread.join(timeout=10.0)
        assert as_tuples(result) == baseline
        # the worker did the cells; the orchestrator only collected
        assert worker.stats.cells_completed == 3


class TestCollect:
    def test_collect_from_path(self, tiny_dataset, baseline, tmp_path):
        queue_dir = str(tmp_path / "queue")
        queue = submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        SweepWorker(queue, dataset=tiny_dataset, max_idle_s=2.0).run()
        result = collect_results(queue_dir, dataset=tiny_dataset)
        assert as_tuples(result) == baseline

    def test_collect_computes_missing_cells(
        self, tiny_dataset, baseline, tmp_path
    ):
        """collect_results on a queue nobody worked still returns the
        full sweep (computed in-parent) — the ladder's last rung."""
        queue_dir = str(tmp_path / "queue")
        submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        result = collect_results(queue_dir, dataset=tiny_dataset)
        assert as_tuples(result) == baseline

    def test_collect_loads_a_spec_with_engine_and_backend_keys(
        self, tiny_dataset, baseline, tmp_path
    ):
        """Queues written before the sweep had one engine and one kernel
        path record ``engine`` and ``backend``; they still load and
        collect."""
        queue_dir = str(tmp_path / "queue")
        submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        spec_path = os.path.join(queue_dir, "spec.json")
        with open(spec_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload.update(engine="reference", backend="python")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert SweepSpec.from_dict(payload) == tiny_spec(tiny_dataset)
        result = collect_results(queue_dir, dataset=tiny_dataset)
        assert as_tuples(result) == baseline

    def test_external_dataset_required(self, tiny_dataset, tmp_path):
        """A spec recording an in-memory dataset cannot be resolved
        without being handed that dataset."""
        queue_dir = str(tmp_path / "queue")
        submit_tradeoff_sweep(queue_dir, tiny_spec(tiny_dataset))
        with pytest.raises(SweepQueueError, match="in-memory dataset"):
            collect_results(queue_dir)

    def test_status_of_missing_queue_raises(self, tmp_path):
        with pytest.raises(SweepQueueError):
            queue_status(str(tmp_path / "nope"))
