"""Worker-level tests: bit-exactness, retry, poison, heartbeat."""

import math
import threading
import time

import pytest

from repro.dist import SweepWorker, collect_results
from repro.dist.worker import _Heartbeat
from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.tradeoff import run_tradeoff
from repro.obs import telemetry
from repro.resilience import FaultPlan, FaultSpec
from repro.similarity.base import get_measure

from .conftest import EPSILONS, MEASURES, NS, REPEATS, SEED, FakeClock, as_tuples


class TestBitExactness:
    def test_single_worker_matches_single_process(
        self, queue_factory, tiny_dataset, baseline
    ):
        """The headline guarantee: a drained queue yields the exact cells
        an uninterrupted run_tradeoff produces."""
        queue = queue_factory()
        stats = SweepWorker(queue, dataset=tiny_dataset, max_idle_s=2.0).run()
        assert stats.cells_completed == 3
        assert queue.status().done == 3
        result = collect_results(queue, dataset=tiny_dataset)
        assert as_tuples(result) == baseline

    def test_two_workers_interleaved(self, queue_factory, tiny_dataset, baseline):
        queue = queue_factory()
        first = SweepWorker(
            queue, dataset=tiny_dataset, worker_id="w1", max_cells=1
        ).run()
        second = SweepWorker(
            queue, dataset=tiny_dataset, worker_id="w2", max_idle_s=2.0
        ).run()
        assert first.cells_completed == 1
        assert second.cells_completed == 2
        assert as_tuples(collect_results(queue, dataset=tiny_dataset)) == baseline
        # no cell was computed twice
        assert SweepCheckpoint(queue.checkpoint_path).duplicate_cells == 0

    def test_worker_skips_checkpointed_cells(
        self, queue_factory, tiny_dataset, baseline
    ):
        """A worker attaching after the work is checkpointed (e.g. its
        predecessor died between checkpointing and marking done) only
        writes the bookkeeping."""
        queue = queue_factory()
        run_tradeoff(
            tiny_dataset,
            [get_measure(m) for m in MEASURES],
            epsilons=EPSILONS,
            ns=NS,
            repeats=REPEATS,
            seed=SEED,
            checkpoint=queue.checkpoint_path,
        )
        stats = SweepWorker(queue, dataset=tiny_dataset, max_idle_s=2.0).run()
        assert stats.cells_completed == 3
        assert stats.cells_skipped_cached == 3
        assert as_tuples(collect_results(queue, dataset=tiny_dataset)) == baseline


@pytest.mark.faults
class TestWorkerFaults:
    def test_transient_fault_retried_in_place(
        self, queue_factory, tiny_dataset, baseline
    ):
        """One OSError inside a cell: the seeded retry policy absorbs it
        without touching the lease-level attempt accounting."""
        queue = queue_factory()
        plan = FaultPlan([FaultSpec(site="dist.worker", on_call=1)])
        with telemetry() as registry, plan.installed():
            stats = SweepWorker(
                queue, dataset=tiny_dataset, max_idle_s=2.0
            ).run()
        assert stats.cells_completed == 3
        assert stats.cells_failed == 0
        assert registry.counter("dist.failures") == 0
        assert as_tuples(collect_results(queue, dataset=tiny_dataset)) == baseline

    def test_persistent_fault_poisons_then_sweep_completes(
        self, queue_factory, tiny_dataset, baseline
    ):
        """A cell that fails on every attempt is quarantined after the
        budget; the worker still completes the rest, and collect_results
        computes the poisoned cell in-parent — full, bit-exact output."""
        queue = queue_factory()
        # ValueError is not in the retry policy's retry_on, so each lease
        # attempt hits dist.worker exactly once; the sorted scan keeps
        # claiming the same first cell until its 3-attempt budget is
        # spent (calls 1-3), after which the other cells run clean.
        plan = FaultPlan(
            [
                FaultSpec(site="dist.worker", on_call=c, exc=ValueError)
                for c in (1, 2, 3)
            ]
        )
        with plan.installed():
            stats = SweepWorker(
                queue, dataset=tiny_dataset, max_idle_s=2.0
            ).run()
        status = queue.status()
        assert status.poisoned == 1
        assert status.done == 2
        assert stats.cells_completed == 2
        assert stats.cells_failed == queue.max_attempts
        record = queue.poison_record(queue.task_ids()[0])
        assert record["attempts"] == queue.max_attempts
        # the degradation ladder's last rung: poisoned cells are computed
        # by the collector itself, so the result is still complete.
        assert as_tuples(collect_results(queue, dataset=tiny_dataset)) == baseline

    def test_retry_deadline_s_bounds_a_cell(self, queue_factory, tiny_dataset):
        """Wiring check: a worker retry policy with deadline_s re-raises
        the original cell error annotated, and the queue records the
        failed attempt."""
        from repro.resilience.retry import RetryPolicy

        queue = queue_factory()
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=5.0,
            jitter=0.0,
            max_delay=20.0,
            deadline_s=6.0,
            sleep=lambda s: clock.advance(s),
            clock=clock,
        )
        worker = SweepWorker(
            queue, dataset=tiny_dataset, retry=policy, max_cells=1
        )
        plan = FaultPlan(
            [FaultSpec(site="dist.worker", on_call=1, repeat=True)]
        )
        with plan.installed():
            worker.run()
        assert worker.stats.cells_failed >= 1
        assert queue.attempts(queue.task_ids()[0]) >= 1


class TestValidation:
    @pytest.mark.parametrize("ttl", [math.nan, math.inf, 0.0])
    def test_lease_ttl_must_be_finite_and_positive(self, queue_factory, ttl):
        with pytest.raises(ValueError, match="lease_ttl must be finite"):
            SweepWorker(queue_factory(), lease_ttl=ttl)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1.0, 10.0, 30.0])
    def test_heartbeat_interval_must_be_inside_the_lease(self, queue_factory, interval):
        # Event.wait(nan) and Event.wait(-1) return at once, so the
        # heartbeat thread would renew the lease in a tight loop; an
        # interval of lease_ttl or more lets the lease lapse between beats.
        with pytest.raises(ValueError, match="heartbeat_interval must be finite"):
            SweepWorker(queue_factory(), lease_ttl=10.0, heartbeat_interval=interval)

    @pytest.mark.parametrize("poll", [math.nan, math.inf, -1.0])
    def test_poll_interval_must_be_finite(self, queue_factory, poll):
        # time.sleep(nan) raises a bare ValueError at the first idle poll.
        with pytest.raises(ValueError, match="poll_interval must be finite"):
            SweepWorker(queue_factory(), poll_interval=poll)

    def test_interval_defaults_and_zero_poll_accepted(self, queue_factory):
        worker = SweepWorker(queue_factory(), lease_ttl=9.0, poll_interval=0.0)
        assert worker.heartbeat_interval == 3.0
        assert worker.poll_interval == 0.0

    @pytest.mark.parametrize("idle", [math.nan, math.inf, -1.0])
    def test_max_idle_must_be_finite(self, queue_factory, idle):
        # A NaN idle budget never runs out: `elapsed >= nan` is false.
        with pytest.raises(ValueError, match="max_idle_s must be finite"):
            SweepWorker(queue_factory(), max_idle_s=idle)


class TestHeartbeat:
    def test_background_renewal_keeps_lease_alive(self, queue_factory):
        queue = queue_factory()
        lease = queue.claim("w1", 10.0)
        beat = _Heartbeat(queue, lease, 10.0, interval=0.02, sleep=time.sleep)
        with telemetry() as registry:
            beat.start()
            time.sleep(0.2)
            beat.stop()
        assert registry.counter("dist.heartbeats") >= 2
        assert not beat.lost
        assert beat.lease.expires_at > lease.expires_at

    def test_renewal_detects_theft(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        lease = queue.claim("w1", 10.0)
        beat = _Heartbeat(queue, lease, 10.0, interval=0.02, sleep=time.sleep)
        clock.advance(11.0)
        stolen = queue.claim("w2", 10.0)
        assert stolen.task.task_id == lease.task.task_id
        beat.start()
        deadline = time.monotonic() + 2.0
        while not beat.lost and time.monotonic() < deadline:
            time.sleep(0.01)
        beat.stop()
        assert beat.lost

    def test_worker_threads_do_not_leak(self, queue_factory, tiny_dataset):
        before = threading.active_count()
        queue = queue_factory()
        SweepWorker(queue, dataset=tiny_dataset, max_idle_s=2.0).run()
        assert threading.active_count() == before
