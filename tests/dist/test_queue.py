"""Unit tests for the filesystem work queue's lease protocol."""

import dataclasses
import json
import math
import os

import pytest

from repro.dist import SweepQueue, task_id_for
from repro.dist.spec import SweepSpec
from repro.exceptions import LeaseLostError, SweepQueueError
from repro.obs import telemetry
from repro.resilience import FaultPlan, FaultSpec

from .conftest import FakeClock, tiny_spec

TTL = 10.0


class TestCreate:
    def test_layout_and_tasks(self, queue_factory):
        queue = queue_factory()
        for sub in ("tasks", "leases", "attempts", "done", "poison"):
            assert os.path.isdir(os.path.join(queue.root, sub))
        assert len(queue.task_ids()) == 3  # 1 measure x 3 epsilons
        assert queue.task_ids() == sorted(queue.task_ids())
        task = queue.load_task(task_id_for("cn", "inf"))
        assert task.measure == "cn"
        assert task.epsilon == "inf"

    def test_resubmit_same_spec_is_idempotent(
        self, queue_factory, tiny_dataset, tmp_path
    ):
        from repro.dist import submit_tradeoff_sweep

        queue = queue_factory()
        lease = queue.claim("w1", TTL)
        queue.complete(lease)
        again = submit_tradeoff_sweep(
            str(tmp_path / "queue"), tiny_spec(tiny_dataset)
        )
        assert again.status().done == 1  # progress survived

    def test_resubmit_to_queue_with_retired_selector_keys(
        self, queue_factory, tiny_dataset, tmp_path
    ):
        """A queue written while specs still carried ``engine`` and
        ``backend`` accepts the same sweep and keeps its done cells."""
        from repro.dist import submit_tradeoff_sweep

        queue = queue_factory()
        queue.complete(queue.claim("w1", TTL))
        spec_path = os.path.join(queue.root, "spec.json")
        with open(spec_path, encoding="utf-8") as handle:
            stored = json.load(handle)
        stored.update(engine="vectorized", backend="auto")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(stored, handle)
        again = submit_tradeoff_sweep(str(tmp_path / "queue"), tiny_spec(tiny_dataset))
        assert again.status().done == 1  # progress survived

    def test_different_spec_rejected(
        self, queue_factory, tiny_dataset, tmp_path
    ):
        from repro.dist import submit_tradeoff_sweep

        queue_factory()
        with pytest.raises(SweepQueueError, match="different sweep spec"):
            submit_tradeoff_sweep(
                str(tmp_path / "queue"), tiny_spec(tiny_dataset, seed=99)
            )

    def test_uninitialised_directory_rejected(self, tmp_path):
        with pytest.raises(SweepQueueError, match="not an initialised"):
            SweepQueue(str(tmp_path / "nothing-here"))

    @pytest.mark.parametrize("runs", [0, -2])
    def test_spec_rejects_non_positive_louvain_runs(self, tiny_dataset, runs):
        # No worker could ever run a cell of such a spec.
        with pytest.raises(SweepQueueError, match="louvain_runs"):
            tiny_spec(tiny_dataset, louvain_runs=runs)
        payload = tiny_spec(tiny_dataset).to_dict()
        payload["louvain_runs"] = runs
        with pytest.raises(SweepQueueError, match="louvain_runs"):
            SweepSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [("repeats", 0), ("repeats", -1), ("ns", [5, 0]), ("sample_size", 0)],
    )
    def test_spec_rejects_unrunnable_sizes(self, tiny_dataset, field, value):
        # A queue of such cells exits 0 at submit and fails in every worker.
        with pytest.raises(SweepQueueError, match=field):
            dataclasses.replace(tiny_spec(tiny_dataset), **{field: value})
        payload = tiny_spec(tiny_dataset).to_dict()
        payload[field] = value
        with pytest.raises(SweepQueueError, match=field):
            SweepSpec.from_dict(payload)

    def test_spec_round_trips(self, queue_factory):
        queue = queue_factory()
        spec = SweepSpec.from_dict(queue.spec)
        assert spec.measures == ["cn"]
        assert spec.epsilons == ["inf", "1.0", "0.5"]
        assert spec.max_attempts == queue.max_attempts == 3


class TestClaim:
    def test_claims_are_exclusive(self, queue_factory):
        queue = queue_factory()
        first = queue.claim("w1", TTL)
        second = queue.claim("w2", TTL)
        third = queue.claim("w3", TTL)
        assert queue.claim("w4", TTL) is None  # all three cells leased
        ids = {lease.task.task_id for lease in (first, second, third)}
        assert len(ids) == 3
        assert all(lease.attempt == 1 for lease in (first, second, third))

    def test_claim_skips_done_and_poisoned(self, queue_factory):
        queue = queue_factory()
        done_lease = queue.claim("w1", TTL)
        queue.complete(done_lease)
        queue._quarantine(queue.task_ids()[1], 3, "test poison")
        lease = queue.claim("w2", TTL)
        assert lease is not None
        assert lease.task.task_id == queue.task_ids()[2]
        assert queue.claim("w3", TTL) is None

    def test_non_positive_ttl_rejected(self, queue_factory):
        queue = queue_factory()
        with pytest.raises(ValueError):
            queue.claim("w1", 0.0)

    @pytest.mark.parametrize("ttl", [math.nan, math.inf, -1.0])
    def test_non_finite_ttl_rejected(self, queue_factory, ttl):
        # A lease expiring at NaN would be reclaimed at once by reap()
        # and counted live by status().
        queue = queue_factory()
        with pytest.raises(ValueError, match="finite"):
            queue.claim("w1", ttl)
        assert queue.status().leased == 0

    def test_live_lease_not_stealable(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        queue.claim("w1", TTL)
        queue.claim("w1", TTL)
        queue.claim("w1", TTL)
        clock.advance(TTL / 2)  # not yet expired
        with telemetry() as registry:
            assert queue.claim("w2", TTL) is None
        assert registry.counter("dist.reclaims") == 0


class TestExpiryAndReclaim:
    def test_expired_lease_reclaimed_with_attempt_counted(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        dead = queue.claim("dead-worker", TTL)
        clock.advance(TTL + 1)
        with telemetry() as registry:
            relcaimed = queue.claim("live-worker", TTL)
        assert relcaimed is not None
        # sorted scan: the reclaimer gets the dead worker's cell first
        assert relcaimed.task.task_id == dead.task.task_id
        assert relcaimed.attempt == 2  # the death counted as one attempt
        assert registry.counter("dist.reclaims") == 1

    def test_reclaim_loop_poisons_after_budget(self, queue_factory):
        """A cell whose worker dies on every attempt marches to
        quarantine instead of wedging the sweep forever."""
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        task_id = queue.task_ids()[0]
        for _ in range(queue.max_attempts):
            lease = queue.claim("crashy", TTL)
            assert lease.task.task_id == task_id
            clock.advance(TTL + 1)  # die without completing
        # budget exhausted: next scan quarantines and moves on
        lease = queue.claim("crashy", TTL)
        assert lease.task.task_id != task_id
        assert queue.is_poisoned(task_id)
        record = queue.poison_record(task_id)
        assert record["attempts"] == queue.max_attempts

    def test_reap_unwedges_dead_workers(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        queue.claim("dead1", TTL)
        queue.claim("dead2", TTL)
        live = queue.claim("live", TTL)
        clock.advance(TTL + 1)
        queue.heartbeat(live, TTL)  # keep one lease alive through reap
        assert queue.reap() == 2
        status = queue.status()
        assert status.pending == 2 and status.leased == 1

    def test_force_reap_takes_live_leases(self, queue_factory):
        """The orchestrator's degradation path: leases it has declared
        orphaned are reclaimed even before expiry, and the evicted
        holder's next heartbeat reports the loss."""
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        lease = queue.claim("presumed-dead", TTL)
        assert queue.reap(force=True) == 1
        assert queue.status().leased == 0
        assert queue.attempts(lease.task.task_id) == 1
        with pytest.raises(LeaseLostError):
            queue.heartbeat(lease, TTL)


class TestHeartbeat:
    @pytest.mark.parametrize("ttl", [math.nan, math.inf, 0.0])
    def test_non_finite_ttl_rejected(self, queue_factory, ttl):
        queue = queue_factory()
        lease = queue.claim("w1", TTL)
        with pytest.raises(ValueError, match="finite"):
            queue.heartbeat(lease, ttl)

    def test_renewal_extends_expiry(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        lease = queue.claim("w1", TTL)
        clock.advance(TTL - 1)
        renewed = queue.heartbeat(lease, TTL)
        assert renewed.expires_at == pytest.approx(clock() + TTL)
        clock.advance(TTL - 1)  # would have expired without the renewal
        with telemetry() as registry:
            assert queue.claim("w2", TTL) is not None  # another cell, not ours
        assert registry.counter("dist.reclaims") == 0

    def test_lost_lease_raises(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        lease = queue.claim("w1", TTL)
        clock.advance(TTL + 1)
        stolen = queue.claim("w2", TTL)
        assert stolen.task.task_id == lease.task.task_id
        with telemetry() as registry, pytest.raises(LeaseLostError):
            queue.heartbeat(lease, TTL)
        assert registry.counter("dist.lease_lost") == 1
        # the thief's heartbeat still works
        queue.heartbeat(stolen, TTL)

    def test_completed_cell_heartbeat_raises(self, queue_factory):
        queue = queue_factory()
        lease = queue.claim("w1", TTL)
        queue.complete(lease)
        with pytest.raises(LeaseLostError):
            queue.heartbeat(lease, TTL)


class TestFailAndPoison:
    def test_failed_cell_returns_to_pending(self, queue_factory):
        queue = queue_factory()
        lease = queue.claim("w1", TTL)
        poisoned = queue.fail(lease, OSError("transient"))
        assert not poisoned
        assert queue.attempts(lease.task.task_id) == 1
        retry = queue.claim("w1", TTL)
        assert retry.task.task_id == lease.task.task_id
        assert retry.attempt == 2

    def test_attempt_budget_quarantines(self, queue_factory):
        queue = queue_factory()
        task_id = None
        for attempt in range(1, queue.max_attempts + 1):
            lease = queue.claim("w1", TTL)
            task_id = lease.task.task_id
            assert lease.attempt == attempt
            poisoned = queue.fail(lease, ValueError("cell is broken"))
        assert poisoned
        assert queue.is_poisoned(task_id)
        record = queue.poison_record(task_id)
        assert "ValueError" in record["reason"]
        # quarantined cells are never offered again
        remaining = {queue.claim("w1", TTL).task.task_id for _ in range(2)}
        assert task_id not in remaining

    def test_complete_is_idempotent_after_lease_loss(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        lease = queue.claim("w1", TTL)
        clock.advance(TTL + 1)
        stolen = queue.claim("w2", TTL)
        queue.complete(lease)  # original owner finishes late: still fine
        queue.complete(stolen)
        assert queue.status().done == 1


class TestStatus:
    def test_counts(self, queue_factory):
        clock = FakeClock()
        queue = queue_factory(clock=clock)
        done = queue.claim("w1", TTL)
        queue.complete(done)
        queue.claim("w2", TTL)
        status = queue.status()
        assert status.total == 3
        assert status.done == 1
        assert status.leased == 1
        assert status.pending == 1
        assert status.remaining == 2
        assert status.active == 1
        clock.advance(TTL + 1)
        assert queue.status().expired == 1
        assert queue.status().active == 0


class TestTornFiles:
    def test_torn_lease_treated_as_expired(self, queue_factory):
        """A lease file torn mid-write (worker killed inside the atomic
        rename window, or disk full) must not wedge its cell."""
        queue = queue_factory()
        lease = queue.claim("w1", TTL)
        lease_path = queue._path("leases", lease.task.task_id)
        with open(lease_path, "w", encoding="utf-8") as handle:
            handle.write('{"worker": "w1", "expi')
        reclaimed = queue.claim("w2", TTL)
        assert reclaimed is not None

    def test_malformed_task_record_raises(self, queue_factory):
        queue = queue_factory()
        task_id = queue.task_ids()[0]
        path = queue._path("tasks", task_id)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"wrong": "shape"}, handle)
        with pytest.raises(SweepQueueError, match="malformed task"):
            queue.load_task(task_id)


@pytest.mark.faults
class TestFaultInjection:
    def test_lease_site_fault_propagates(self, queue_factory):
        queue = queue_factory()
        plan = FaultPlan([FaultSpec(site="dist.lease", on_call=1)])
        with plan.installed():
            with pytest.raises(OSError, match="injected fault"):
                queue.claim("w1", TTL)
        assert queue.claim("w1", TTL) is not None  # next claim clean

    def test_heartbeat_site_fault_propagates(self, queue_factory):
        queue = queue_factory()
        lease = queue.claim("w1", TTL)
        plan = FaultPlan([FaultSpec(site="dist.heartbeat", on_call=1)])
        with plan.installed():
            with pytest.raises(OSError, match="injected fault"):
                queue.heartbeat(lease, TTL)
        queue.heartbeat(lease, TTL)  # still owned; renewal recovers
