"""Kill-recovery stress test: SIGKILL a real worker process mid-cell.

A subprocess worker claims a cell and stalls inside it (an injected
``slow`` fault — deterministic "mid-cell"), heartbeating on a short
lease.  The test SIGKILLs it, waits out the lease, and lets a second
worker drain the queue: the lease must be reclaimed, no finished work
lost, and the final sweep bit-identical to the single-process baseline.
This is the executable form of the module's recovery guarantee.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.dist import SweepQueue, SweepSpec, SweepWorker, collect_results
from repro.dist import dataset_descriptor, submit_tradeoff_sweep
from repro.obs import telemetry

from .conftest import EPSILONS, MEASURES, NS, REPEATS, SEED, as_tuples

LEASE_TTL = 1.0

# Claims a cell, then stalls 300s inside it while heartbeating — until
# SIGKILLed.  argv[1] is the queue directory.
WORKER_SCRIPT = """
import sys
from repro.dist import SweepWorker
from repro.resilience.faults import FaultPlan, FaultSpec

plan = FaultPlan(
    [FaultSpec(site="dist.worker", kind="slow", delay=300.0, on_call=1)]
)
with plan.installed():
    SweepWorker(
        sys.argv[1],
        lease_ttl=%r,
        heartbeat_interval=0.2,
        max_idle_s=30.0,
    ).run()
""" % (
    LEASE_TTL,
)


def _wait_for(predicate, timeout_s, interval=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.mark.faults
class TestKillRecovery:
    def test_sigkilled_worker_mid_cell_recovers_bit_exact(
        self, tiny_dataset, baseline, tmp_path
    ):
        queue_dir = str(tmp_path / "queue")
        # A synthetic descriptor, so the subprocess regenerates the
        # identical dataset from the recipe (seeded generation).
        spec = SweepSpec.build(
            dataset=dataset_descriptor(preset="lastfm", scale=0.04, seed=1),
            measures=MEASURES,
            epsilons=EPSILONS,
            ns=NS,
            repeats=REPEATS,
            seed=SEED,
        )
        queue = submit_tradeoff_sweep(queue_dir, spec)
        leases_dir = os.path.join(queue_dir, "leases")

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", WORKER_SCRIPT, queue_dir], env=env
        )
        try:
            claimed = _wait_for(lambda: os.listdir(leases_dir), timeout_s=90.0)
            assert claimed, "subprocess worker never claimed a cell"
            # The worker is stalled inside the cell (the slow fault fires
            # after the claim, before any computation): kill it there.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)

        # The death left the lease behind — the exact wedge this layer
        # exists to undo.
        assert os.listdir(leases_dir)
        assert queue.status().done == 0
        time.sleep(LEASE_TTL + 0.5)  # let the orphaned lease expire

        rescue = SweepWorker(
            SweepQueue(queue_dir),
            dataset=tiny_dataset,
            worker_id="rescue",
            max_idle_s=5.0,
        )
        with telemetry() as registry:
            stats = rescue.run()
        assert registry.counter("dist.reclaims") >= 1  # the orphan was reclaimed
        assert stats.cells_completed == 3
        status = rescue.queue.status()
        assert status.done == 3 and status.poisoned == 0

        result = collect_results(queue_dir, dataset=tiny_dataset)
        assert as_tuples(result) == baseline
