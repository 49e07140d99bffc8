"""The sweep worker: claim a cell, heartbeat, compute, complete.

A :class:`SweepWorker` attaches to a :class:`~repro.dist.queue.SweepQueue`
and loops: claim one (measure, epsilon) cell, start a background
heartbeat thread renewing the lease, run the cell through the ordinary
``run_tradeoff`` path (restricted to that measure and epsilon, against
the queue's shared checkpoint and similarity cache), then mark the cell
done.  Transient failures are retried in place with the seeded
:class:`~repro.resilience.retry.RetryPolicy`; a cell that keeps failing
is released for other workers, and the queue quarantines it once the
attempt budget is spent.

The crucial property is that the worker adds **no new math**: a cell is
computed by the exact code path a single-process sweep uses, with the
exact seeds (every repeat's RNG stream derives from ``(master seed,
cell key)``), so the union of cells computed by any set of workers — in
any order, with any number of crashes and reclaims along the way — is
bit-identical to one uninterrupted ``run_tradeoff``.

The fault site ``dist.worker`` fires once per claimed cell, *inside* the
retry scope, which is how the tests inject crash-shaped failures into a
worker without patching anything.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.cache.store import SimilarityStore
from repro.community.clustering import Clustering
from repro.core.private import louvain_strategy
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import LeaseLostError
from repro.experiments.checkpoint import SweepCheckpoint, decode_epsilon
from repro.experiments.tradeoff import cell_key, run_tradeoff
from repro.obs.registry import incr
from repro.obs.spans import span
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.similarity.base import get_measure

from .queue import CellTask, Lease, SweepQueue, check_lease_ttl
from .spec import SweepSpec

__all__ = ["SweepWorker", "WorkerStats", "default_worker_id"]


def default_worker_id() -> str:
    """A worker id unique across hosts and processes."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class WorkerStats:
    """What one :meth:`SweepWorker.run` invocation did."""

    cells_completed: int = 0
    cells_failed: int = 0
    cells_skipped_cached: int = 0
    lease_losses: int = 0
    idle_polls: int = 0


class _Heartbeat:
    """Background lease renewal for the cell currently being computed.

    Renews every ``interval`` seconds until stopped.  On
    :class:`~repro.exceptions.LeaseLostError` (or any renewal failure
    past the retry budget) it stops renewing and raises nothing — the
    computation finishes and relies on result idempotence; ``lost``
    records what happened for the worker's bookkeeping.
    """

    def __init__(
        self,
        queue: SweepQueue,
        lease: Lease,
        lease_ttl: float,
        interval: float,
        sleep: Callable[[float], None],
    ) -> None:
        self._queue = queue
        self.lease = lease
        self._ttl = lease_ttl
        self._interval = interval
        self._sleep = sleep
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(
            target=self._loop,
            name=f"heartbeat-{lease.task.task_id}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.lease = self._queue.heartbeat(self.lease, self._ttl)
            except LeaseLostError:
                self.lost = True
                return
            except Exception:
                # A torn read or transient IO error: try again next tick;
                # the lease has ttl-interval seconds of slack.
                continue


class SweepWorker:
    """One worker process' attachment to a sweep queue.

    Args:
        queue: the queue, or a path to its root directory.
        dataset: required only when the queue's spec records an external
            (in-memory) dataset; otherwise the spec's descriptor is
            materialised on first claim.
        worker_id: stable identity for leases (default: host-pid-random).
        lease_ttl: seconds a lease stays valid between heartbeats (finite,
            > 0).  Keep it several multiples of ``heartbeat_interval``; a
            worker that dies simply stops renewing and the lease expires.
        heartbeat_interval: renewal period, finite and
            ``0 < heartbeat_interval < lease_ttl`` (default
            ``lease_ttl / 3``).
        poll_interval: idle sleep between claim scans when nothing is
            claimable but peers still hold leases (finite, >= 0).
        max_cells: stop after completing this many cells (None = run
            until the queue has no remaining work).
        max_idle_s: give up after this long without claiming anything
            (finite, >= 0; None = wait as long as work remains).
        retry: per-cell retry policy; default gives transient cell
            failures ``max_attempts=2`` in-process tries before the
            lease-level attempt accounting takes over.  The policy's
            ``deadline_s`` is the natural place for a per-cell wall-clock
            budget.
        clock / sleep: injectable for tests.
    """

    def __init__(
        self,
        queue: Union[SweepQueue, str],
        dataset: Optional[SocialRecDataset] = None,
        worker_id: Optional[str] = None,
        lease_ttl: float = 30.0,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.2,
        max_cells: Optional[int] = None,
        max_idle_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        check_lease_ttl(lease_ttl)
        if heartbeat_interval is None:
            heartbeat_interval = lease_ttl / 3.0
        # Written so that NaN, which fails every comparison, is rejected
        # too: Event.wait(nan) returns at once, so a NaN heartbeat would
        # renew the lease in a tight loop, and sleep(nan) raises.
        if not 0 < heartbeat_interval < lease_ttl:
            raise ValueError(
                f"heartbeat_interval must be finite and in (0, lease_ttl="
                f"{lease_ttl}), got {heartbeat_interval}"
            )
        if not 0 <= poll_interval < math.inf:
            raise ValueError(
                f"poll_interval must be finite and >= 0, got {poll_interval}"
            )
        if max_idle_s is not None and not 0 <= max_idle_s < math.inf:
            raise ValueError(f"max_idle_s must be finite and >= 0, got {max_idle_s}")
        self.queue = (
            queue if isinstance(queue, SweepQueue) else SweepQueue(queue, clock=clock)
        )
        self.spec = SweepSpec.from_dict(self.queue.spec)
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.max_cells = max_cells
        self.max_idle_s = max_idle_s
        self.retry = retry
        self.clock = clock
        self.sleep = sleep
        self.stats = WorkerStats()
        self._dataset = dataset
        self._clustering: Optional[Clustering] = None
        self._store: Optional[SimilarityStore] = None

    # ------------------------------------------------------------------
    # lazy shared state (built once per worker, identical across workers)
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> SocialRecDataset:
        if self._dataset is None:
            with span("dist.dataset_build"):
                self._dataset = self.spec.resolve_dataset()
        return self._dataset

    def _shared_clustering(self) -> Clustering:
        # The single-process sweep clusters once with
        # louvain_strategy(runs, seed); doing the same here (same runs,
        # same seed, same graph) reproduces that clustering bit-exactly,
        # which in turn keeps every downstream cell value identical.
        if self._clustering is None:
            with span("dist.clustering"):
                strategy = louvain_strategy(
                    runs=self.spec.louvain_runs, seed=self.spec.seed
                )
                self._clustering = strategy(self.dataset.social)
        return self._clustering

    def _shared_store(self) -> SimilarityStore:
        if self._store is None:
            self._store = SimilarityStore(self.queue.cache_dir)
        return self._store

    def _cell_retry(self) -> RetryPolicy:
        if self.retry is not None:
            return self.retry
        return RetryPolicy(
            max_attempts=2,
            base_delay=0.05,
            retry_on=(OSError,),
            seed=self.spec.seed,
            sleep=self.sleep,
            clock=time.monotonic,
        )

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------
    def run(self) -> WorkerStats:
        """Work the queue until done (or the cell/idle budget is spent)."""
        idle_since: Optional[float] = None
        while True:
            if (
                self.max_cells is not None
                and self.stats.cells_completed >= self.max_cells
            ):
                break
            lease = self.queue.claim(self.worker_id, self.lease_ttl)
            if lease is None:
                status = self.queue.status()
                if status.remaining == 0:
                    break
                now = self.clock()
                if idle_since is None:
                    idle_since = now
                elif (
                    self.max_idle_s is not None
                    and now - idle_since >= self.max_idle_s
                ):
                    break
                # Peers hold every remaining cell; make sure a dead peer
                # cannot wedge us, then wait our turn.
                self.queue.reap(self.worker_id)
                self.stats.idle_polls += 1
                self.sleep(self.poll_interval)
                continue
            idle_since = None
            self._work_cell(lease)
        return self.stats

    def _work_cell(self, lease: Lease) -> None:
        heartbeat = _Heartbeat(
            self.queue,
            lease,
            self.lease_ttl,
            self.heartbeat_interval,
            self.sleep,
        )
        heartbeat.start()
        try:
            with span("dist.cell"):
                self._cell_retry().call(self._run_cell, lease.task)
        except BaseException as exc:
            heartbeat.stop()
            if heartbeat.lost:
                self.stats.lease_losses += 1
            self.stats.cells_failed += 1
            incr("dist.worker_cell_failures")
            self.queue.fail(heartbeat.lease, exc)
            if not isinstance(exc, Exception):
                raise  # KeyboardInterrupt / SystemExit: stop the worker
            return  # the queue's attempt accounting decides the cell's fate
        heartbeat.stop()
        if heartbeat.lost:
            # We finished anyway; the result is deterministic, so whoever
            # reclaimed the cell writes the identical records.  Completing
            # is still correct (idempotent marker), and cheaper than
            # letting the reclaimer recompute.
            self.stats.lease_losses += 1
        self.queue.complete(heartbeat.lease)
        self.stats.cells_completed += 1

    # ------------------------------------------------------------------
    # one cell
    # ------------------------------------------------------------------
    def _cell_fully_checkpointed(self, task: CellTask) -> bool:
        checkpoint = SweepCheckpoint(self.queue.checkpoint_path)
        dataset_name = self.dataset.name
        return all(
            cell_key(
                dataset_name,
                task.measure,
                decode_epsilon(task.epsilon),
                n,
                self.spec.repeats,
                self.spec.seed,
                self.spec.sample_size,
            )
            in checkpoint
            for n in self.spec.ns
        )

    def _run_cell(self, task: CellTask) -> None:
        fault_point("dist.worker")
        if self._cell_fully_checkpointed(task):
            # A predecessor (possibly our own earlier attempt, killed
            # between checkpointing and completing) already did the work.
            self.stats.cells_skipped_cached += 1
            incr("dist.cells_skipped_cached")
            return
        run_tradeoff(
            self.dataset,
            [get_measure(task.measure)],
            epsilons=[decode_epsilon(task.epsilon)],
            ns=self.spec.ns,
            repeats=self.spec.repeats,
            sample_size=self.spec.sample_size,
            clustering=self._shared_clustering(),
            seed=self.spec.seed,
            checkpoint=self.queue.checkpoint_path,
            store=self._shared_store(),
        )
