"""Submit, supervise, and collect distributed tradeoff sweeps.

Three entry points:

- :func:`submit_tradeoff_sweep` decomposes a ``run_tradeoff`` call into
  (measure, epsilon) cell tasks and initialises a
  :class:`~repro.dist.queue.SweepQueue` directory (idempotent for the
  same sweep).
- :func:`run_distributed_tradeoff` is the drop-in distributed variant of
  :func:`~repro.experiments.tradeoff.run_tradeoff`: it submits (or
  attaches to) a queue, waits while external workers drain it — reaping
  expired leases so dead workers never wedge the sweep — and **degrades
  gracefully**: if no worker shows signs of life for ``grace_s``
  seconds, the orchestrator works the queue itself, in process, through
  the very same worker code path.  Either way the sweep finishes.
- :func:`collect_results` assembles the final list of
  :class:`~repro.experiments.tradeoff.TradeoffCell` from the shared
  checkpoint by calling ``run_tradeoff`` one last time: a
  fully-checkpointed call costs only file reads, and any cell the queue
  quarantined (poisoned) is simply computed in-parent — the last rung of
  the degradation ladder, so a sweep with poisoned cells still returns
  complete, bit-exact results.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Union

from repro.cache.store import SimilarityStore
from repro.datasets.dataset import SocialRecDataset
from repro.experiments.tradeoff import TradeoffCell, run_tradeoff
from repro.obs.registry import incr
from repro.obs.spans import span
from repro.similarity.base import SimilarityMeasure

from .queue import CellTask, QueueStatus, SweepQueue, task_id_for
from .spec import SweepSpec, dataset_descriptor
from .worker import SweepWorker

__all__ = [
    "submit_tradeoff_sweep",
    "run_distributed_tradeoff",
    "collect_results",
    "queue_status",
]


def _build_tasks(spec: SweepSpec) -> List[CellTask]:
    return [
        CellTask(
            task_id=task_id_for(measure, epsilon),
            measure=measure,
            epsilon=epsilon,
        )
        for measure in spec.measures
        for epsilon in spec.epsilons
    ]


def submit_tradeoff_sweep(
    queue_dir: str,
    spec: SweepSpec,
    clock: Callable[[], float] = time.time,
) -> SweepQueue:
    """Create (or re-attach to) the queue for ``spec`` at ``queue_dir``.

    Idempotent: resubmitting the identical spec keeps all recorded
    progress; a different spec at the same directory raises
    :class:`~repro.exceptions.SweepQueueError` rather than mixing sweeps.
    """
    with span("dist.submit"):
        queue = SweepQueue.create(
            queue_dir, spec.to_dict(), _build_tasks(spec), clock=clock
        )
    incr("dist.sweeps_submitted")
    return queue


def run_distributed_tradeoff(
    dataset: SocialRecDataset,
    measures: Sequence[SimilarityMeasure],
    epsilons: Sequence[float],
    ns: Sequence[int],
    queue_dir: str,
    repeats: int = 10,
    sample_size: Optional[int] = None,
    louvain_runs: int = 10,
    seed: int = 0,
    max_attempts: int = 3,
    grace_s: float = 5.0,
    poll_s: float = 0.2,
    timeout_s: Optional[float] = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
) -> List[TradeoffCell]:
    """Run a tradeoff sweep through a work queue, with graceful fallback.

    External workers (``repro sweep worker --queue ...``) may attach to
    ``queue_dir`` at any time — before, during, or instead of this call.
    The orchestrator supervises: it reaps expired leases (so a worker
    SIGKILL'd mid-cell delays the sweep by at most one lease TTL) and, if
    the queue sits with no live lease and no progress for ``grace_s``
    seconds, works the remaining cells itself in process.  The returned
    result is bit-identical to single-process ``run_tradeoff`` either
    way.

    Args:
        queue_dir: the queue root (created if needed).
        grace_s: how long the queue may sit idle — no live leases, no
            completions — before the orchestrator stops waiting for
            external workers and degrades to in-process execution.
        poll_s: supervision poll period.
        timeout_s: optional overall supervision budget; when it expires
            the orchestrator degrades to in-process execution rather
            than waiting longer.  (The sweep still finishes.)
        (remaining args: exactly as :func:`run_tradeoff`.)

    Returns:
        One :class:`TradeoffCell` per (measure, epsilon, n).
    """
    spec = SweepSpec.build(
        dataset=dataset_descriptor(dataset=dataset),
        measures=[m.name for m in measures],
        epsilons=epsilons,
        ns=ns,
        repeats=repeats,
        sample_size=sample_size,
        louvain_runs=louvain_runs,
        seed=seed,
        max_attempts=max_attempts,
    )
    queue = submit_tradeoff_sweep(queue_dir, spec, clock=clock)
    started = clock()
    idle_since: Optional[float] = None
    last_done = -1
    with span("dist.supervise"):
        while True:
            status = queue.status()
            if status.remaining == 0:
                break
            if status.done != last_done:
                last_done = status.done
                idle_since = None  # progress: someone is alive
            if status.active > 0:
                idle_since = None  # live leases: workers attached
            now = clock()
            if idle_since is None:
                idle_since = now
            timed_out = timeout_s is not None and now - started >= timeout_s
            if now - idle_since >= grace_s or timed_out:
                # Nobody is working (or we are out of patience): the
                # outstanding leases are declared orphaned and reclaimed
                # whole, then the orchestrator degrades to in-process
                # execution via the same worker code path — queue
                # bookkeeping stays consistent for any worker that
                # attaches later, and a holder that was in fact alive
                # finds out at its next heartbeat (results stay bit-exact
                # either way: cells are deterministic and completion
                # markers are idempotent).
                incr("dist.degraded_inprocess")
                queue.reap("orchestrator", force=True)
                SweepWorker(
                    queue,
                    dataset=dataset,
                    worker_id="orchestrator-inprocess",
                    lease_ttl=max(grace_s, 30.0),
                    poll_interval=poll_s,
                    max_idle_s=max(grace_s, 1.0),
                    clock=clock,
                    sleep=sleep,
                ).run()
                break
            queue.reap("orchestrator")
            sleep(poll_s)
    return collect_results(queue, dataset, measures)


def collect_results(
    queue: Union[SweepQueue, str],
    dataset: Optional[SocialRecDataset] = None,
    measures: Optional[Sequence[SimilarityMeasure]] = None,
    store: Optional[SimilarityStore] = None,
) -> List[TradeoffCell]:
    """Assemble the final result from a queue's shared checkpoint.

    Implemented as one more ``run_tradeoff`` call against the shared
    checkpoint: completed cells are pure file reads; cells the queue
    poisoned (or that no worker ever finished) are computed here, in the
    calling process — so the caller always gets a complete result, and
    gets it bit-exactly, whatever happened to the workers.
    """
    if isinstance(queue, str):
        queue = SweepQueue(queue)
    spec = SweepSpec.from_dict(queue.spec)
    dataset = spec.resolve_dataset(dataset)
    if measures is None:
        from repro.similarity.base import get_measure

        measures = [get_measure(name) for name in spec.measures]
    with span("dist.collect"):
        return run_tradeoff(
            dataset,
            list(measures),
            epsilons=spec.epsilon_values(),
            ns=spec.ns,
            repeats=spec.repeats,
            sample_size=spec.sample_size,
            louvain_runs=spec.louvain_runs,
            seed=spec.seed,
            checkpoint=queue.checkpoint_path,
            store=store if store is not None else SimilarityStore(queue.cache_dir),
        )


def queue_status(queue_dir: str) -> QueueStatus:
    """Convenience: one status scan of the queue at ``queue_dir``."""
    return SweepQueue(queue_dir).status()
