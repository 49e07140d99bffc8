"""Distributed sweeps over a filesystem work queue: ``sweep
{submit,worker,status,reap}``."""

from __future__ import annotations

import argparse
import math

from repro.cli import options


def add_sweep(sub) -> None:
    p_sweep = sub.add_parser(
        "sweep",
        help="distributed tradeoff sweeps over a filesystem work queue",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_sweep_submit = sweep_sub.add_parser(
        "submit",
        help="decompose a tradeoff sweep into leaseable cell tasks "
        "(idempotent for the same sweep)",
    )
    options.add_dataset_arguments(p_sweep_submit)
    options.add_queue(p_sweep_submit)
    options.add_measures(
        p_sweep_submit, default=["cn", "aa", "gd", "kz"],
        help="similarity measures (default: cn aa gd kz)",
    )
    options.add_epsilons(
        p_sweep_submit, default=[math.inf, 1.0, 0.6, 0.1, 0.05, 0.01],
        help="privacy settings; 'inf' means no noise",
    )
    options.add_ns(p_sweep_submit, default=[10, 50, 100])
    options.add_repeats(p_sweep_submit, default=5)
    options.add_sample_size(p_sweep_submit)
    options.add_louvain_runs(p_sweep_submit, default=10)
    p_sweep_submit.add_argument(
        "--max-attempts",
        type=options.positive_int,
        default=3,
        help="failed attempts before a cell is quarantined (default: 3)",
    )
    p_sweep_submit.set_defaults(run=_cmd_submit)

    p_sweep_worker = sweep_sub.add_parser(
        "worker",
        help="claim and compute cells from a queue until it is drained",
    )
    options.add_queue(p_sweep_worker)
    p_sweep_worker.add_argument(
        "--worker-id", default=None, help="lease identity (default: host-pid)"
    )
    p_sweep_worker.add_argument(
        "--lease-ttl",
        type=options.positive_float,
        default=30.0,
        help="seconds a lease stays valid between heartbeats (default: 30)",
    )
    p_sweep_worker.add_argument(
        "--max-cells",
        type=options.positive_int,
        default=None,
        help="stop after completing this many cells (default: drain)",
    )
    p_sweep_worker.add_argument(
        "--max-idle",
        type=options.nonnegative_float,
        default=None,
        metavar="SECONDS",
        help="give up after this long without claiming anything "
        "(default: wait while work remains)",
    )
    p_sweep_worker.set_defaults(run=_cmd_worker)

    p_sweep_status = sweep_sub.add_parser(
        "status", help="one progress snapshot of a queue"
    )
    options.add_queue(p_sweep_status)
    p_sweep_status.set_defaults(run=_cmd_status)

    p_sweep_reap = sweep_sub.add_parser(
        "reap",
        help="reclaim expired leases left behind by dead workers",
    )
    options.add_queue(p_sweep_reap)
    p_sweep_reap.set_defaults(run=_cmd_reap)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.dist import SweepSpec, dataset_descriptor, submit_tradeoff_sweep

    if args.data_dir:
        descriptor = dataset_descriptor(data_dir=args.data_dir)
    else:
        descriptor = dataset_descriptor(
            preset=args.dataset, scale=options.preset_scale(args), seed=args.seed
        )
    spec = SweepSpec.build(
        dataset=descriptor,
        measures=args.measures,
        epsilons=args.epsilons,
        ns=args.ns,
        repeats=args.repeats,
        sample_size=args.sample_size,
        louvain_runs=args.louvain_runs,
        seed=args.seed,
        max_attempts=args.max_attempts,
    )
    queue = submit_tradeoff_sweep(args.queue, spec)
    status = queue.status()
    print(f"queue:       {args.queue}")
    print(f"sweep:       {spec.describe()}")
    print(
        f"tasks:       {status.total} cell(s) "
        f"({status.done} already done, {status.pending} pending)"
    )
    print(f"run workers: repro sweep worker --queue {args.queue}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import SweepWorker

    worker = SweepWorker(
        args.queue,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        max_cells=args.max_cells,
        max_idle_s=args.max_idle,
    )
    print(f"worker {worker.worker_id} attached to {args.queue}")
    stats = worker.run()
    print(
        f"worker done: {stats.cells_completed} cell(s) completed, "
        f"{stats.cells_failed} failed, "
        f"{stats.cells_skipped_cached} already checkpointed, "
        f"{stats.lease_losses} lease(s) lost"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.dist import SweepQueue

    queue = SweepQueue(args.queue)
    status = queue.status()
    print(f"queue:       {args.queue}")
    print(
        f"cells:       {status.total} total = {status.done} done, "
        f"{status.pending} pending, {status.leased} leased "
        f"({status.expired} expired), {status.poisoned} poisoned"
    )
    for task_id in queue.task_ids():
        if queue.is_poisoned(task_id):
            record = queue.poison_record(task_id) or {}
            print(
                f"  poisoned: {task_id} after "
                f"{record.get('attempts', '?')} attempt(s): "
                f"{record.get('reason', 'unknown')}"
            )
    return 0


def _cmd_reap(args: argparse.Namespace) -> int:
    from repro.dist import SweepQueue

    queue = SweepQueue(args.queue)
    reclaimed = queue.reap()
    status = queue.status()
    print(
        f"reaped {reclaimed} expired lease(s); {status.remaining} cell(s) "
        f"remaining ({status.poisoned} poisoned)"
    )
    return 0
