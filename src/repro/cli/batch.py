"""Batch serving and the kernel cache: ``batch`` and ``cache
{info,prune,warm}``, with the counter lines the counting commands print
from their telemetry registry."""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional

from repro.cli import options
from repro.similarity.base import get_measure


def add_batch(sub) -> None:
    p_batch = sub.add_parser(
        "batch",
        help="serve top-N recommendations for every user in one batch pass",
    )
    options.add_dataset_arguments(p_batch)
    options.add_measure(p_batch)
    options.add_epsilon(p_batch)
    options.add_n(p_batch, default=10)
    options.add_cache_dir(
        p_batch, help="persist/reuse similarity kernels in this directory"
    )
    options.add_profile_argument(p_batch)
    p_batch.set_defaults(run=_cmd_batch)


def add_cache(sub) -> None:
    p_cache = sub.add_parser(
        "cache", help="manage the persistent similarity-kernel cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_cache_info = cache_sub.add_parser(
        "info", help="list cached kernel artifacts and totals"
    )
    options.add_cache_dir(p_cache_info, required=True)
    p_cache_info.set_defaults(run=_cmd_cache_info)

    p_cache_prune = cache_sub.add_parser(
        "prune", help="delete artifacts, oldest first, down to a size budget"
    )
    options.add_cache_dir(p_cache_prune, required=True)
    p_cache_prune.add_argument(
        "--max-bytes",
        type=options.nonnegative_int,
        default=0,
        help="keep at most this many bytes of artifacts (default 0: empty)",
    )
    p_cache_prune.set_defaults(run=_cmd_cache_prune)

    p_cache_warm = cache_sub.add_parser(
        "warm", help="precompute and persist similarity kernels for a dataset"
    )
    options.add_dataset_arguments(p_cache_warm)
    options.add_cache_dir(p_cache_warm, required=True)
    options.add_measures(
        p_cache_warm, default=["cn", "aa", "gd", "kz"],
        help="similarity measures to warm (default: cn aa gd kz)",
    )
    options.add_profile_argument(p_cache_warm)
    p_cache_warm.set_defaults(run=_cmd_cache_warm)


def span_seconds(snapshot, leaf: str) -> float:
    """Total seconds of every span in ``snapshot`` whose name is ``leaf``."""
    return sum(
        total
        for path, (_count, total) in snapshot.span_totals.items()
        if path.rsplit("/", 1)[-1] == leaf
    )


def _since(after, before):
    """The counters and span totals ``after`` recorded beyond ``before``."""
    from repro.obs import TelemetrySnapshot

    counters = {
        name: value - before.counters.get(name, 0)
        for name, value in after.counters.items()
        if value != before.counters.get(name, 0)
    }
    span_totals = {}
    for path, (count, total) in after.span_totals.items():
        base_count, base_total = before.span_totals.get(path, (0, 0.0))
        span_totals[path] = (count - base_count, total - base_total)
    return TelemetrySnapshot(counters=counters, span_totals=span_totals)


def print_kernel_lines(snapshot, leaf: str, store) -> None:
    """Print the lines ``tradeoff`` and ``batch`` end with.

    Time in the ``leaf`` span with the similarity store's lookups, the
    kernel builds, and the store's directory when there is a store.
    """
    counters = snapshot.counters
    hits = counters.get("cache.memory_hit", 0) + counters.get("cache.disk_hit", 0)
    print(
        f"kernel:      {span_seconds(snapshot, leaf) * 1000:.0f} ms "
        f"({hits} cache hit(s), {counters.get('cache.miss', 0)} miss(es))"
    )
    compute = _compute_line(snapshot)
    if compute is not None:
        print(compute)
    if store is not None:
        print(f"cache dir:   {store.directory}")


def _compute_line(snapshot) -> Optional[str]:
    """One summary line over the kernel builds in ``snapshot``, or None."""
    counters = snapshot.counters
    builds = counters.get("compute.builds", 0)
    if not builds:
        return None
    prefix = "compute.measure."
    names = ", ".join(
        name[len(prefix) :] for name in counters if name.startswith(prefix)
    )
    rows = counters.get("compute.rows", 0)
    seconds = span_seconds(snapshot, "compute.build_kernel")
    rate = rows / seconds if seconds > 0 else 0.0
    blocks = counters.get("compute.blocks", 0)
    line = (
        f"compute:     {names} kernel{'s' if builds > 1 else ''}, "
        f"{rows} rows at {rate:,.0f} rows/s, {blocks} block(s)"
    )
    stages = ", ".join(
        f"{label} {span_seconds(snapshot, leaf) * 1000:.0f}ms"
        for label, leaf in (
            ("adjacency", "compute.adjacency"),
            ("blocks", "compute.kernel.block"),
            ("assemble", "compute.assemble"),
        )
    )
    return f"{line} [{stages}]"


def _format_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"  # pragma: no cover - loop always returns


def _cmd_batch(args: argparse.Namespace) -> int:
    """Serve every user's top-N in one batch, printing perf counters."""
    from repro import obs
    from repro.cache import SimilarityStore
    from repro.core.batch import batch_recommend_all
    from repro.core.private import PrivateSocialRecommender

    dataset = options.resolve_dataset(args)
    store = SimilarityStore(args.cache_dir) if args.cache_dir else None
    recommender = PrivateSocialRecommender(
        get_measure(args.measure), epsilon=args.epsilon, n=args.n, seed=args.seed
    )
    recommender.fit(dataset.social, dataset.preferences)
    batch_recommend_all(recommender, n=args.n, store=store)
    snapshot = obs.get_telemetry().snapshot()
    counters = snapshot.counters
    served = counters.get("batch.users_served", 0)
    wall = span_seconds(snapshot, "batch.recommend_all")
    rate = served / wall if wall > 0 else 0.0
    print(f"served {served} users in {wall:.2f}s ({rate:,.0f} rows/s)")
    print(
        f"shards:      {counters.get('batch.num_shards', 0)} "
        f"({counters.get('batch.fallback_users', 0)} zero-signal user(s) "
        "on the per-user ladder)"
    )
    shard_ms = [
        f"{event.duration * 1000:.0f}"
        for event in snapshot.spans
        if event.path.rsplit("/", 1)[-1] == "batch.chunk"
    ]
    if shard_ms:
        preview = ", ".join(shard_ms[:8]) + (", ..." if len(shard_ms) > 8 else "")
        print(f"shard wall:  [{preview}] ms")
    print_kernel_lines(snapshot, "batch.kernel", store)
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    from repro.cache import SimilarityStore

    store = SimilarityStore(args.cache_dir)
    entries = store.info()
    if not entries:
        print(f"cache {store.directory}: empty")
        return 0
    total = sum(entry.size_bytes for entry in entries)
    print(f"cache {store.directory}: {len(entries)} artifact(s), "
          f"{_format_bytes(total)}")
    for entry in entries:
        status = "ok" if entry.ok else "CORRUPT"
        try:
            fingerprint = json.loads(entry.measure)
            params = fingerprint.get("params") or {}
            measure = fingerprint["measure"] + (
                "(" + ", ".join(f"{k}={v}" for k, v in params.items()) + ")"
                if params
                else ""
            )
        except (ValueError, KeyError, TypeError):
            measure = entry.measure
        print(
            f"  {entry.key[:16]}...  {status:>7}  "
            f"{entry.num_users:>6} users  {entry.nnz:>9} nnz  "
            f"{_format_bytes(entry.size_bytes):>10}  {measure}"
        )
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    from repro.cache import SimilarityStore

    removed, freed = SimilarityStore(args.cache_dir).prune(max_bytes=args.max_bytes)
    print(
        f"pruned {removed} artifact(s), freed {_format_bytes(freed)} "
        f"(budget {_format_bytes(args.max_bytes)})"
    )
    return 0


def _cmd_cache_warm(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.cache import SimilarityStore
    from repro.cache.store import load_or_build_kernel

    store = SimilarityStore(args.cache_dir)
    registry = obs.get_telemetry()
    dataset = options.resolve_dataset(args)
    for name in args.measures:
        measure = get_measure(name)
        before = registry.snapshot()
        start = time.perf_counter()
        lookup = load_or_build_kernel(dataset.social, measure, store)
        elapsed = time.perf_counter() - start
        state = "hit" if lookup.hit else "computed"
        print(
            f"{name}: {state} in {elapsed:.2f}s "
            f"({lookup.matrix.num_users} users, {lookup.matrix.nnz} nnz) "
            f"-> {lookup.path}"
        )
        compute = _compute_line(_since(registry.snapshot(), before))
        if not lookup.hit and compute is not None:
            print("  " + compute)
    counters = registry.snapshot().counters
    hits = counters.get("cache.memory_hit", 0) + counters.get("cache.disk_hit", 0)
    print(
        f"cache stats: {hits} hit(s), {counters.get('cache.miss', 0)} miss(es), "
        f"{counters.get('cache.corrupt_recomputed', 0)} corrupt artifact(s) "
        "recomputed"
    )
    return 0
