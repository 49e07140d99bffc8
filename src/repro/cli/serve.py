"""The online serving tier: ``serve {publish,run,swap,bench}`` publish a
release artifact, serve it over HTTP (one process or a prefork fleet),
hot-swap a running service, and drive a seeded load generator at it."""

from __future__ import annotations

import argparse
import asyncio
import math
import os
import sys
import time

from repro.cli import options
from repro.exceptions import ReproError
from repro.similarity.base import get_measure


def add_serve(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="online serving tier: async HTTP service over a published release",
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    p_serve_publish = serve_sub.add_parser(
        "publish",
        help="fit the private recommender and save its release artifact",
    )
    options.add_dataset_arguments(p_serve_publish)
    options.add_measure(p_serve_publish)
    options.add_epsilon(p_serve_publish)
    options.add_release(
        p_serve_publish, help="write the .npz artifact here", required=True
    )
    p_serve_publish.set_defaults(run=_cmd_publish)

    p_serve_run = serve_sub.add_parser(
        "run", help="start the long-lived HTTP recommendation service"
    )
    options.add_dataset_arguments(p_serve_run)
    options.add_release(
        p_serve_run,
        help="serve this .npz artifact (default: fit one in-process from "
        "the dataset arguments)",
    )
    options.add_measure(p_serve_run)
    options.add_epsilon(
        p_serve_run,
        help="privacy parameter when fitting in-process (ignored with "
        "--release)",
    )
    p_serve_run.add_argument("--host", default="127.0.0.1")
    p_serve_run.add_argument(
        "--port", type=options.port, default=0, help="bind port (0: ephemeral)"
    )
    options.add_n(p_serve_run, default=10)
    options.add_threads(p_serve_run, help="scoring thread pool")
    p_serve_run.add_argument(
        "--max-queue",
        type=options.positive_int,
        default=64,
        help="admitted-request bound; beyond it requests are shed "
        "(default: 64)",
    )
    p_serve_run.add_argument(
        "--cluster-at",
        type=options.fraction,
        default=0.5,
        help="queue-depth fraction where responses degrade to "
        "cluster-popularity (default: 0.5)",
    )
    p_serve_run.add_argument(
        "--global-at",
        type=options.fraction,
        default=0.75,
        help="queue-depth fraction where responses degrade to global "
        "popularity, at least --cluster-at (default: 0.75)",
    )
    p_serve_run.add_argument(
        "--max-requests",
        type=options.positive_int,
        default=None,
        help="shut down cleanly after serving this many requests "
        "(default: serve until POST /admin/shutdown)",
    )
    p_serve_run.add_argument(
        "--deadline-ms",
        type=options.positive_float,
        default=None,
        help="default per-request deadline in milliseconds; expired "
        "requests are answered inline from the next degradation rung "
        "(default: none; requests may override with ?deadline_ms=)",
    )
    p_serve_run.add_argument(
        "--mmap-dir",
        default=None,
        help="memory-map release matrices via a content-addressed .npy "
        "cache in this directory",
    )
    options.add_cache_dir(
        p_serve_run,
        help="warm similarity kernels through a persistent "
        "SimilarityStore in this directory (initial load and every swap)",
    )
    p_serve_run.add_argument(
        "--workers",
        type=options.positive_int,
        default=1,
        help="worker processes; >1 starts the prefork supervisor over a "
        "shared data port (default: 1, single-process)",
    )
    p_serve_run.add_argument(
        "--control-port",
        type=options.port,
        default=0,
        help="supervisor admin port for /stats, /admin/swap, "
        "/admin/shutdown (0: ephemeral; only with --workers > 1)",
    )
    p_serve_run.add_argument(
        "--response-cache-size",
        type=options.nonnegative_int,
        default=0,
        help="per-process generation-keyed response-cache capacity "
        "(default: 0, disabled; requests bypass with ?fresh=1)",
    )
    p_serve_run.add_argument(
        "--socket-mode",
        choices=("auto", "reuseport", "inherit"),
        default="auto",
        help="how prefork workers share the data port (default: auto — "
        "SO_REUSEPORT where available, else an inherited listener)",
    )
    options.add_profile_argument(p_serve_run)
    p_serve_run.set_defaults(run=_cmd_run)

    p_serve_swap = serve_sub.add_parser(
        "swap",
        help="hot-swap a running service to a new release artifact",
    )
    options.add_connect(
        p_serve_swap,
        help="a single-process server's port, or a supervisor's "
        "--control-port (the shared data port refuses swaps)",
        required=True,
    )
    options.add_release(
        p_serve_swap, help="the .npz artifact to swap to", required=True
    )
    p_serve_swap.set_defaults(run=_cmd_swap)

    p_serve_bench = serve_sub.add_parser(
        "bench",
        help="drive the seeded load generator and report p50/p99/QPS",
    )
    options.add_dataset_arguments(p_serve_bench)
    options.add_connect(
        p_serve_bench,
        help="target a running server (default: self-host one in-process "
        "from the dataset arguments)",
    )
    options.add_measure(p_serve_bench)
    options.add_epsilon(
        p_serve_bench, help="privacy parameter for the self-hosted release"
    )
    p_serve_bench.add_argument(
        "--requests", type=options.positive_int, default=200
    )
    p_serve_bench.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    p_serve_bench.add_argument(
        "--concurrency", type=options.positive_int, default=8,
        help="closed-loop in-flight bound (default: 8)",
    )
    p_serve_bench.add_argument(
        "--rate", type=options.positive_float, default=200.0,
        help="open-loop arrivals per second (default: 200)",
    )
    options.add_n(p_serve_bench, default=10)
    options.add_threads(p_serve_bench, help="self-hosted scoring thread pool")
    p_serve_bench.add_argument(
        "--expect-tier",
        default=None,
        help="exit non-zero unless at least one response was served "
        "from this tier",
    )
    p_serve_bench.add_argument(
        "--capacity",
        action="store_true",
        help="capacity-planning report: sweep open-loop offered rates "
        "and print offered QPS vs achieved tier mix / p99",
    )
    p_serve_bench.add_argument(
        "--rates",
        default=None,
        metavar="R1,R2,...",
        help="offered rates for --capacity (default: 0.25x, 0.5x, 1x, "
        "2x, 4x of --rate)",
    )
    p_serve_bench.add_argument(
        "--clients",
        type=options.positive_int,
        default=1,
        help="loadgen client processes (fork); >1 keeps one GIL-bound "
        "client from capping the measured QPS of a multi-worker server "
        "(requires --connect)",
    )
    p_serve_bench.add_argument(
        "--shutdown",
        action="store_true",
        help="POST /admin/shutdown to the --connect server afterwards",
    )
    p_serve_bench.add_argument(
        "--wait-ready",
        type=options.positive_float,
        default=30.0,
        help="seconds to wait for a --connect server to answer /health "
        "(default: 30)",
    )
    options.add_profile_argument(p_serve_bench)
    p_serve_bench.set_defaults(run=_cmd_bench)


def _fit_release(args: argparse.Namespace, dataset):
    """Fit the private recommender on ``dataset``; return its release."""
    from repro.core.persistence import PublishedRelease
    from repro.core.private import PrivateSocialRecommender

    recommender = PrivateSocialRecommender(
        get_measure(args.measure), epsilon=args.epsilon, seed=args.seed
    )
    recommender.fit(dataset.social, dataset.preferences)
    return PublishedRelease.from_recommender(recommender)


def _build_server(dataset, release, path, policy, config, cache_dir=None):
    """One single-process server over ``release`` at generation 0."""
    from repro.cache import SimilarityStore
    from repro.serve import (
        AdmissionController,
        HotSwapper,
        RecommendationServer,
        ServingEngine,
    )

    store = SimilarityStore(cache_dir) if cache_dir else None
    engine = ServingEngine(
        release, dataset.social, generation=0, path=path, store=store
    )
    return RecommendationServer(
        HotSwapper(engine),
        AdmissionController(policy),
        dataset.social,
        config,
        store=store,
    )


def _cmd_publish(args: argparse.Namespace) -> int:
    release = _fit_release(args, options.resolve_dataset(args))
    release.save(args.release)
    weights = release.weights
    print(f"release:     {args.release}")
    print(
        f"provenance:  measure {release.measure_name}, "
        f"epsilon {release.epsilon:g}, "
        f"{len(weights.items)} items x "
        f"{weights.clustering.num_clusters} clusters "
        f"({weights.clustering.num_users} users)"
    )
    return 0


def _tiers(counts) -> str:
    """``[tier=count, ...]`` in tier-name order, or ``[none]``."""
    listed = ", ".join(f"{tier}={count}" for tier, count in sorted(counts.items()))
    return f"[{listed or 'none'}]"


def _serve(service, banner) -> None:
    """Run ``service`` until it is shut down, SIGINT and SIGTERM included.

    ``banner()`` is printed once the service listens, so it can name the
    ports it bound.
    """
    from repro.serve.supervisor import install_shutdown_handlers

    async def _run() -> None:
        install_shutdown_handlers(service.request_shutdown)
        await service.start()
        print(banner(), flush=True)
        await service.serve_until_shutdown()

    asyncio.run(_run())


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.persistence import PublishedRelease
    from repro.serve import AdmissionPolicy, ServerConfig

    # Checked before the dataset is built or a release fitted.
    try:
        policy = AdmissionPolicy(
            max_queue=args.max_queue,
            cluster_at=args.cluster_at,
            global_at=args.global_at,
        )
    except ValueError as exc:
        raise ReproError(f"--cluster-at/--global-at: {exc}") from None
    # One worker's knobs, or the only process's.
    config = ServerConfig(
        host=args.host,
        port=args.port,
        n_default=args.n,
        threads=args.threads,
        max_requests=args.max_requests,
        mmap_dir=args.mmap_dir,
        deadline_ms=args.deadline_ms,
        response_cache_size=args.response_cache_size,
    )
    dataset = options.resolve_dataset(args)
    if args.workers > 1:
        return _run_supervisor(args, dataset, config, policy)
    if args.release:
        release = PublishedRelease.load(args.release, mmap_dir=args.mmap_dir)
    else:
        release = _fit_release(args, dataset)
    server = _build_server(
        dataset, release, args.release, policy, config, args.cache_dir
    )

    def banner() -> str:
        desc = server.swapper.current.describe()
        return (
            f"serving on http://{server.config.host}:{server.port} "
            f"(generation {desc['generation']}, "
            f"{desc['num_users']} users, {desc['num_items']} items, "
            f"measure {desc['measure']})"
        )

    _serve(server, banner)
    print(
        f"shutdown:    clean ({server.requests_served} request(s) "
        f"served, {server.errors} error(s))"
    )
    print(f"tiers:       {_tiers(server.tier_counts)}")
    print(
        f"admission:   peak depth {server.admission.peak_depth}, "
        f"{server.admission.shed_count} shed"
    )
    return 0


def _run_supervisor(args: argparse.Namespace, dataset, config, policy) -> int:
    """``serve run --workers N``: the prefork supervisor path."""
    import tempfile

    from repro.serve import ServingSupervisor, SupervisorConfig

    release_path = args.release
    if release_path is None:
        # Workers load the artifact from disk (that is what makes the
        # release pages shareable), so an in-process fit is staged to a
        # temporary artifact first.
        staging = tempfile.mkdtemp(prefix="repro-serve-")
        release_path = os.path.join(staging, "release.npz")
        _fit_release(args, dataset).save(release_path)
        print(f"staged:      in-process fit -> {release_path}")

    supervisor = ServingSupervisor(
        release_path,
        dataset.social,
        server_config=config,
        config=SupervisorConfig(
            workers=args.workers,
            socket_mode=args.socket_mode,
            control_port=args.control_port,
        ),
        policy=policy,
        cache_dir=args.cache_dir,
    )

    _serve(
        supervisor,
        lambda: (
            f"serving on http://{args.host}:{supervisor.port} "
            f"({args.workers} workers, "
            f"{supervisor.config.resolved_socket_mode} socket sharing, "
            f"generation {supervisor.generation})\n"
            f"control:     http://{supervisor.config.control_host}:"
            f"{supervisor.control_port} (/stats, /admin/swap, "
            f"/admin/shutdown)"
        ),
    )
    stats = supervisor.final_stats or {}
    workers = stats.get("workers", {})
    print(
        f"shutdown:    clean ({stats.get('requests_served', 0)} request(s) "
        f"served, {stats.get('errors', 0)} error(s), "
        f"{workers.get('restarts_total', 0)} worker restart(s))"
    )
    print(f"tiers:       {_tiers(stats.get('tier_counts', {}))}")
    print(f"generation:  {stats.get('generation', supervisor.generation)}")
    return 0


def _cmd_swap(args: argparse.Namespace) -> int:
    from urllib.parse import quote

    from repro.serve import http_request_json

    host, port = args.connect
    release_path = os.path.abspath(args.release)

    try:
        status, payload = asyncio.run(
            http_request_json(
                host, port, "POST", f"/admin/swap?path={quote(release_path)}"
            )
        )
    except (OSError, ValueError) as exc:
        raise ReproError(f"swap request failed: {exc}") from exc
    if status != 200:
        print(
            f"repro: error: swap refused (HTTP {status}): "
            f"{payload.get('error', payload)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"swap:        generation {payload['old_generation']} -> "
        f"{payload['new_generation']} ({payload['path']})"
    )
    if "workers_swapped" in payload:
        print(
            f"workers:     {payload['workers_swapped']} swapped in place, "
            f"{payload['workers_replaced']} replaced"
        )
    else:
        print(
            f"drain:       {payload['inflight_at_flip']} in flight at flip, "
            f"drained={payload['drained']} "
            f"in {payload['drain_seconds']:.3f}s"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.serve import (
        AdmissionPolicy,
        LoadgenConfig,
        LoadGenerator,
        ServerConfig,
        http_get_json,
        http_request_json,
        run_multiprocess,
    )

    clients = args.clients
    if clients > 1 and not args.connect:
        raise ReproError(
            "--clients > 1 requires --connect (the forked client processes "
            "would starve a self-hosted server's loop)"
        )

    # One load run per offered rate: the plain bench's one, or one
    # open-loop run per rate of the --capacity sweep.  With several client
    # processes each offers its share of the rate, so the union stream
    # matches the offered rate.
    if args.capacity:
        mode = "open"
        if args.rates:
            try:
                rates = [
                    float(r) for r in args.rates.split(",") if r.strip()
                ]
            except ValueError:
                raise ReproError(
                    f"--rates expects comma-separated numbers, got {args.rates!r}"
                ) from None
        else:
            rates = [args.rate * m for m in (0.25, 0.5, 1.0, 2.0, 4.0)]
        if not rates or any(not 0 < rate < math.inf for rate in rates):
            raise ReproError(
                "--capacity needs at least one offered rate, each finite and > 0"
            )
    else:
        mode, rates = args.mode, [args.rate]
    configs = [
        LoadgenConfig(
            requests=args.requests,
            mode=mode,
            concurrency=args.concurrency,
            rate=rate / clients,
            n=args.n,
            seed=args.seed,
        )
        for rate in rates
    ]

    dataset = options.resolve_dataset(args)
    users = sorted(dataset.social.users())
    if args.connect:
        host, port = args.connect

        async def _wait_ready():
            deadline = time.monotonic() + args.wait_ready
            while True:
                try:
                    status, _ = await http_get_json(host, port, "/health")
                    if status == 200:
                        return
                except (OSError, ValueError):
                    pass
                if time.monotonic() >= deadline:
                    raise ReproError(
                        f"server at {host}:{port} not ready within "
                        f"{args.wait_ready:g}s"
                    )
                await asyncio.sleep(0.1)

        asyncio.run(_wait_ready())
        reports = [
            run_multiprocess(host, port, users, config, clients=clients)
            if clients > 1
            else LoadGenerator(users, config).run(host, port)
            for config in configs
        ]
        if args.shutdown:
            asyncio.run(
                http_request_json(host, port, "POST", "/admin/shutdown")
            )
        target = f"{host}:{port}"
    else:
        server = _build_server(
            dataset,
            _fit_release(args, dataset),
            None,
            AdmissionPolicy(),
            ServerConfig(n_default=args.n, threads=args.threads),
        )

        async def _bench_selfhost():
            await server.start()
            out = [
                await LoadGenerator(users, config).run_async(
                    "127.0.0.1", server.port
                )
                for config in configs
            ]
            server.request_shutdown()
            await server.serve_until_shutdown()
            return out

        reports = asyncio.run(_bench_selfhost())
        target = "self-hosted"

    if args.capacity:
        print(
            f"capacity:    open-loop sweep, {args.requests} request(s) per "
            f"rate, {clients} client(s), seed {args.seed}, target {target}"
        )
        header = (
            f"{'offered/s':>10}  {'achieved/s':>10}  {'p50 ms':>8}  "
            f"{'p99 ms':>8}  {'errors':>6}  tiers"
        )
        print(header)
        for rate, report in zip(rates, reports):
            print(
                f"{rate:>10g}  {report.qps:>10.1f}  {report.p50_ms:>8.2f}  "
                f"{report.p99_ms:>8.2f}  {report.error_count:>6}  "
                f"{_tiers(report.tier_counts())}"
            )
    else:
        report = reports[0]
        print(
            f"loadgen:     {args.mode} loop, {args.requests} request(s), "
            f"{clients} client(s), seed {args.seed}, target {target}"
        )
        print(f"result:      {report.summary()}")
        print(f"p50:         {report.p50_ms:.2f} ms")
        print(f"p99:         {report.p99_ms:.2f} ms")
        print(f"qps:         {report.qps:,.1f}")
    if args.expect_tier is not None:
        served = sum(
            report.tier_counts().get(args.expect_tier, 0) for report in reports
        )
        errors = sum(report.error_count for report in reports)
        if served == 0 or errors:
            print(
                f"repro: error: expected tier {args.expect_tier!r} "
                f"(served {served} of it, {errors} error(s))",
                file=sys.stderr,
            )
            return 1
        print(
            f"expect-tier: OK ({served} response(s) from "
            f"{args.expect_tier!r}, 0 errors)"
        )
    return 0
