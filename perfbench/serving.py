"""The ``serve`` workload: publish -> serve under open-loop load with hot swaps.

Set-up publishes two CN releases of one dataset and starts one
:class:`repro.serve.RecommendationServer` over the first in a process of
its own (forked before set-up, so its memory is not the set-up's),
configured as the CI smoke deploys it (response cache, mmap dir, kernel
store).  A forked
process is the load generator; it talks HTTP to the server and shares
nothing with it.  The timed phase has two parts:

1. *capacity*: a closed loop keeping ``nproc`` connections busy, no
   swaps; the completion rate of the fastest block of ``capacity_block``
   consecutive requests is the ``throughput`` metric;
2. *fixed rate*: Poisson arrivals at ``rate_rps``, users drawn Zipf(s)
   over a seeded permutation, at most ``nproc`` requests in flight.
   Each request is timed from the moment it was *due*, so a stall shows
   in the latency of the requests queued behind it.  Meanwhile this
   process hot-swaps between the two releases at fixed offsets through
   ``POST /admin/swap`` and times each swap as its caller sees it.

Every response is then checked against an in-process
:class:`repro.core.persistence.ReleaseServer` over the release of the
generation it reports.

In a traced run the server child wraps ``ServingEngine.recommend`` in a
timer and ``HotSwapper.swap`` in a switch that activates a
:class:`repro.obs.Telemetry` registry for generations 1 and 2 and not
for 3 and 4; the per-layer numbers come from the traced generations and
their latency gap to the untraced ones is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import socket
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

from harness import Result, peak_rss_mib, percentile, timed_setup

#: Fields of one request record sent back by the load generator.
PHASE, DUE, WOKE, SENT, DONE, USER, RAW = range(7)


def _traced_generation(generation: int) -> bool:
    return generation % 4 in (1, 2)


# ----------------------------------------------------------------------
# HTTP (one request per connection, as the server closes each one)
# ----------------------------------------------------------------------
def _request_bytes(method: str, target: str) -> bytes:
    return f"{method} {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def _parse_response(raw: bytes) -> Tuple[int, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def _http(port: int, method: str, target: str, timeout: float) -> Tuple[int, dict]:
    """A blocking HTTP call for admin endpoints."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(_request_bytes(method, target))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse_response(b"".join(chunks))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _publish(cfg: Dict, seed: int, workdir: str, generate_s: List[float]):
    """Generate the dataset and publish one release per epsilon."""
    from repro import PrivateSocialRecommender, SyntheticDatasetSpec, get_measure
    from repro.core.persistence import PublishedRelease

    spec = getattr(SyntheticDatasetSpec, cfg["dataset"])(scale=cfg["scale"])
    start = time.perf_counter()
    dataset = spec.generate(seed=cfg["dataset_seed"])
    generate_s.append(time.perf_counter() - start)
    paths = []
    for epsilon in cfg["epsilons"]:
        recommender = PrivateSocialRecommender(
            get_measure(cfg["measure"]), epsilon=epsilon, seed=seed
        )
        recommender.fit(dataset.social, dataset.preferences)
        path = os.path.join(workdir, f"release-eps{epsilon:g}.npz")
        PublishedRelease.from_recommender(recommender).save(path)
        paths.append(path)
    return dataset, paths


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _install_trace_hooks(scores: List[Tuple[int, float]]):
    """Time ``ServingEngine.recommend``; trace generations 1 and 2 only."""
    from repro.obs import Telemetry, get_telemetry, set_telemetry
    from repro.serve import HotSwapper, ServingEngine

    registry = Telemetry(trace=False)
    recommend = ServingEngine.recommend
    swap = HotSwapper.swap

    def timed_recommend(self, user, n=10, max_tier="personalized"):
        if get_telemetry() is None:
            return recommend(self, user, n, max_tier=max_tier)
        start = time.perf_counter()
        try:
            return recommend(self, user, n, max_tier=max_tier)
        finally:
            scores.append((self.generation, time.perf_counter() - start))

    def switching_swap(self, *args, **kwargs):
        traced = _traced_generation(self.generation + 1)
        set_telemetry(registry if traced else None)
        return swap(self, *args, **kwargs)

    ServingEngine.recommend = timed_recommend
    HotSwapper.swap = switching_swap
    return registry


def _server_main(workdir: str, cfg: Dict, trace: bool, conn, parent_end) -> None:
    # Forked before set-up: wait for the graph and the first release.
    # Closing the parent's end lets EOF through if the parent goes away.
    parent_end.close()
    try:
        social, path = conn.recv()
    except EOFError:
        return

    from repro.cache import SimilarityStore
    from repro.core.persistence import PublishedRelease
    from repro.serve import (
        AdmissionController,
        AdmissionPolicy,
        HotSwapper,
        RecommendationServer,
        ServerConfig,
        ServingEngine,
    )

    scores: List[Tuple[int, float]] = []
    registry = _install_trace_hooks(scores) if trace else None
    mmap_dir = os.path.join(workdir, "mmap")
    store = SimilarityStore(os.path.join(workdir, "kernels"))
    release = PublishedRelease.load(path, mmap_dir=mmap_dir)
    engine = ServingEngine(release, social, generation=0, path=path, store=store)
    server = RecommendationServer(
        HotSwapper(engine),
        AdmissionController(AdmissionPolicy()),
        social,
        ServerConfig(
            n_default=cfg["n"],
            threads=cfg["threads"],
            mmap_dir=mmap_dir,
            response_cache_size=cfg["response_cache_size"],
        ),
        store=store,
    )

    async def serve() -> None:
        await server.start()
        conn.send(("ready", server.port))
        await server.serve_until_shutdown()

    asyncio.run(serve())
    snapshot = registry.snapshot() if registry is not None else None
    conn.send(
        (
            "done",
            {
                "rss_mib": peak_rss_mib(),
                "scores": scores,
                "counters": snapshot.counters if snapshot else {},
                "errors": server.errors,
            },
        )
    )
    conn.close()


# ----------------------------------------------------------------------
# the load generator process
# ----------------------------------------------------------------------
def _zipf_users(users: List, s: float, rng, count: int, permutation) -> List:
    import numpy as np

    weights = 1.0 / np.arange(1, len(users) + 1) ** s
    picks = rng.choice(len(users), size=count, p=weights / weights.sum())
    return [users[permutation[i]] for i in picks]


def _schedule(cfg: Dict, seed: int, users: List, capacity_requests: int, rate_s: float):
    """Seeded user draws for both phases and the arrival offsets of phase 2."""
    import numpy as np

    perm_seq, closed_seq, open_seq = np.random.SeedSequence(seed).spawn(3)
    permutation = np.random.default_rng(perm_seq).permutation(len(users))
    closed_rng = np.random.default_rng(closed_seq)
    closed = _zipf_users(users, cfg["zipf_s"], closed_rng, capacity_requests, permutation)
    open_rng = np.random.default_rng(open_seq)
    gaps = open_rng.exponential(1.0 / cfg["rate_rps"], size=int(rate_s * cfg["rate_rps"] * 2) + 16)
    offsets = [t for t in np.cumsum(gaps).tolist() if t < rate_s]
    opened = _zipf_users(users, cfg["zipf_s"], open_rng, len(offsets), permutation)
    return closed, list(zip(offsets, opened))


async def _drive(port, cfg, closed_users, arrivals, start, nconn, conn):
    timeout = cfg["request_timeout_s"]
    records = []

    async def request(phase, due, woke, user):
        sent = time.monotonic()
        raw = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port), timeout
            )
            try:
                writer.write(_request_bytes("GET", f"/recommend?user={user}&n={cfg['n']}"))
                raw = await asyncio.wait_for(reader.read(), timeout)
            finally:
                writer.close()
        except (OSError, asyncio.TimeoutError):
            raw = None
        records.append((phase, due, woke, sent, time.monotonic(), user, raw))

    users = iter(closed_users)

    async def closed_worker():
        for user in users:
            now = time.monotonic()
            await request("capacity", now, now, user)

    await asyncio.sleep(max(0.0, start - time.monotonic()))
    await asyncio.gather(*(closed_worker() for _ in range(nconn)))
    rate_start = time.monotonic() + 0.05
    conn.send(("rate", rate_start))

    slots = asyncio.Semaphore(nconn)
    tasks = []

    async def open_request(due, woke, user):
        try:
            await request("rate", due, woke, user)
        finally:
            slots.release()

    for offset, user in arrivals:
        due = rate_start + offset
        delay = due - time.monotonic()
        # Generator lateness is only defined for arrivals the loop slept
        # towards; one found already due was held up by the in-flight cap.
        if delay > 0:
            await asyncio.sleep(delay)
            woke = time.monotonic()
        else:
            woke = None
        await slots.acquire()
        tasks.append(asyncio.create_task(open_request(due, woke, user)))
    await asyncio.gather(*tasks)
    return records


def _generator_main(port, cfg, closed_users, arrivals, start, nconn, conn):
    records = asyncio.run(_drive(port, cfg, closed_users, arrivals, start, nconn, conn))
    conn.send(("records", records))
    conn.close()


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _peak_rss_mib(pid: int) -> float:
    """A live process's peak resident set size so far, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _stop(process) -> None:
    if process is None:
        return
    if process.is_alive():
        process.terminate()
        process.join(5)
    if process.is_alive():
        process.kill()
    process.join()


def _receive(conn, timeout: float, what: str):
    if not conn.poll(timeout):
        raise RuntimeError(f"{what} did not answer within {timeout:.0f} s")
    return conn.recv()


def _check(records, generation_paths, dataset, workdir, n) -> Tuple[List, List[str]]:
    """Parse every response and compare it with in-process scoring.

    Returns the parsed ``(record, generation, tier)`` of each clean
    response and one problem line per failed or mismatching request.
    """
    from repro.cache import SimilarityStore
    from repro.core.persistence import PublishedRelease

    store = SimilarityStore(os.path.join(workdir, "kernels"))
    servers = {}
    expected = {}
    parsed, problems = [], []
    for record in records:
        if record[RAW] is None:
            problems.append(f"request for user {record[USER]!r} failed or timed out")
            continue
        try:
            status, body = _parse_response(record[RAW])
        except (ValueError, IndexError) as exc:
            problems.append(f"unparseable response: {exc}")
            continue
        generation = body.get("generation")
        path = generation_paths.get(generation)
        if status != 200 or path is None:
            problems.append(f"status {status}, generation {generation!r}")
            continue
        key = (path, record[USER], body["tier"])
        if key not in expected:
            if path not in servers:
                servers[path] = PublishedRelease.load(path).server(dataset.social)
                servers[path].warm(store=store)
            recommendation = servers[path].recommend(record[USER], n, max_tier=body["tier"])
            expected[key] = (
                recommendation.tier,
                [[entry.item, entry.utility] for entry in recommendation.items],
            )
        if (body["tier"], body["items"]) != expected[key]:
            problems.append(
                f"user {record[USER]!r} generation {generation}: response differs "
                f"from ReleaseServer.recommend"
            )
            continue
        parsed.append((record, generation, body["tier"]))
    return parsed, problems


def run(cfg: Dict, seed: int, seconds: float, trace: bool, root: str) -> Result:
    nconn = os.cpu_count() or 2  # at most nproc requests in flight
    # The capacity phase is a fixed number of requests, sized to last
    # about capacity_share of the run at the nominal rate, so every run
    # asks for the same users whatever the machine's speed.
    capacity_requests = int(seconds * cfg["capacity_share"] * cfg["capacity_nominal_rps"])
    rate_s = seconds * (1.0 - cfg["capacity_share"])
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    # Fork only: a spawn context would start a resource-tracker process
    # that outlives the run.
    context = multiprocessing.get_context("fork")
    server = generator = None
    try:
        # The server is forked before set-up imports NumPy or builds
        # anything, so its memory is its own and not the set-up's.
        server_conn, child_conn = context.Pipe()
        server = context.Process(
            target=_server_main, args=(workdir, cfg, trace, child_conn, server_conn)
        )
        server.start()
        child_conn.close()
        generate_s: List[float] = []
        (dataset, paths), publish_s = timed_setup(
            lambda: _publish(cfg, seed, workdir, generate_s), cfg["setup_repeats"]
        )
        start = time.perf_counter()
        server_conn.send((dataset.social, paths[0]))
        _kind, port = _receive(server_conn, 120, "server start")
        server_start_s = time.perf_counter() - start
        setup_s = publish_s + server_start_s

        closed_users, arrivals = _schedule(
            cfg, seed, dataset.social.users(), capacity_requests, rate_s
        )
        phase_start = time.monotonic() + 0.2
        gen_conn, child_conn = context.Pipe()
        generator = context.Process(
            target=_generator_main,
            args=(port, cfg, closed_users, arrivals, phase_start, nconn, child_conn),
        )
        generator.start()
        child_conn.close()

        # Swaps at the start of each equal slice of the fixed-rate phase:
        # every generation there starts from a cold response cache.
        _kind, rate_start = _receive(gen_conn, 150, "load generator")
        read_only_rss_mib = _peak_rss_mib(server.pid)
        generation_paths = {0: paths[0]}
        swap_seconds, swap_problems = [], []
        for k in range(cfg["swaps"]):
            due = rate_start + k * rate_s / cfg["swaps"]
            time.sleep(max(0.0, due - time.monotonic()))
            path = paths[(k + 1) % len(paths)]
            begin = time.monotonic()
            try:
                status, body = _http(port, "POST", f"/admin/swap?path={quote(path)}", 60)
            except (OSError, ValueError) as exc:
                swap_problems.append(f"swap {k} failed: {exc}")
                continue
            swap_seconds.append(time.monotonic() - begin)
            if status != 200:
                swap_problems.append(f"swap {k}: status {status} {body}")
                continue
            generation_paths[body["new_generation"]] = path

        _kind, records = _receive(gen_conn, rate_s + 90, "load generator")
        generator.join()
        _status, stats = _http(port, "GET", "/stats", 30)
        _http(port, "POST", "/admin/shutdown", 30)
        _kind, child = _receive(server_conn, 60, "server shutdown")
        server.join()

        parsed, problems = _check(records, generation_paths, dataset, workdir, cfg["n"])
        problems = swap_problems + problems
        if child["errors"]:
            problems.append(f"server counted {child['errors']} error(s)")
        child["stats"] = stats
        child["read_only_rss_mib"] = read_only_rss_mib
        return _result(cfg, seed, trace, nconn, setup_s, statistics.median(generate_s),
                       records, parsed, problems, swap_seconds, child)
    finally:
        _stop(generator)
        _stop(server)
        shutil.rmtree(workdir, ignore_errors=True)


def _block_rates(done_times: List[float], block: int) -> List[float]:
    """Completion rates over blocks of ``block`` consecutive completions."""
    done = sorted(done_times)
    return [
        block / (done[i + block] - done[i])
        for i in range(0, len(done) - block, block)
        if done[i + block] > done[i]
    ]


def _result(cfg, seed, trace, nconn, setup_s, generate_s, records, parsed, problems, swap_seconds, child):
    capacity = [r for r, _g, _t in parsed if r[PHASE] == "capacity"]
    rate = [(r, g, t) for r, g, t in parsed if r[PHASE] == "rate"]
    # The fastest block, as the in-process workloads report their fastest
    # op: other tenants of the shared machine slow whole stretches of a
    # run, and the response cache starts cold.
    block_rates = _block_rates([r[DONE] for r in capacity], cfg["capacity_block"])
    capacity_rps = max(block_rates) if block_rates else 0.0
    latencies = [(r[DONE] - r[DUE]) * 1e3 for r, _g, _t in rate]
    late_ms = [
        (r[WOKE] - r[DUE]) * 1e3 for r in records if r[PHASE] == "rate" and r[WOKE] is not None
    ]
    p50 = statistics.median(latencies) if latencies else 0.0
    p99 = percentile(latencies, 99) if latencies else 0.0
    attempted = len(records) + cfg["swaps"]
    failed = min(attempted, len(problems))
    report = [
        f"workload serve: seed {seed}, {nconn} connection(s), set-up {setup_s:.3f} s",
        f"  serve_capacity_rps: {capacity_rps:.1f} /s ({len(capacity)} requests, closed loop)",
        "  capacity block rates: " + " ".join(f"{r:.0f}" for r in block_rates),
        f"  serve_p50_ms: {p50:.3f} ms, serve_p99_ms: {p99:.3f} ms "
        f"(n={len(latencies)} at {cfg['rate_rps']} req/s, timed from due time)",
        f"  serve_swap_s: {statistics.median(swap_seconds) if swap_seconds else 0.0:.4f} s "
        f"median of {len(swap_seconds)}",
        "  rate-phase latency p10/p25/p75/p90 ms: "
        + " ".join(f"{percentile(latencies, q):.3f}" for q in (10, 25, 75, 90)) if latencies else "",
        f"  loadgen lateness p99: {percentile(late_ms, 99) if late_ms else 0.0:.3f} ms",
        f"  failed_frac: {failed / attempted:.4f} ({failed} of {attempted})",
        f"  server peak RSS: {child['read_only_rss_mib']:.1f} MiB before the first swap, "
        f"{child['rss_mib']:.1f} MiB at exit",
    ]
    report += [f"  CHECK FAILED: {p}" for p in problems[:20]]
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (child["read_only_rss_mib"], "MiB"),
            "throughput": (capacity_rps, "1/s"),
            "latency_ms": (p50, "ms"),
        }
    else:
        metrics = _layer_metrics(generate_s, rate, late_ms, p99, swap_seconds, child)
    return Result(attempted=attempted, failed=failed, metrics=metrics, report=report)


def _layer_metrics(generate_s, rate, late_ms, p99, swap_seconds, child):
    """Per-layer metrics from the traced generations of the fixed-rate phase."""
    counters = child["counters"]
    traced = [(r, t) for r, g, t in rate if _traced_generation(g)]
    plain = [r for r, g, _t in rate if not _traced_generation(g)]
    scores = [seconds * 1e3 for g, seconds in child["scores"] if _traced_generation(g)]
    client_ms = sum(r[DONE] - r[SENT] for r, _t in traced) * 1e3
    hits = counters.get("serve.rescache.hit", 0)
    lookups = hits + counters.get("serve.rescache.miss", 0)
    traced_p50 = statistics.median(r[DONE] - r[DUE] for r, _t in traced) if traced else 0.0
    plain_p50 = statistics.median(r[DONE] - r[DUE] for r in plain) if plain else 0.0
    outside_ms = (client_ms - sum(scores)) / len(traced) if traced else 0.0
    return {
        "datasets.generate_s": (generate_s, "s"),
        "serve.p99_ms": (p99, "ms"),
        "serve.swap_s": (statistics.median(swap_seconds) if swap_seconds else 0.0, "s"),
        "serve.swaps": (len(swap_seconds), "count"),
        "serve.score_p50_ms": (statistics.median(scores) if scores else 0.0, "ms"),
        "serve.score_p99_ms": (percentile(scores, 99) if scores else 0.0, "ms"),
        "serve.outside_score_ms": (outside_ms, "ms"),
        "serve.rescache_hit_ratio": (hits / lookups if lookups else 0.0, "frac"),
        "serve.rescache_lookups": (lookups, "count"),
        "serve.personalized_frac": (
            sum(1 for _r, t in traced if t == "personalized") / len(traced) if traced else 0.0,
            "frac",
        ),
        "serve.admission_shed": (child["stats"]["shed"], "count"),
        "serve.depth_peak": (child["stats"]["peak_depth"], "count"),
        "serve.loadgen_late_p99_ms": (percentile(late_ms, 99) if late_ms else 0.0, "ms"),
        "cache.memory_hit": (counters.get("cache.memory_hit", 0), "count"),
        "cache.disk_hit": (counters.get("cache.disk_hit", 0), "count"),
        "cache.miss": (counters.get("cache.miss", 0), "count"),
        "compute.builds": (counters.get("compute.builds", 0), "count"),
        # Request time, from send to reply, that no scoring call covers.
        "obs.unattributed_frac": (
            (client_ms - sum(scores)) / client_ms if client_ms else 0.0,
            "frac",
        ),
        "obs.tracing_overhead_frac": (traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0, "frac"),
    }
