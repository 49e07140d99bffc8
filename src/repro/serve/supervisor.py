"""Prefork serving supervisor: N worker processes, one shared release.

Serving a published release is read-only post-processing, so throughput
is an engineering problem: a single asyncio process tops out at one
Python event loop's worth of HTTP handling regardless of how fast the
scoring path gets.  :class:`ServingSupervisor` breaks that ceiling by
forking N :class:`~repro.serve.server.RecommendationServer` worker
processes that all accept on **one shared data port**:

- **reuseport mode** (default where ``socket.SO_REUSEPORT`` exists) —
  the supervisor binds a placeholder socket *without listening* (which
  reserves the port and discovers an ephemeral one; the kernel only
  distributes connections among *listening* members of a reuseport
  group, so the placeholder never strands a connection) and every
  worker binds its own ``SO_REUSEPORT`` listener for kernel-level
  load balancing.
- **inherit mode** (fallback) — the supervisor binds and listens once;
  workers inherit the listener across ``fork`` and accept from the
  shared queue.

Workers share *memory*, not just the port: the supervisor pre-validates
the release (writing the ``--mmap-dir`` sidecar) and pre-warms the
similarity kernel through the ``--cache-dir`` store once, so each
worker's load is an mmap of the same page-cache-resident artifacts
rather than a private copy or a recompute.

The single-process lifecycle guarantees survive the fan-out:

- ``POST /admin/swap?path=P`` (on the supervisor's control port)
  validates and pre-warms the new artifact once, commits it as the
  fleet target, then fans out to every worker's loopback control
  listener concurrently.  Reporting is all-or-nothing: 200 only when
  every worker swapped in place; otherwise 409 with per-worker detail —
  and any worker that failed or died is killed and respawned *on the
  new release*, so the fleet always converges on the committed
  generation.
- ``POST /admin/shutdown`` drains every worker (each stops accepting
  and finishes its in-flight requests) before the supervisor exits.
  ``/admin/shutdown`` against the shared *data* port works too: a
  managed worker forwards it up the pipe, and the whole fleet drains.
- A monitor task respawns crashed workers with exponential backoff
  (fault site ``serve.worker`` on the spawn path; counters
  ``serve.worker.{spawn,crash,respawn}``).
- ``GET /stats`` merges per-worker
  :class:`~repro.obs.registry.TelemetrySnapshot`\\ s (shipped as JSON
  via ``/stats?snapshot=1``) through the existing
  :func:`~repro.obs.registry.merge_snapshots`, alongside supervisor
  uptime, the fleet generation, worker count, and per-worker restart
  totals.

Workers are forked, so the social graph is shared copy-on-write and
never serialized.  Each worker installs a fresh telemetry registry and
clears any fault plans inherited from the supervisor's process (tests
target individual workers via ``worker_faults`` instead — a forked
plan would fire in *every* worker).
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import multiprocessing
import os
import signal
import socket
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import quote

from repro.exceptions import ReproError
from repro.obs.export import snapshot_from_jsonable
from repro.obs.registry import Telemetry, get_telemetry
from repro.obs.registry import incr as obs_incr
from repro.obs.registry import merge_snapshots, set_telemetry
from repro.resilience.faults import FaultPlan, fault_point, reset_plans
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.engine import ServingEngine
from repro.serve.loadgen import http_get_json, http_request_json
from repro.serve.server import (
    RecommendationServer,
    ServerConfig,
    close_quietly,
    encode_response,
    read_http_request,
)
from repro.serve.swap import HotSwapper

__all__ = ["SupervisorConfig", "ServingSupervisor", "install_shutdown_handlers"]


def install_shutdown_handlers(request_shutdown: Callable[[], None]) -> None:
    """Call ``request_shutdown`` on SIGINT or SIGTERM in the running loop.

    Does nothing where the platform, or a loop outside the main thread,
    cannot take signal handlers.
    """
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass


def _reuseport_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


@dataclass(frozen=True)
class SupervisorConfig:
    """Fleet-level knobs (per-worker knobs live in ``ServerConfig``).

    Args:
        workers: worker process count.
        socket_mode: ``"auto"`` (reuseport where available, else
            inherit), ``"reuseport"``, or ``"inherit"``.
        control_host / control_port: the supervisor's own admin
            listener (port 0: ephemeral, read back from
            :attr:`ServingSupervisor.control_port`).
        ready_timeout_s: bound on waiting for a spawned worker's ready
            handshake.
        swap_timeout_s: bound on one worker's swap during fan-out.
        respawn_backoff_s / respawn_backoff_max_s: exponential-backoff
            window for respawning a repeatedly crashing worker slot.
        monitor_interval_s: crash-detection poll interval.

    Every ``*_s`` value must be finite and > 0.
    """

    workers: int = 2
    socket_mode: str = "auto"
    control_host: str = "127.0.0.1"
    control_port: int = 0
    ready_timeout_s: float = 60.0
    swap_timeout_s: float = 60.0
    respawn_backoff_s: float = 0.1
    respawn_backoff_max_s: float = 5.0
    monitor_interval_s: float = 0.2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.socket_mode not in ("auto", "reuseport", "inherit"):
            raise ValueError(
                f"socket_mode must be auto|reuseport|inherit, "
                f"got {self.socket_mode!r}"
            )
        if self.socket_mode == "reuseport" and not _reuseport_available():
            raise ValueError("SO_REUSEPORT is not available on this platform")
        for name in (
            "ready_timeout_s",
            "swap_timeout_s",
            "respawn_backoff_s",
            "respawn_backoff_max_s",
            "monitor_interval_s",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}"
                )

    @property
    def resolved_socket_mode(self) -> str:
        if self.socket_mode != "auto":
            return self.socket_mode
        return "reuseport" if _reuseport_available() else "inherit"


class _WorkerInit:
    """Everything one worker needs, passed by reference across fork."""

    def __init__(
        self,
        release_path: str,
        social,
        measure,
        policy: AdmissionPolicy,
        server_config: ServerConfig,
        cache_dir: Optional[str],
        generation: int,
        bind: Tuple[str, int],
        sock: Optional[socket.socket],
        fault_plan: Optional[FaultPlan],
    ) -> None:
        self.release_path = release_path
        self.social = social
        self.measure = measure
        self.policy = policy
        self.server_config = server_config
        self.cache_dir = cache_dir
        self.generation = generation
        self.bind = bind
        self.sock = sock
        self.fault_plan = fault_plan


def _worker_main(slot: int, conn, init: _WorkerInit) -> None:
    """Child entry point: serve the shared port until told to drain."""
    # Fresh registry: snapshots merge at the supervisor, so per-worker
    # state must not alias (or double-count into) the parent's registry.
    set_telemetry(Telemetry(trace=False))
    # Fault plans forked from the parent would fire in every worker;
    # tests target one slot via worker_faults instead.
    reset_plans()
    try:
        if init.fault_plan is not None:
            with init.fault_plan.installed():
                asyncio.run(_worker_serve(slot, conn, init))
        else:
            asyncio.run(_worker_serve(slot, conn, init))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


async def _worker_serve(slot: int, conn, init: _WorkerInit) -> None:
    from repro.core.persistence import PublishedRelease

    store = None
    if init.cache_dir is not None:
        from repro.cache import SimilarityStore

        store = SimilarityStore(init.cache_dir)
    release = PublishedRelease.load(
        init.release_path, mmap_dir=init.server_config.mmap_dir
    )
    engine = ServingEngine(
        release,
        init.social,
        measure=init.measure,
        generation=init.generation,
        path=init.release_path,
        store=store,
    )
    server = RecommendationServer(
        HotSwapper(engine),
        AdmissionController(init.policy),
        init.social,
        config=init.server_config,
        store=store,
        supervisor_notify=lambda action: conn.send(("notify", slot, action)),
    )

    install_shutdown_handlers(server.request_shutdown)

    sock = init.sock
    if sock is None:  # reuseport mode: a private listener on the shared port
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(init.bind)
    await server.start(sock=sock)
    await server.start_control()
    conn.send(("ready", slot, os.getpid(), server.port, server.control_port))
    await server.serve_until_shutdown()
    conn.send(("stopped", slot, server.requests_served))


class _WorkerHandle:
    """Parent-side state of one worker slot."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.pid: Optional[int] = None
        self.data_port: Optional[int] = None
        self.control_port: Optional[int] = None
        self.ready = False
        self.restarts = 0
        self.consecutive_failures = 0
        self.respawn_at: Optional[float] = None
        self.respawning = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingSupervisor:
    """Owns the shared data port, the worker fleet, and the admin plane.

    Args:
        release_path: artifact every worker initially serves.
        social: the public social graph (shared with workers via fork).
        measure: similarity-measure override (default: the release's).
        server_config: per-worker serving knobs; ``host``/``port`` name
            the *shared* data bind (port 0: ephemeral).
        config: fleet knobs.
        policy: admission policy each worker instantiates privately.
        cache_dir: persistent similarity-kernel store directory; the
            supervisor pre-warms it once so workers mmap one artifact.
        worker_faults: per-slot :class:`FaultPlan` installed inside that
            worker only (tests: stall one worker's swap, fail one
            worker's requests) — a plan installed in the parent process
            would be inherited by every forked worker.
    """

    def __init__(
        self,
        release_path: str,
        social,
        measure=None,
        server_config: ServerConfig = ServerConfig(),
        config: SupervisorConfig = SupervisorConfig(),
        policy: Optional[AdmissionPolicy] = None,
        cache_dir: Optional[str] = None,
        worker_faults: Optional[Dict[int, FaultPlan]] = None,
    ) -> None:
        self.release_path = release_path
        self.social = social
        self.measure = measure
        self.server_config = server_config
        self.config = config
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.cache_dir = cache_dir
        self.worker_faults = dict(worker_faults or {})
        self.generation = 0
        self.port: Optional[int] = None
        self.control_port: Optional[int] = None
        self._started = time.perf_counter()
        self._data_sock: Optional[socket.socket] = None
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._workers: List[_WorkerHandle] = [
            _WorkerHandle(slot) for slot in range(config.workers)
        ]
        self._mp = multiprocessing.get_context("fork")
        self._shutdown = asyncio.Event()
        self._stopping = False
        self.final_stats: Optional[dict] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._swap_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the release, bind the shared port, spawn the fleet."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._prewarm, self.release_path)
        self._bind_data_socket()
        for handle in self._workers:
            self._spawn(handle)
        await asyncio.gather(
            *(self._wait_ready(handle) for handle in self._workers)
        )
        self._control_server = await asyncio.start_server(
            self._handle_connection,
            self.config.control_host,
            self.config.control_port,
        )
        self.control_port = self._control_server.sockets[0].getsockname()[1]
        self._monitor_task = asyncio.create_task(self._monitor())

    async def serve_until_shutdown(self) -> None:
        """Run until ``/admin/shutdown`` (or a forwarded one), then drain."""
        if self._control_server is None:
            await self.start()
        await self._shutdown.wait()
        await self._close()

    def request_shutdown(self) -> None:
        """Ask the supervisor loop to drain the fleet and exit (idempotent)."""
        self._shutdown.set()

    async def _close(self) -> None:
        self._stopping = True
        try:
            # One last merged view while workers can still answer — the
            # CLI prints it as the shutdown summary.
            self.final_stats: Optional[dict] = await self._stats_payload()
        except Exception:
            self.final_stats = None
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
        # Graceful fleet drain: each worker stops accepting, finishes
        # its in-flight requests, and exits on its own.
        await asyncio.gather(
            *(self._stop_worker(handle) for handle in self._workers)
        )
        if self._data_sock is not None:
            self._data_sock.close()
            self._data_sock = None

    async def _stop_worker(self, handle: _WorkerHandle) -> None:
        if handle.alive and handle.control_port is not None:
            try:
                await asyncio.wait_for(
                    http_request_json(
                        "127.0.0.1",
                        handle.control_port,
                        "POST",
                        "/admin/shutdown",
                    ),
                    timeout=5.0,
                )
            except (OSError, ValueError, asyncio.TimeoutError):
                pass
        if handle.process is not None:
            deadline = (
                time.perf_counter() + self.server_config.drain_timeout_s + 5.0
            )
            while handle.process.is_alive():
                if time.perf_counter() >= deadline:
                    handle.process.kill()
                    break
                await asyncio.sleep(0.02)
            handle.process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # sockets + spawning
    # ------------------------------------------------------------------
    def _bind_data_socket(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.config.resolved_socket_mode == "reuseport":
            # Placeholder member of the reuseport group: binding (never
            # listening) pins the port for the fleet's lifetime; the
            # kernel only routes connections to *listening* sockets.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.server_config.host, self.server_config.port))
        else:
            # Inherit mode: the one real listener, shared through fork.
            sock.bind((self.server_config.host, self.server_config.port))
            sock.listen(128)
        self._data_sock = sock
        self.port = sock.getsockname()[1]

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Fork one worker for ``handle``'s slot (fault site ``serve.worker``)."""
        fault_point("serve.worker")
        parent_conn, child_conn = self._mp.Pipe()
        init = _WorkerInit(
            release_path=self.release_path,
            social=self.social,
            measure=self.measure,
            policy=self.policy,
            server_config=dataclasses.replace(
                self.server_config,
                port=self.port if self.port is not None else 0,
                worker_slot=handle.slot,
            ),
            cache_dir=self.cache_dir,
            generation=self.generation,
            bind=(self.server_config.host, self.port or 0),
            sock=(
                self._data_sock
                if self.config.resolved_socket_mode == "inherit"
                else None
            ),
            fault_plan=self.worker_faults.get(handle.slot),
        )
        process = self._mp.Process(
            target=_worker_main,
            args=(handle.slot, child_conn, init),
            daemon=True,
            name=f"repro-serve-worker-{handle.slot}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.pid = process.pid
        handle.ready = False
        handle.data_port = None
        handle.control_port = None
        obs_incr("serve.worker.spawn")

    async def _wait_ready(self, handle: _WorkerHandle) -> None:
        deadline = time.perf_counter() + self.config.ready_timeout_s
        while not handle.ready:
            self._drain_messages(handle)
            if handle.ready:
                break
            if not handle.alive:
                raise ReproError(
                    f"serve worker {handle.slot} (pid {handle.pid}) exited "
                    f"before becoming ready"
                )
            if time.perf_counter() >= deadline:
                raise ReproError(
                    f"serve worker {handle.slot} (pid {handle.pid}) not "
                    f"ready within {self.config.ready_timeout_s:g}s"
                )
            await asyncio.sleep(0.01)

    def _drain_messages(self, handle: _WorkerHandle) -> None:
        conn = handle.conn
        if conn is None:
            return
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "ready":
                _, _slot, pid, data_port, control_port = message
                handle.pid = pid
                handle.data_port = data_port
                handle.control_port = control_port
                handle.ready = True
                handle.consecutive_failures = 0
            elif kind == "notify" and message[2] == "shutdown":
                # /admin/shutdown arrived on the shared data port; the
                # whole fleet drains, not one worker.
                self.request_shutdown()
            elif kind == "stopped" and not self._stopping:
                # A worker finished on its own terms (per-worker
                # max_requests): drain the fleet instead of respawning
                # an endless replacement.
                self.request_shutdown()

    # ------------------------------------------------------------------
    # crash monitoring + respawn
    # ------------------------------------------------------------------
    async def _monitor(self) -> None:
        interval = self.config.monitor_interval_s
        while not self._shutdown.is_set():
            for handle in self._workers:
                self._drain_messages(handle)
                if (
                    self._stopping
                    or self._shutdown.is_set()
                    or handle.respawning
                ):
                    continue
                if handle.process is not None and not handle.alive:
                    self._note_crash(handle)
                if (
                    handle.respawn_at is not None
                    and time.perf_counter() >= handle.respawn_at
                ):
                    await self._try_respawn(handle)
            await asyncio.sleep(interval)

    def _note_crash(self, handle: _WorkerHandle) -> None:
        """Schedule a respawn for a dead slot with exponential backoff."""
        if handle.respawn_at is not None:
            return
        obs_incr("serve.worker.crash")
        handle.consecutive_failures += 1
        backoff = min(
            self.config.respawn_backoff_s
            * (2 ** (handle.consecutive_failures - 1)),
            self.config.respawn_backoff_max_s,
        )
        handle.respawn_at = time.perf_counter() + backoff
        handle.ready = False

    async def _try_respawn(self, handle: _WorkerHandle) -> None:
        handle.respawning = True
        try:
            handle.respawn_at = None
            if handle.process is not None:
                handle.process.join(timeout=1.0)
            self._spawn(handle)
            handle.restarts += 1
            obs_incr("serve.worker.respawn")
            await self._wait_ready(handle)
        except Exception:
            # Spawn fault (serve.worker site raising any exception) or a
            # worker that died again before ready: back off harder and
            # retry on the next monitor pass.
            self._note_crash(handle)
        finally:
            handle.respawning = False

    # ------------------------------------------------------------------
    # admin plane
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                parsed = await read_http_request(reader)
                if parsed is None:
                    return
                method, path, query = parsed
                status, payload = await self._route(method, path, query)
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # admin bugs must not kill the fleet
                obs_incr("serve.errors")
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            writer.write(encode_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # as in RecommendationServer._handle_connection
        finally:
            await close_quietly(writer)

    async def _route(
        self, method: str, path: str, query: Dict[str, list]
    ) -> Tuple[int, dict]:
        if path == "/health":
            return 200, {
                "status": "ok",
                "role": "supervisor",
                "port": self.port,
                "generation": self.generation,
                "socket_mode": self.config.resolved_socket_mode,
                "workers": {
                    "count": len(self._workers),
                    "alive": sum(1 for h in self._workers if h.alive),
                },
            }
        if path == "/stats":
            return 200, await self._stats_payload()
        if path == "/admin/swap":
            if method != "POST":
                return 405, {"error": "use POST /admin/swap"}
            return await self._handle_swap(query)
        if path == "/admin/shutdown":
            if method != "POST":
                return 405, {"error": "use POST /admin/shutdown"}
            self.request_shutdown()
            return 200, {
                "status": "shutting-down",
                "scope": "supervisor",
                "workers": len(self._workers),
            }
        return 404, {"error": f"no route {path!r}"}

    async def _worker_stats(self, handle: _WorkerHandle) -> Optional[dict]:
        if not handle.alive or handle.control_port is None:
            return None
        try:
            status, payload = await asyncio.wait_for(
                http_get_json(
                    "127.0.0.1", handle.control_port, "/stats?snapshot=1"
                ),
                timeout=5.0,
            )
        except (OSError, ValueError, asyncio.TimeoutError):
            return None
        if status != 200:
            return None
        return payload

    async def _stats_payload(self) -> dict:
        per_worker = await asyncio.gather(
            *(self._worker_stats(handle) for handle in self._workers)
        )
        workers = []
        tier_counts: Dict[str, int] = {}
        cache_totals: Dict[str, int] = {}
        totals = {"requests_served": 0, "errors": 0, "shed": 0, "depth": 0}
        peak_depth = 0
        snapshots = []
        for handle, stats in zip(self._workers, per_worker):
            row = {
                "slot": handle.slot,
                "pid": handle.pid,
                "alive": handle.alive,
                "restarts": handle.restarts,
            }
            if stats is not None:
                row.update(
                    {
                        "generation": stats.get("generation"),
                        "uptime_s": stats.get("uptime_s"),
                        "requests_served": stats.get("requests_served", 0),
                    }
                )
                for name in totals:
                    totals[name] += int(stats.get(name, 0))
                peak_depth = max(peak_depth, int(stats.get("peak_depth", 0)))
                for tier, count in stats.get("tier_counts", {}).items():
                    tier_counts[tier] = tier_counts.get(tier, 0) + int(count)
                for name, value in stats.get("response_cache", {}).items():
                    if name != "capacity":
                        cache_totals[name] = cache_totals.get(
                            name, 0
                        ) + int(value)
                if "snapshot" in stats:
                    snapshots.append(snapshot_from_jsonable(stats["snapshot"]))
            workers.append(row)
        payload: Dict[str, object] = {
            "role": "supervisor",
            "uptime_s": round(time.perf_counter() - self._started, 3),
            "generation": self.generation,
            "port": self.port,
            "workers": {
                "count": len(self._workers),
                "alive": sum(1 for h in self._workers if h.alive),
                "restarts_total": sum(h.restarts for h in self._workers),
                "per_worker": workers,
            },
            "tier_counts": tier_counts,
            "peak_depth": peak_depth,
            **totals,
        }
        if cache_totals:
            payload["response_cache"] = cache_totals
        if snapshots:
            merged = merge_snapshots(snapshots)
            payload["counters"] = {
                name: value
                for name, value in sorted(merged.counters.items())
                if name.startswith(("serve.", "fault.site.serve"))
            }
            registry = get_telemetry()
            if registry is not None:
                # Add the supervisor's own counters (spawn/respawn,
                # fault.site.serve.worker) on top of the per-worker
                # merge; each side contributes each name exactly once.
                own = {
                    name: value
                    for name, value in registry.snapshot().counters.items()
                    if name.startswith(("serve.", "fault.site.serve"))
                }
                merged_counters = payload["counters"]
                payload["counters"] = {
                    name: own.get(name, 0) + merged_counters.get(name, 0)
                    for name in sorted(set(own) | set(merged_counters))
                }
        return payload

    def _prewarm(self, path: str) -> None:
        """Validate ``path`` and warm the shared artifacts exactly once.

        Loading writes the ``mmap_dir`` sidecar and building the engine
        warms the kernel through ``cache_dir``, so the N workers that
        load next mmap page-cache-resident files instead of recomputing
        (or failing N times on a corrupt artifact).
        """
        from repro.core.persistence import PublishedRelease

        store = None
        if self.cache_dir is not None:
            from repro.cache import SimilarityStore

            store = SimilarityStore(self.cache_dir)
        release = PublishedRelease.load(
            path, mmap_dir=self.server_config.mmap_dir
        )
        ServingEngine(
            release,
            self.social,
            measure=self.measure,
            generation=self.generation,
            path=path,
            store=store,
        )

    async def _swap_worker(
        self, handle: _WorkerHandle, path: str
    ) -> Tuple[_WorkerHandle, Optional[dict], Optional[str]]:
        if not handle.alive or handle.control_port is None:
            return handle, None, "worker not running"
        try:
            status, payload = await asyncio.wait_for(
                http_request_json(
                    "127.0.0.1",
                    handle.control_port,
                    "POST",
                    f"/admin/swap?path={quote(path)}",
                ),
                timeout=self.config.swap_timeout_s,
            )
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            return handle, None, f"{type(exc).__name__}: {exc}"
        if status != 200:
            return handle, None, str(payload.get("error", f"HTTP {status}"))
        return handle, payload, None

    async def _handle_swap(self, query: Dict[str, list]) -> Tuple[int, dict]:
        if "path" not in query:
            return 400, {"error": "missing required query parameter 'path'"}
        path = query["path"][0]
        loop = asyncio.get_running_loop()
        async with self._swap_lock:
            # Validate + warm once, *before* committing: a corrupt
            # artifact must leave the whole fleet on the old generation.
            try:
                await loop.run_in_executor(None, self._prewarm, path)
            except ReproError as exc:
                return 409, {
                    "error": f"{type(exc).__name__}: {exc}",
                    "generation": self.generation,
                }
            old_generation = self.generation
            # Commit the fleet target first: any worker respawned from
            # here on (including swap casualties below) starts directly
            # on the new release, so the fleet converges no matter how
            # the fan-out goes.
            self.release_path = path
            self.generation += 1
            results = await asyncio.gather(
                *(
                    self._swap_worker(handle, path)
                    for handle in self._workers
                )
            )
        swapped, failed = [], []
        for handle, payload, error in results:
            if error is None:
                swapped.append(
                    {
                        "slot": handle.slot,
                        "old_generation": payload["old_generation"],
                        "new_generation": payload["new_generation"],
                        "inflight_at_flip": payload["inflight_at_flip"],
                        "drained": payload["drained"],
                    }
                )
            else:
                failed.append({"slot": handle.slot, "error": error})
                await self._replace_worker(handle)
        body: Dict[str, object] = {
            "old_generation": old_generation,
            "new_generation": self.generation,
            "path": path,
            "workers_swapped": len(swapped),
            "workers_replaced": len(failed),
            "per_worker": swapped,
        }
        if failed:
            body["error"] = (
                f"{len(failed)} worker(s) failed to swap in place and "
                f"were replaced on the new release"
            )
            body["failures"] = failed
            return 409, body
        return 200, body

    async def _replace_worker(self, handle: _WorkerHandle) -> None:
        """Kill a swap casualty and respawn it on the committed release."""
        handle.respawning = True
        try:
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()
            if handle.process is not None:
                handle.process.join(timeout=5.0)
            handle.respawn_at = None
            try:
                self._spawn(handle)
                handle.restarts += 1
                obs_incr("serve.worker.respawn")
                await self._wait_ready(handle)
            except Exception:
                self._note_crash(handle)
        finally:
            handle.respawning = False
