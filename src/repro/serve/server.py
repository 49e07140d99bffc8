"""The asyncio HTTP front end of the serving tier.

Stdlib only: ``asyncio`` streams accept connections and parse a minimal
HTTP/1.1 request; scoring runs on a bounded thread pool (numpy releases
the GIL in the matrix products, so threads scale on the hot path and
the pool's backlog is exactly the queue depth admission control reads).

Endpoints:

- ``GET /recommend?user=U&n=N`` — top-N recommendations.  Admission
  control picks the best degradation-ladder rung for the current queue
  depth; overload answers from cheaper rungs (and ultimately sheds to
  the empty rung) instead of erroring.  The response reports ``tier``,
  ``degraded``, and the serving ``generation``.
- ``GET /health`` — liveness plus the current generation's provenance.
- ``GET /stats`` — request totals, tier counts, queue depth/peak,
  uptime, generation, response-cache counters, and (when telemetry is
  active) the ``serve.*`` counters; ``?snapshot=1`` embeds the full
  :class:`~repro.obs.registry.TelemetrySnapshot` in JSON form so a
  supervisor can merge per-worker registries.
- ``POST /admin/swap?path=P`` — hot-swap to the release artifact at
  ``P``: load + verify in the background, atomically flip, drain the
  old generation (:mod:`repro.serve.swap`).
- ``POST /admin/shutdown`` — graceful shutdown: stop accepting, drain
  in-flight requests, exit cleanly.

A server may listen on two sockets at once: the *data* listener (the
bound host/port, or an inherited/SO_REUSEPORT socket handed to
:meth:`RecommendationServer.start`) and an optional loopback *control*
listener (:meth:`RecommendationServer.start_control`) used by the
prefork supervisor (:mod:`repro.serve.supervisor`).  A *managed* worker
(one constructed with ``supervisor_notify``) serves ``/admin/*``
differently per listener: on the control listener admin actions apply
to this process (that is how the supervisor fans out), while on the
shared data listener ``/admin/shutdown`` is forwarded to the supervisor
(so ``repro serve bench --shutdown`` keeps working against the data
port) and ``/admin/swap`` is refused with 409 — swapping one worker of
a fleet behind a shared port would fork the serving generation.

Per-request latency is recorded under the ``serve.request`` span and
the ``serve.latency_total_s`` gauge; the ``serve.request`` fault site
fires inside the scoring body so tests can stall or fail requests
deterministically.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError
from repro.obs.export import snapshot_to_jsonable
from repro.obs.registry import add_gauge as obs_add_gauge
from repro.obs.registry import get_telemetry
from repro.obs.registry import incr as obs_incr
from repro.obs.spans import span
from repro.resilience.degradation import DEGRADATION_LADDER, TIER_EMPTY
from repro.resilience.faults import fault_point
from repro.serve.admission import AdmissionController
from repro.serve.rescache import ResponseCache
from repro.serve.swap import HotSwapper

__all__ = [
    "ServerConfig",
    "RecommendationServer",
    "read_http_request",
    "encode_response",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINES = 64

#: Seconds a client has to send its whole request head (request line and
#: headers).  A connection still incomplete at the deadline is closed
#: without a response, so a half-open client cannot hold a handler
#: until shutdown.
REQUEST_HEAD_TIMEOUT_S = 10.0


class _HeadTimeout(Exception):
    """The request head did not arrive within ``REQUEST_HEAD_TIMEOUT_S``."""


def _parse_user(raw: str):
    """Query-string user ids: ints round-trip, anything else stays str."""
    try:
        return int(raw)
    except ValueError:
        return raw


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one serving process.

    Args:
        host / port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`RecommendationServer.port`).
        n_default: list length when the request does not pass ``n``.
        threads: scoring thread-pool size.
        max_requests: after this many ``/recommend`` responses the
            server shuts down cleanly (None: serve forever) — the
            harness/CI smoke mode.
        drain_timeout_s: bound on the old generation's drain during a
            hot swap, and on the final drain at shutdown (finite, > 0).
        mmap_dir: when set, swapped-in releases are loaded with their
            matrix memory-mapped from this content-addressed cache.
        deadline_ms: default per-request deadline.  When scoring has not
            returned within this budget the request is answered *inline*
            from the next degradation rung instead of waiting; the
            abandoned scoring still runs to completion on its thread
            (executor futures cannot be cancelled) and only then frees
            its queue slot.  Requests may override with
            ``?deadline_ms=``.  None: no deadline unless the request
            asks for one.
        response_cache_size: capacity of the per-process
            :class:`~repro.serve.rescache.ResponseCache` (0: disabled).
            Entries are keyed by generation, so hot swaps invalidate
            for free; requests bypass with ``?fresh=1``.
        worker_slot: this process's slot under a prefork supervisor
            (None outside one).  Reported by ``/stats`` so merged
            multi-worker output stays attributable; never included in
            ``/recommend`` bodies, which must be bit-identical across
            workers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_default: int = 10
    threads: int = 4
    max_requests: Optional[int] = None
    drain_timeout_s: float = 30.0
    mmap_dir: Optional[str] = None
    deadline_ms: Optional[float] = None
    response_cache_size: int = 0
    worker_slot: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_default < 1:
            raise ValueError(f"n_default must be >= 1, got {self.n_default}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if not 0 < self.drain_timeout_s < math.inf:
            raise ValueError(
                f"drain_timeout_s must be finite and > 0, "
                f"got {self.drain_timeout_s}"
            )
        if self.deadline_ms is not None and not 0 < self.deadline_ms < math.inf:
            raise ValueError(
                f"deadline_ms must be finite and > 0, got {self.deadline_ms}"
            )
        if self.response_cache_size < 0:
            raise ValueError(
                f"response_cache_size must be >= 0, "
                f"got {self.response_cache_size}"
            )


class RecommendationServer:
    """One long-lived serving process over a hot-swappable release.

    Args:
        swapper: owns the current release generation (and future ones).
        admission: the bounded-queue admission controller.
        social: the public social graph swapped-in releases are served
            against (the release artifact does not carry the graph).
        config: bind address and serving knobs.
        store: optional persistent
            :class:`~repro.cache.store.SimilarityStore`; swapped-in
            generations warm their similarity kernel through it.
        supervisor_notify: set only on prefork-supervised workers — a
            callable the worker uses to forward ``/admin/shutdown``
            requests arriving on the shared data listener up to the
            supervisor (see the module docstring for the per-listener
            admin semantics).
    """

    def __init__(
        self,
        swapper: HotSwapper,
        admission: AdmissionController,
        social,
        config: ServerConfig = ServerConfig(),
        store=None,
        supervisor_notify: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.swapper = swapper
        self.admission = admission
        self.social = social
        self.config = config
        self.store = store
        self.supervisor_notify = supervisor_notify
        self.port: Optional[int] = None
        self.control_port: Optional[int] = None
        self.requests_served = 0
        self.tier_counts: Dict[str, int] = {}
        self.errors = 0
        self.rescache: Optional[ResponseCache] = (
            ResponseCache(config.response_cache_size)
            if config.response_cache_size > 0
            else None
        )
        self._started = time.perf_counter()
        self._server: Optional[asyncio.AbstractServer] = None
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=config.threads, thread_name_prefix="serve"
        )
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind and start accepting connections; sets :attr:`port`.

        Args:
            sock: an already-bound listening socket to serve instead of
                binding ``config.host:config.port`` — how prefork
                workers share one data port (an inherited listener or a
                per-worker ``SO_REUSEPORT`` bind).
        """
        handler = partial(self._handle_connection, control=False)
        if sock is not None:
            self._server = await asyncio.start_server(handler, sock=sock)
        else:
            self._server = await asyncio.start_server(
                handler, self.config.host, self.config.port
            )
        self.port = self._server.sockets[0].getsockname()[1]

    async def start_control(self, host: str = "127.0.0.1") -> None:
        """Open the loopback control listener; sets :attr:`control_port`.

        The supervisor's fan-out targets this ephemeral per-worker port:
        admin requests arriving here always act on this process.
        """
        self._control_server = await asyncio.start_server(
            partial(self._handle_connection, control=True), host, 0
        )
        self.control_port = self._control_server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until ``/admin/shutdown`` (or ``max_requests``), then drain."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self._close()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop accepting and drain (idempotent)."""
        self._shutdown.set()

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
        # Drain: every admitted request still holds a queue slot; wait
        # for the pool to hand all of them back before tearing down.
        deadline = time.perf_counter() + self.config.drain_timeout_s
        while self.admission.depth > 0 and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        control: bool = False,
    ) -> None:
        try:
            try:
                parsed = await read_http_request(reader)
                if parsed is None:
                    return
                method, path, query = parsed
                status, payload = await self._route(method, path, query, control)
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # a handler bug must not kill the loop
                self.errors += 1
                obs_incr("serve.errors")
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            writer.write(encode_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # The client left, or shutdown cancelled this handler.  The
            # handler is the root of a task nothing awaits, and asyncio's
            # stream callback logs a traceback for a cancelled one, so it
            # ends normally once the connection is closed.
            pass
        finally:
            await close_quietly(writer)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, query: Dict[str, list], control: bool
    ) -> Tuple[int, dict]:
        managed = self.supervisor_notify is not None
        if path == "/recommend":
            if method != "GET":
                return 405, {"error": "use GET /recommend"}
            return await self._handle_recommend(query)
        if path == "/health":
            engine = self.swapper.current
            return 200, {
                "status": "ok",
                "inflight_depth": self.admission.depth,
                "requests_served": self.requests_served,
                "release": engine.describe(),
            }
        if path == "/stats":
            return 200, self._stats_payload(query)
        if path == "/admin/swap":
            if method != "POST":
                return 405, {"error": "use POST /admin/swap"}
            if managed and not control:
                return 409, {
                    "error": "managed worker: POST /admin/swap to the "
                    "supervisor control port (swapping one worker would "
                    "fork the serving generation)"
                }
            return await self._handle_swap(query)
        if path == "/admin/shutdown":
            if method != "POST":
                return 405, {"error": "use POST /admin/shutdown"}
            if managed and not control:
                # Forward to the supervisor: the whole fleet drains, not
                # just whichever worker accepted this connection.
                self.supervisor_notify("shutdown")
                return 200, {"status": "shutting-down", "scope": "supervisor"}
            self.request_shutdown()
            return 200, {"status": "shutting-down"}
        return 404, {"error": f"no route {path!r}"}

    async def _handle_recommend(self, query: Dict[str, list]) -> Tuple[int, dict]:
        if "user" not in query:
            return 400, {"error": "missing required query parameter 'user'"}
        user = _parse_user(query["user"][0])
        try:
            n = int(query.get("n", [self.config.n_default])[0])
        except ValueError:
            return 400, {"error": "n must be an integer"}
        if n < 1:
            return 400, {"error": f"n must be >= 1, got {n}"}
        deadline_ms = self.config.deadline_ms
        if "deadline_ms" in query:
            try:
                deadline_ms = float(query["deadline_ms"][0])
            except ValueError:
                return 400, {"error": "deadline_ms must be a number"}
            if not 0 < deadline_ms < math.inf:
                return 400, {
                    "error": f"deadline_ms must be finite and > 0, got {deadline_ms}"
                }
        fresh = query.get("fresh", ["0"])[0] not in ("", "0")

        arrival = time.perf_counter()
        engine = self.swapper.acquire_current()
        try:
            cached = self._cache_lookup(engine.generation, user, n, fresh)
            if cached is not None:
                tier, degraded, items = cached
                shed = False
                deadline_expired = False
            else:
                tier_cap = self.admission.admit()
                deadline_expired = False
                try:
                    if tier_cap == TIER_EMPTY:
                        # Shed: answered inline from the empty rung, no
                        # queue slot.
                        result = engine.recommend(user, n, max_tier=TIER_EMPTY)
                        shed = True
                    else:
                        shed = False
                        result, deadline_expired = await self._score(
                            engine, user, n, tier_cap, deadline_ms, arrival
                        )
                except ReproError as exc:
                    self.errors += 1
                    obs_incr("serve.errors")
                    return 500, {"error": f"{type(exc).__name__}: {exc}"}
                tier, degraded = result.tier, result.degraded
                items = [
                    [item, utility]
                    for item, utility in zip(result.item_ids(), result.utilities())
                ]
                if (
                    self.rescache is not None
                    and not shed
                    and not deadline_expired
                ):
                    # Only clean scored responses are cached: a cached
                    # body is bit-identical to fresh scoring for its
                    # (generation, user, n, tier-cap) key.
                    self.rescache.put(
                        (engine.generation, user, n, tier_cap),
                        (tier, degraded, items),
                    )
        finally:
            engine.release_ref()

        latency = time.perf_counter() - arrival
        obs_incr("serve.requests")
        obs_add_gauge("serve.latency_total_s", latency)
        self.requests_served += 1
        self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1
        obs_incr(f"serve.tier.{tier}")
        payload = {
            "user": user,
            "n": n,
            "tier": tier,
            "degraded": degraded,
            "shed": shed,
            "deadline_expired": deadline_expired,
            "generation": engine.generation,
            "items": items,
        }
        if (
            self.config.max_requests is not None
            and self.requests_served >= self.config.max_requests
        ):
            self.request_shutdown()
        return 200, payload

    def _cache_lookup(
        self, generation: int, user, n: int, fresh: bool
    ) -> Optional[Tuple[str, bool, list]]:
        """A cached clean response for this request, or None to score.

        The lookup key uses the tier the admission policy *would* grant
        at the current depth — peeked without taking a queue slot, so a
        hit never occupies admission capacity.  A peek at the empty rung
        means the server is shedding; shed responses are never cached,
        so skip straight to the (cheap, inline) shed path.
        """
        if self.rescache is None:
            return None
        if fresh:
            self.rescache.note_bypass()
            return None
        tier_cap = self.admission.policy.tier_for_depth(self.admission.depth)
        if tier_cap == TIER_EMPTY:
            return None
        return self.rescache.get((generation, user, n, tier_cap))

    async def _score(
        self,
        engine,
        user,
        n: int,
        tier_cap: str,
        deadline_ms: Optional[float],
        arrival: float,
    ):
        """Run scoring on the pool, bounded by the request's deadline.

        Returns ``(result, deadline_expired)``.  On expiry the request is
        answered inline from the rung *below* ``tier_cap`` — the thread
        pool cannot cancel a running scoring call, so the abandoned
        future keeps its own queue slot and generation ref until the
        thread really finishes (released by its done callback).
        """
        loop = asyncio.get_running_loop()

        def work():
            with span("serve.request"):
                fault_point("serve.request")
                return engine.recommend(user, n, max_tier=tier_cap)

        engine.acquire()
        future = loop.run_in_executor(self._executor, work)
        abandoned = False

        def _settle(done) -> None:
            self.admission.release()
            engine.release_ref()
            if abandoned and not done.cancelled():
                # Retrieve the exception (if any) so an abandoned failure
                # does not warn at GC time; the client already got its
                # degraded answer.
                if done.exception() is not None:
                    obs_incr("serve.deadline.abandoned_error")

        future.add_done_callback(_settle)

        if deadline_ms is None:
            return await future, False
        budget_s = deadline_ms / 1000.0 - (time.perf_counter() - arrival)
        try:
            # shield(): wait_for must give up on the future without
            # cancelling it — the executor thread is running regardless.
            result = await asyncio.wait_for(
                asyncio.shield(future), max(budget_s, 0.0)
            )
        except asyncio.TimeoutError:
            # Set before the next loop iteration can run _settle.
            abandoned = True
            obs_incr("serve.deadline.expired")
            rung = DEGRADATION_LADDER.index(tier_cap) + 1
            fallback = DEGRADATION_LADDER[
                min(rung, len(DEGRADATION_LADDER) - 1)
            ]
            return engine.recommend(user, n, max_tier=fallback), True
        obs_incr("serve.deadline.met")
        return result, False

    async def _handle_swap(self, query: Dict[str, list]) -> Tuple[int, dict]:
        if "path" not in query:
            return 400, {"error": "missing required query parameter 'path'"}
        path = query["path"][0]
        loop = asyncio.get_running_loop()

        def do_swap():
            return self.swapper.swap(
                path,
                self.social,
                mmap_dir=self.config.mmap_dir,
                drain_timeout_s=self.config.drain_timeout_s,
                store=self.store,
            )

        try:
            result = await loop.run_in_executor(self._executor, do_swap)
        except ReproError as exc:
            return 409, {
                "error": f"{type(exc).__name__}: {exc}",
                "generation": self.swapper.generation,
            }
        if self.rescache is not None:
            # Generation-keyed entries can't be served stale, but drop
            # the old generation eagerly so it stops holding capacity.
            self.rescache.evict_other_generations(result.new_generation)
        return 200, {
            "old_generation": result.old_generation,
            "new_generation": result.new_generation,
            "path": result.path,
            "inflight_at_flip": result.inflight_at_flip,
            "drained": result.drained,
            "drain_seconds": result.drain_seconds,
        }

    def _stats_payload(self, query: Dict[str, list]) -> dict:
        payload = {
            "requests_served": self.requests_served,
            "errors": self.errors,
            "tier_counts": dict(self.tier_counts),
            "depth": self.admission.depth,
            "peak_depth": self.admission.peak_depth,
            "shed": self.admission.shed_count,
            "generation": self.swapper.generation,
            "uptime_s": round(time.perf_counter() - self._started, 3),
        }
        if self.config.worker_slot is not None:
            payload["worker"] = {
                "slot": self.config.worker_slot,
                "pid": os.getpid(),
            }
        if self.rescache is not None:
            payload["response_cache"] = self.rescache.stats()
        registry = get_telemetry()
        if registry is not None:
            counters = registry.snapshot().counters
            payload["counters"] = {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith(("serve.", "fault.site.serve"))
            }
            if "snapshot" in query:
                payload["snapshot"] = snapshot_to_jsonable(registry.snapshot())
        return payload


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, list]]]:
    """Parse one minimal HTTP/1.1 request: ``(method, path, query)``.

    Returns None for a connection closed before sending a request line,
    or one whose request head is not complete within
    :data:`REQUEST_HEAD_TIMEOUT_S` (counted under ``serve.head_timeouts``).
    The deadline is one loop timer that fails the pending read, not a
    task per request.  Shared by the per-worker server and the
    supervisor front end so both speak the same (deliberately tiny)
    dialect.
    """
    timer = asyncio.get_running_loop().call_later(
        REQUEST_HEAD_TIMEOUT_S, reader.set_exception, _HeadTimeout()
    )
    try:
        line = await reader.readline()
        if not line.strip():
            return None
        if len(line) > _MAX_REQUEST_LINE:
            raise ValueError("request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        for _ in range(_MAX_HEADER_LINES):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
    except _HeadTimeout:
        obs_incr("serve.head_timeouts")
        return None
    finally:
        timer.cancel()
    split = urlsplit(target)
    return method, split.path, parse_qs(split.query)


async def close_quietly(writer: asyncio.StreamWriter) -> None:
    """Close a connection, ignoring a client that already left.

    Also quiet when shutdown cancels the wait, so a handler never ends
    in an unhandled ``CancelledError``.
    """
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, asyncio.CancelledError):
        pass


def encode_response(status: int, payload: dict) -> bytes:
    """One complete ``Connection: close`` HTTP/1.1 JSON response."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body
