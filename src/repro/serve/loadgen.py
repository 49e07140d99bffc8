"""Deterministic load generation for the serving tier.

One seeded :class:`LoadGenerator` drives both the tests and the CI
benchmark, in two modes:

- **closed loop** — ``concurrency`` workers each hold one request in
  flight at a time; offered load adapts to the server, so the measured
  rate *is* the sustained QPS at that concurrency.
- **open loop** — requests fire at seeded exponential (Poisson)
  arrival times regardless of completions; offered load is fixed, so
  pushing ``rate`` past capacity is how the tests saturate admission
  control and observe the tier ladder shift.  Latency runs from each
  request's due time, so a stalled client loop cannot hide lateness.

The request *schedule* — which user, at what offset — is precomputed
from the seed alone, so two runs against the same server issue
byte-identical request streams (response timings naturally vary).
Results aggregate into a :class:`LoadReport` with deterministic
nearest-rank percentiles (p50/p99), sustained QPS, and per-tier counts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import multiprocessing
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LoadgenConfig",
    "RequestRecord",
    "LoadReport",
    "LoadGenerator",
    "run_multiprocess",
    "percentile",
    "http_get_json",
    "http_request_json",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Args:
        values: sample values (need not be sorted).
        q: percentile in [0, 100].

    Raises:
        ValueError: for an empty sample or q outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run's shape.

    Args:
        requests: total requests to issue.
        mode: ``"closed"`` (fixed concurrency) or ``"open"`` (fixed
            arrival rate).
        concurrency: in-flight bound for closed loop.
        rate: arrivals per second for open loop (finite, > 0).
        n: requested list length.
        seed: drives the user sequence and the open-loop arrivals.
        timeout_s: per-request client timeout (finite, > 0).
    """

    requests: int = 100
    mode: str = "closed"
    concurrency: int = 8
    rate: float = 200.0
    n: int = 10
    seed: int = 0
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("rate", "timeout_s"):
            # Written so that NaN, which fails every comparison, is rejected.
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class RequestRecord:
    """One completed request as the client saw it."""

    user: object
    latency_s: float
    status: int
    tier: str
    generation: int
    shed: bool


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    records: List[RequestRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.records if r.status == 200)

    @property
    def error_count(self) -> int:
        return len(self.records) - self.ok_count

    @property
    def qps(self) -> float:
        """Sustained completed-requests-per-second over the run."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.records) / self.wall_seconds

    @property
    def latencies_ms(self) -> List[float]:
        return [r.latency_s * 1000.0 for r in self.records]

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50.0)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0)

    def tier_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.tier] = counts.get(record.tier, 0) + 1
        return counts

    def summary(self) -> str:
        tiers = ", ".join(
            f"{tier}={count}" for tier, count in sorted(self.tier_counts().items())
        )
        return (
            f"{self.count} request(s) in {self.wall_seconds:.2f}s "
            f"({self.qps:,.0f} req/s): p50 {self.p50_ms:.2f} ms, "
            f"p99 {self.p99_ms:.2f} ms, {self.error_count} error(s); "
            f"tiers [{tiers}]"
        )


class LoadGenerator:
    """A seeded request stream against one serving endpoint.

    Args:
        users: universe the request stream draws targets from (with
            replacement, seeded).
        config: the run's shape.
    """

    def __init__(self, users: Sequence[object], config: LoadgenConfig) -> None:
        if not users:
            raise ValueError("loadgen needs a non-empty user universe")
        self.users = list(users)
        self.config = config
        rng = random.Random(f"loadgen:{config.seed}")
        self._user_sequence: List[object] = [
            self.users[rng.randrange(len(self.users))]
            for _ in range(config.requests)
        ]
        offsets: List[float] = []
        clock = 0.0
        for _ in range(config.requests):
            clock += rng.expovariate(config.rate)
            offsets.append(clock)
        self._arrival_offsets: List[float] = offsets

    def schedule(self) -> List[Tuple[object, float]]:
        """The deterministic request schedule: ``(user, arrival_offset_s)``.

        Closed-loop runs ignore the offsets (dispatch is completion-
        driven); open-loop runs fire request *i* at ``offsets[i]``.
        """
        return list(zip(self._user_sequence, self._arrival_offsets))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, host: str, port: int) -> LoadReport:
        """Issue the whole schedule against ``host:port`` and aggregate."""
        return asyncio.run(self.run_async(host, port))

    async def run_async(self, host: str, port: int) -> LoadReport:
        loop = asyncio.get_running_loop()
        records: List[Optional[RequestRecord]] = [None] * self.config.requests
        start = loop.time()
        if self.config.mode == "closed":
            await self._run_closed(host, port, records)
        else:
            await self._run_open(host, port, records)
        wall = loop.time() - start
        return LoadReport(
            records=[r for r in records if r is not None], wall_seconds=wall
        )

    async def _run_closed(self, host, port, records) -> None:
        next_index = iter(range(self.config.requests))

        async def worker():
            for index in next_index:
                records[index] = await self._issue(host, port, index)

        workers = [
            asyncio.ensure_future(worker())
            for _ in range(min(self.config.concurrency, self.config.requests))
        ]
        await asyncio.gather(*workers)

    async def _run_open(self, host, port, records) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()

        async def fire(index: int) -> None:
            due = start + self._arrival_offsets[index]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            records[index] = await self._issue(host, port, index, due=due)

        tasks = [
            asyncio.ensure_future(fire(i)) for i in range(self.config.requests)
        ]
        await asyncio.gather(*tasks)

    async def _issue(
        self, host: str, port: int, index: int, due: Optional[float] = None
    ) -> RequestRecord:
        """Send request ``index``; latency runs from ``due`` when given."""
        user = self._user_sequence[index]
        loop = asyncio.get_running_loop()
        issued = loop.time() if due is None else due
        try:
            status, payload = await asyncio.wait_for(
                http_get_json(
                    host,
                    port,
                    f"/recommend?user={user}&n={self.config.n}",
                ),
                timeout=self.config.timeout_s,
            )
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            return RequestRecord(
                user=user,
                latency_s=loop.time() - issued,
                status=599,
                tier=f"client-error:{type(exc).__name__}",
                generation=-1,
                shed=False,
            )
        return RequestRecord(
            user=user,
            latency_s=loop.time() - issued,
            status=status,
            tier=str(payload.get("tier", "unknown")),
            generation=int(payload.get("generation", -1)),
            shed=bool(payload.get("shed", False)),
        )


def _client_main(host, port, users, config, queue) -> None:
    """One loadgen client process: run a schedule, ship records back."""
    report = LoadGenerator(users, config).run(host, port)
    queue.put((report.records, report.wall_seconds))


def run_multiprocess(
    host: str,
    port: int,
    users: Sequence[object],
    config: LoadgenConfig,
    clients: int = 2,
) -> LoadReport:
    """Drive ``host:port`` from several loadgen *processes* at once.

    A single asyncio client process is itself GIL-bound and can cap the
    measured throughput of a multi-worker server below what the server
    actually sustains; this fans the load out over ``clients`` forked
    processes (client *i* runs ``config.requests // clients`` requests
    under ``seed + i``, so the union schedule is deterministic) and
    merges the records.  ``wall_seconds`` is the slowest client's wall
    clock — all clients run concurrently, so that is the window in which
    every record completed and QPS stays conservative.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if clients == 1:
        return LoadGenerator(users, config).run(host, port)
    share, remainder = divmod(config.requests, clients)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    processes = []
    for index in range(clients):
        requests = share + (1 if index < remainder else 0)
        if requests == 0:
            continue
        child_config = dataclasses.replace(
            config, requests=requests, seed=config.seed + index
        )
        process = ctx.Process(
            target=_client_main,
            args=(host, port, list(users), child_config, queue),
            daemon=True,
        )
        process.start()
        processes.append(process)
    records: List[RequestRecord] = []
    wall = 0.0
    for _ in processes:
        client_records, client_wall = queue.get()
        records.extend(client_records)
        wall = max(wall, client_wall)
    for process in processes:
        process.join()
    return LoadReport(records=records, wall_seconds=wall)


async def http_request_json(
    host: str, port: int, method: str, target: str
) -> Tuple[int, dict]:
    """One HTTP request against the serving tier; returns (status, JSON).

    Raises:
        OSError: connection failures.
        ValueError: responses that do not parse as HTTP + JSON.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        # Read headers, then exactly Content-Length body bytes.  Never
        # wait for EOF: a prefork supervisor that respawns a worker while
        # this request is in flight forks a duplicate of the connection
        # fd into the child, deferring EOF until that worker exits.
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ValueError("malformed HTTP response (no header terminator)")
        length = None
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ValueError(
                        f"malformed Content-Length {value.strip()!r}"
                    )
        if length is not None:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ValueError("truncated HTTP response body")
        else:
            body = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed HTTP status line {status_line!r}")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"response body is not JSON: {exc}")
    return int(parts[1]), payload


async def http_get_json(host: str, port: int, target: str) -> Tuple[int, dict]:
    """``GET`` convenience wrapper over :func:`http_request_json`."""
    return await http_request_json(host, port, "GET", target)
