"""Filesystem-backed work queue for distributed sweeps.

No external broker: a :class:`SweepQueue` is a directory on a shared
filesystem, and every coordination primitive reduces to an operation the
filesystem already makes atomic —

- **claim**: creating the lease file with ``O_CREAT | O_EXCL`` (exactly
  one worker can win);
- **reclaim**: renaming an *expired* lease file to a worker-unique name
  (``os.rename`` succeeds for exactly one reclaimer);
- **heartbeat**: atomically replacing the lease file with a renewed
  expiry (``os.replace``), after verifying the lease still names this
  worker;
- **complete / poison**: atomically publishing a marker file
  (tmp + fsync + ``os.replace`` + directory fsync).

Layout under the queue root::

    spec.json           # the sweep definition (SweepSpec)
    tasks/<id>.json     # one file per cell task, written at submit
    leases/<id>.json    # present while a worker owns the cell
    attempts/<id>.json  # failed-attempt count, updated on release/reclaim
    done/<id>.json      # completion marker
    poison/<id>.json    # quarantine marker (attempt budget exhausted)
    checkpoint.jsonl    # the shared SweepCheckpoint (the actual results)
    cache/              # the shared SimilarityStore (the artifact bus)

The markers are *bookkeeping*; the durable results always live in the
shared :class:`~repro.experiments.checkpoint.SweepCheckpoint`, so a
worker SIGKILL'd between finishing a cell and writing its marker loses
nothing — the next claimant finds every sub-cell checkpointed and the
cell completes in milliseconds.

Because every cell derives its RNG streams from ``(master seed, cell
key)`` alone, two workers racing on the same cell (a reclaim that turned
out to be premature) write bit-identical checkpoint records; duplicates
are tolerated (and counted) by the checkpoint loader.

Fault sites: ``dist.lease`` fires on every claim scan, ``dist.heartbeat``
on every renewal — tests inject failures there to pin the recovery
paths.
"""

from __future__ import annotations

import json
import math
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dist.spec import SweepSpec
from repro.exceptions import LeaseLostError, SweepQueueError
from repro.experiments.checkpoint import fsync_directory
from repro.obs.registry import incr
from repro.resilience.faults import fault_point

__all__ = [
    "CellTask",
    "Lease",
    "QueueStatus",
    "SweepQueue",
    "task_id_for",
]

_SUBDIRS = ("tasks", "leases", "attempts", "done", "poison")


def _sanitize(part: str) -> str:
    """A filename-safe rendering of one task-id component."""
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in part)


def check_lease_ttl(lease_ttl: float) -> None:
    """Reject a ``lease_ttl`` that is not finite and positive.

    A NaN lease would expire at NaN: :meth:`SweepQueue.reap` reclaims it
    at once while :meth:`SweepQueue.status` counts it live forever.

    Raises:
        ValueError: for a ``lease_ttl`` that is not finite and positive.
    """
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0 < lease_ttl < math.inf:
        raise ValueError(f"lease_ttl must be finite and > 0, got {lease_ttl}")


def task_id_for(measure_name: str, epsilon_label: str) -> str:
    """Deterministic task id of one (measure, epsilon) sweep cell."""
    return f"{_sanitize(measure_name)}__{_sanitize(epsilon_label)}"


@dataclass(frozen=True)
class CellTask:
    """One leaseable unit of sweep work: a (measure, epsilon) cell.

    Attributes:
        task_id: stable, filename-safe identity within the queue.
        measure: similarity-measure name (``repro.similarity.base``
            registry key).
        epsilon: encoded epsilon label
            (:func:`~repro.experiments.checkpoint.encode_epsilon`).
    """

    task_id: str
    measure: str
    epsilon: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "task_id": self.task_id,
            "measure": self.measure,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellTask":
        try:
            return cls(
                task_id=str(payload["task_id"]),
                measure=str(payload["measure"]),
                epsilon=str(payload["epsilon"]),
            )
        except (KeyError, TypeError) as exc:
            raise SweepQueueError(f"malformed task record: {exc!r}") from exc


@dataclass(frozen=True)
class Lease:
    """Proof of a successful claim: one worker owns one cell until expiry.

    Attributes:
        task: the claimed cell.
        worker: the owning worker's id.
        attempt: 1-based attempt number this claim represents (prior
            failed attempts + 1).
        expires_at: wall-clock expiry; a lease past it is reclaimable.
        token: unique per claim, so a worker that loses and re-wins a
            cell cannot confuse its own stale lease with the fresh one.
    """

    task: CellTask
    worker: str
    attempt: int
    expires_at: float
    token: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "task_id": self.task.task_id,
            "worker": self.worker,
            "attempt": self.attempt,
            "expires_at": self.expires_at,
            "token": self.token,
        }


@dataclass(frozen=True)
class QueueStatus:
    """One scan of the queue directory.

    ``remaining`` counts cells still needing work (pending + leased);
    the sweep is finished when it reaches zero — possibly with poisoned
    cells left for the orchestrator's in-process fallback.
    """

    total: int
    pending: int
    leased: int
    expired: int
    done: int
    poisoned: int

    @property
    def remaining(self) -> int:
        return self.pending + self.leased

    @property
    def active(self) -> int:
        """Leases that are currently live (not past expiry)."""
        return self.leased - self.expired


@dataclass
class QueueStats:
    """Per-process counters for one :class:`SweepQueue` instance."""

    claims: int = 0
    reclaims: int = 0
    heartbeats: int = 0
    completions: int = 0
    failures: int = 0
    poisoned: int = 0
    lease_lost: int = 0
    fields: Dict[str, int] = field(default_factory=dict, repr=False)


def _normalised(spec: Dict[str, object]) -> Dict[str, object]:
    """``spec`` as the current :class:`SweepSpec` writes it."""
    return SweepSpec.from_dict(spec).to_dict()


class SweepQueue:
    """The filesystem work queue (see module docstring for the layout).

    Args:
        root: queue directory; must already contain ``spec.json`` (use
            :meth:`create` to initialise one).
        clock: injectable wall clock (default ``time.time``).  Lease
            expiry compares *absolute* times, so every participant must
            share a clock domain — which is exactly the shared-filesystem
            deployment this queue targets.

    Raises:
        SweepQueueError: when ``root`` is not an initialised queue.
    """

    MAX_ATTEMPTS_DEFAULT = 3

    def __init__(
        self, root: str, clock: Callable[[], float] = time.time
    ) -> None:
        self.root = root
        self.clock = clock
        self.stats = QueueStats()
        if not os.path.isdir(root) or not os.path.exists(self._spec_path(root)):
            raise SweepQueueError(
                f"{root!r} is not an initialised sweep queue "
                f"(missing spec.json; run `repro sweep submit` first)"
            )
        self._spec: Optional[dict] = None

    # ------------------------------------------------------------------
    # creation / layout
    # ------------------------------------------------------------------
    @staticmethod
    def _spec_path(root: str) -> str:
        return os.path.join(root, "spec.json")

    @classmethod
    def create(
        cls,
        root: str,
        spec: Dict[str, object],
        tasks: List[CellTask],
        clock: Callable[[], float] = time.time,
    ) -> "SweepQueue":
        """Initialise a queue directory with a spec and its cell tasks.

        Idempotent for an identical spec (resubmitting a sweep is safe
        and keeps all progress); a *different* spec at the same root is
        rejected instead of silently mixing two sweeps' cells.  Both
        specs are compared through :class:`~repro.dist.spec.SweepSpec`,
        so keys an older library wrote and this one ignores (``engine``,
        ``backend``) do not make the same sweep look different.

        Raises:
            SweepQueueError: when ``root`` already holds a different spec.
        """
        os.makedirs(root, exist_ok=True)
        for sub in _SUBDIRS:
            os.makedirs(os.path.join(root, sub), exist_ok=True)
        spec_path = cls._spec_path(root)
        if os.path.exists(spec_path):
            with open(spec_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if _normalised(existing) != _normalised(spec):
                raise SweepQueueError(
                    f"queue {root!r} already holds a different sweep spec; "
                    f"use a fresh directory per sweep"
                )
        else:
            _atomic_write_json(spec_path, spec)
        queue = cls(root, clock=clock)
        for task in tasks:
            task_path = queue._path("tasks", task.task_id)
            if not os.path.exists(task_path):
                _atomic_write_json(task_path, task.to_dict())
        fsync_directory(os.path.join(root, "tasks"))
        return queue

    def _path(self, kind: str, task_id: str) -> str:
        return os.path.join(self.root, kind, f"{task_id}.json")

    @property
    def spec(self) -> dict:
        if self._spec is None:
            try:
                with open(self._spec_path(self.root), encoding="utf-8") as f:
                    self._spec = json.load(f)
            except (OSError, ValueError) as exc:
                raise SweepQueueError(
                    f"cannot read sweep spec in {self.root!r}: {exc}"
                ) from exc
        return self._spec

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.root, "checkpoint.jsonl")

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.root, "cache")

    @property
    def max_attempts(self) -> int:
        value = self.spec.get("max_attempts", self.MAX_ATTEMPTS_DEFAULT)
        return int(value)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # task enumeration
    # ------------------------------------------------------------------
    def task_ids(self) -> List[str]:
        """All task ids, sorted (the deterministic claim scan order)."""
        names = []
        for name in os.listdir(os.path.join(self.root, "tasks")):
            if name.endswith(".json"):
                names.append(name[: -len(".json")])
        return sorted(names)

    def load_task(self, task_id: str) -> CellTask:
        payload = _read_json(self._path("tasks", task_id))
        if payload is None:
            raise SweepQueueError(f"no such task {task_id!r} in {self.root!r}")
        return CellTask.from_dict(payload)

    def is_done(self, task_id: str) -> bool:
        return os.path.exists(self._path("done", task_id))

    def is_poisoned(self, task_id: str) -> bool:
        return os.path.exists(self._path("poison", task_id))

    def poison_record(self, task_id: str) -> Optional[dict]:
        return _read_json(self._path("poison", task_id))

    def attempts(self, task_id: str) -> int:
        """Failed attempts recorded for ``task_id`` so far."""
        record = _read_json(self._path("attempts", task_id))
        if record is None:
            return 0
        try:
            return int(record["attempts"])  # type: ignore[index]
        except (KeyError, TypeError, ValueError):
            return 0

    # ------------------------------------------------------------------
    # the lease protocol
    # ------------------------------------------------------------------
    def claim(self, worker: str, lease_ttl: float) -> Optional[Lease]:
        """Try to lease one unclaimed cell; None when nothing is claimable.

        The scan visits tasks in sorted order, skipping completed and
        poisoned cells.  An *expired* lease found along the way is
        reclaimed (its attempt counted as failed) before the cell is
        re-offered; a cell whose failed attempts reached the queue's
        ``max_attempts`` is quarantined instead of offered.

        Raises:
            ValueError: for a ``lease_ttl`` that is not finite and positive.
        """
        check_lease_ttl(lease_ttl)
        fault_point("dist.lease")
        for task_id in self.task_ids():
            if self.is_done(task_id) or self.is_poisoned(task_id):
                continue
            lease_path = self._path("leases", task_id)
            if os.path.exists(lease_path):
                if not self._reclaim_if_expired(task_id, lease_path, worker):
                    continue  # live lease (or a peer won the reclaim)
            attempts = self.attempts(task_id)
            if attempts >= self.max_attempts:
                self._quarantine(task_id, attempts, "attempt budget exhausted")
                continue
            lease = Lease(
                task=self.load_task(task_id),
                worker=worker,
                attempt=attempts + 1,
                expires_at=self.clock() + lease_ttl,
                token=uuid.uuid4().hex,
            )
            try:
                fd = os.open(
                    lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                continue  # a peer claimed it between our scan and open
            except OSError as exc:
                raise SweepQueueError(
                    f"cannot create lease {lease_path!r}: {exc}"
                ) from exc
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(lease.to_dict(), handle)
                handle.flush()
                os.fsync(handle.fileno())
            self.stats.claims += 1
            incr("dist.claims")
            return lease
        return None

    def _reclaim_if_expired(
        self, task_id: str, lease_path: str, worker: str, force: bool = False
    ) -> bool:
        """Remove an expired lease; True when the cell became claimable.

        Exactly one reclaimer wins the rename of the stale lease file;
        the loser treats the cell as still busy this scan (it will see
        the truth next scan).  ``force`` skips the expiry check (see
        :meth:`reap`).
        """
        stale = _read_json(lease_path)
        if stale is None:
            # Lease vanished mid-scan: owner completed or released it.
            return True
        try:
            expires_at = float(stale["expires_at"])  # type: ignore[index]
            attempt = int(stale.get("attempt", 1))  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError):
            expires_at, attempt = 0.0, self.max_attempts  # malformed: poison
        if not force and expires_at > self.clock():
            return False
        grave = f"{lease_path}.reclaimed-{_sanitize(worker)}-{uuid.uuid4().hex}"
        try:
            os.rename(lease_path, grave)
        except OSError:
            return False  # a peer won the reclaim race
        # The dead worker's attempt counts as failed: that is what keeps
        # a crash-looping cell marching toward quarantine.
        self._record_attempts(task_id, max(attempt, self.attempts(task_id)))
        os.remove(grave)
        self.stats.reclaims += 1
        incr("dist.reclaims")
        return True

    def _record_attempts(self, task_id: str, attempts: int) -> None:
        _atomic_write_json(
            self._path("attempts", task_id), {"attempts": int(attempts)}
        )

    def _owns(self, lease: Lease) -> bool:
        current = _read_json(self._path("leases", lease.task.task_id))
        return (
            current is not None
            and current.get("worker") == lease.worker
            and current.get("token") == lease.token
        )

    def heartbeat(self, lease: Lease, lease_ttl: float) -> Lease:
        """Renew ``lease`` for another ``lease_ttl`` seconds.

        Raises:
            LeaseLostError: when the lease file no longer carries this
                worker's token (expired and reclaimed by a peer, or the
                cell finished elsewhere).  The caller should stop working
                the cell — or finish and rely on result idempotence.
            ValueError: for a ``lease_ttl`` that is not finite and positive.
        """
        check_lease_ttl(lease_ttl)
        fault_point("dist.heartbeat")
        if not self._owns(lease):
            self.stats.lease_lost += 1
            incr("dist.lease_lost")
            raise LeaseLostError(
                f"worker {lease.worker!r} lost its lease on "
                f"{lease.task.task_id!r}"
            )
        renewed = Lease(
            task=lease.task,
            worker=lease.worker,
            attempt=lease.attempt,
            expires_at=self.clock() + lease_ttl,
            token=lease.token,
        )
        _atomic_write_json(
            self._path("leases", lease.task.task_id), renewed.to_dict()
        )
        self.stats.heartbeats += 1
        incr("dist.heartbeats")
        return renewed

    def complete(self, lease: Lease) -> None:
        """Mark the leased cell done and release the lease.

        Safe to call after losing the lease: results are deterministic,
        so a double completion writes an identical marker.
        """
        _atomic_write_json(
            self._path("done", lease.task.task_id),
            {
                "task_id": lease.task.task_id,
                "worker": lease.worker,
                "attempt": lease.attempt,
                "completed_at": self.clock(),
            },
        )
        fsync_directory(os.path.join(self.root, "done"))
        if self._owns(lease):
            _remove_quietly(self._path("leases", lease.task.task_id))
        self.stats.completions += 1
        incr("dist.completed")

    def fail(self, lease: Lease, error: BaseException) -> bool:
        """Record a failed attempt and release the lease.

        Returns True when the failure quarantined the cell (attempt
        budget exhausted), False when the cell goes back to pending for
        another worker (or a later retry) to claim.
        """
        self._record_attempts(
            lease.task.task_id, max(lease.attempt, self.attempts(lease.task.task_id))
        )
        if self._owns(lease):
            _remove_quietly(self._path("leases", lease.task.task_id))
        self.stats.failures += 1
        incr("dist.failures")
        if lease.attempt >= self.max_attempts:
            self._quarantine(
                lease.task.task_id, lease.attempt, f"{type(error).__name__}: {error}"
            )
            return True
        return False

    def _quarantine(self, task_id: str, attempts: int, reason: str) -> None:
        if self.is_poisoned(task_id):
            return
        _atomic_write_json(
            self._path("poison", task_id),
            {
                "task_id": task_id,
                "attempts": int(attempts),
                "reason": reason,
                "poisoned_at": self.clock(),
            },
        )
        fsync_directory(os.path.join(self.root, "poison"))
        self.stats.poisoned += 1
        incr("dist.poisoned")

    # ------------------------------------------------------------------
    # maintenance / introspection
    # ------------------------------------------------------------------
    def reap(self, worker: str = "reaper", force: bool = False) -> int:
        """Reclaim every expired lease; returns how many were reclaimed.

        Cells whose failed attempts reached the budget are quarantined on
        the spot, so a wedged sweep (all workers dead mid-cell) is fully
        unwedged by one reap pass.

        With ``force=True`` *every* outstanding lease is reclaimed,
        expiry or not — for an orchestrator that has already decided the
        lease holders are gone (grace period or timeout spent).  A holder
        that is in fact alive discovers the loss at its next heartbeat
        and stops (or finishes idempotently: results are deterministic,
        completion markers tolerate duplicates).
        """
        reclaimed = 0
        for task_id in self.task_ids():
            if self.is_done(task_id) or self.is_poisoned(task_id):
                continue
            lease_path = self._path("leases", task_id)
            if not os.path.exists(lease_path):
                continue
            before = self.stats.reclaims
            if self._reclaim_if_expired(
                task_id, lease_path, worker, force=force
            ):
                if self.stats.reclaims > before:
                    reclaimed += 1
                if self.attempts(task_id) >= self.max_attempts:
                    self._quarantine(
                        task_id, self.attempts(task_id), "attempt budget exhausted"
                    )
        return reclaimed

    def status(self) -> QueueStatus:
        """Scan the directory into one consistent-enough snapshot."""
        now = self.clock()
        total = pending = leased = expired = done = poisoned = 0
        for task_id in self.task_ids():
            total += 1
            if self.is_done(task_id):
                done += 1
                continue
            if self.is_poisoned(task_id):
                poisoned += 1
                continue
            lease = _read_json(self._path("leases", task_id))
            if lease is None:
                pending += 1
                continue
            leased += 1
            try:
                if float(lease["expires_at"]) <= now:  # type: ignore[index]
                    expired += 1
            except (KeyError, TypeError, ValueError):
                expired += 1
        return QueueStatus(
            total=total,
            pending=pending,
            leased=leased,
            expired=expired,
            done=done,
            poisoned=poisoned,
        )


# ----------------------------------------------------------------------
# small file helpers (atomic JSON write, tolerant read)
# ----------------------------------------------------------------------
def _atomic_write_json(path: str, payload: Dict[str, object]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[dict]:
    """Read a small JSON file; None when absent or torn mid-write."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass
