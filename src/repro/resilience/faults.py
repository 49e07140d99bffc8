"""Deterministic, seed-driven fault injection.

Library code marks interesting failure surfaces with
:func:`fault_point` calls — ``fault_point("release.load", path=...)``
before reading an artifact, ``fault_point("compute.kernel.block")``
inside the blocked kernel build, and so on.  With no plan installed the
hook is a dictionary lookup and costs nothing.  Tests and benchmarks
install a :class:`FaultPlan` to make specific sites fail in specific,
reproducible ways::

    plan = FaultPlan([
        FaultSpec(site="release.load", kind="raise", on_call=1),
        FaultSpec(site="release.save.pre-replace", kind="truncate", keep=64),
    ], seed=7)
    with plan.installed():
        ...   # first load raises OSError; saves write a torn tmp file

Fault kinds:

- ``"raise"`` — raise ``exc`` (default ``OSError``, so the default
  :class:`~repro.resilience.retry.RetryPolicy` treats it as transient).
- ``"truncate"`` — cut the file passed to the fault point down to
  ``keep`` bytes (a torn write).
- ``"bitflip"`` — flip one seed-chosen bit of the file (silent media
  corruption; checksums must catch it).
- ``"slow"`` — sleep ``delay`` seconds (a stalled disk / network).

Plans are installed on a stack, so nested ``with`` blocks compose; the
innermost plan sees each fault point first and sites it does not match
fall through to outer plans.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.obs.registry import get_telemetry

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "fault_point",
    "active_plan",
    "reset_plans",
    "truncate_file",
    "bit_flip_file",
]

_KINDS = ("raise", "truncate", "bitflip", "slow")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at one site.

    Args:
        site: exact fault-point name to match.
        kind: one of ``raise``, ``truncate``, ``bitflip``, ``slow``.
        on_call: 1-based call number (per site, per plan) the fault fires
            on.  Calls before and after pass through, which is how
            "fail once, then succeed" transient faults are expressed.
        repeat: fire on *every* call >= ``on_call`` instead of just once.
        exc: exception class or instance for ``raise`` faults.
        keep: bytes to keep for ``truncate`` faults.
        delay: seconds to stall for ``slow`` faults.
    """

    site: str
    kind: str = "raise"
    on_call: int = 1
    repeat: bool = False
    exc: "Type[BaseException] | BaseException" = OSError
    keep: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.on_call < 1:
            raise ValueError(f"on_call must be >= 1, got {self.on_call}")

    def fires_on(self, call_number: int) -> bool:
        if self.repeat:
            return call_number >= self.on_call
        return call_number == self.on_call


def truncate_file(path: str, keep: int) -> None:
    """Cut ``path`` down to its first ``keep`` bytes (simulated torn write)."""
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    with open(path, "r+b") as handle:
        handle.truncate(keep)


def bit_flip_file(path: str, seed: int = 0) -> int:
    """Flip one deterministically-chosen bit of ``path``.

    Returns the byte offset that was corrupted.  Empty files are left
    untouched (returns -1).
    """
    size = os.path.getsize(path)
    if size == 0:
        return -1
    # Seed from a string, not hash(str, ...): str hashing is salted per
    # process (PYTHONHASHSEED), which made the "deterministic" offset
    # vary across runs — and sometimes land in bytes no loader checks.
    rng = random.Random(f"bitflip:{seed}:{size}")
    offset = rng.randrange(size)
    bit = rng.randrange(8)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ (1 << bit)]))
    return offset


class FaultPlan:
    """A reproducible schedule of faults, installed as a context manager.

    Args:
        specs: the planned faults.
        seed: drives bit-flip placement.
        sleep: injectable clock for ``slow`` faults (default
            ``time.sleep``), so tests can assert stalls without waiting.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self.sleep = sleep
        self._calls: Dict[str, int] = {}
        self.fired: List[str] = []

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def calls_to(self, site: str) -> int:
        """How many times ``site`` has been hit while this plan was active."""
        return self._calls.get(site, 0)

    def fire(self, site: str, path: Optional[str] = None) -> None:
        """Record a hit on ``site`` and execute any matching fault."""
        count = self._calls.get(site, 0) + 1
        self._calls[site] = count
        for spec in self.specs:
            if spec.site != site or not spec.fires_on(count):
                continue
            self.fired.append(f"{site}#{count}:{spec.kind}")
            if spec.kind == "raise":
                exc = spec.exc
                if isinstance(exc, type):
                    exc = exc(f"injected fault at {site!r} (call {count})")
                raise exc
            if spec.kind == "slow":
                self.sleep(spec.delay)
            elif spec.kind == "truncate":
                if path is not None:
                    truncate_file(path, spec.keep)
            elif spec.kind == "bitflip":
                if path is not None:
                    bit_flip_file(path, seed=self.seed + count)

    @contextmanager
    def installed(self):
        """Activate this plan for the dynamic extent of the ``with`` block."""
        _STACK.append(self)
        try:
            yield self
        finally:
            _STACK.remove(self)


# The (process-wide) stack of installed plans, innermost last.
_STACK: List[FaultPlan] = []


def active_plan() -> Optional[FaultPlan]:
    """The innermost installed plan, or None."""
    return _STACK[-1] if _STACK else None


def reset_plans() -> None:
    """Uninstall every plan (a forked child clearing inherited state).

    A ``fork``'d worker inherits the parent's installed-plan stack; a
    plan meant to fault the parent (or one specific sibling) would
    otherwise fire in every child.  Prefork workers call this once at
    startup before installing their own per-worker plan, if any.
    """
    _STACK.clear()


def fault_point(site: str, path: Optional[str] = None) -> None:
    """Library-side hook: give installed fault plans a shot at ``site``.

    A site that no installed plan matches is a no-op.  With several plans
    installed the innermost fires first; a raising fault stops the walk.
    When telemetry is active every hit is counted under
    ``fault.site.<site>``, whether or not any plan fires.
    """
    registry = get_telemetry()
    if registry is not None:
        registry.incr(f"fault.site.{site}")
    if not _STACK:
        return
    for plan in reversed(_STACK):
        plan.fire(site, path=path)
