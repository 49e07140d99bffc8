"""The privacy ledger: the repo's one epsilon accountant.

Every module-A_w release is drawn and charged in one place,
:func:`~repro.core.cluster_weights.apply_laplace_noise`: while telemetry
is active it appends :class:`~repro.obs.registry.LedgerEntry` charges —
epsilon, the calibrated sensitivity (``Delta/|c|`` for the paper's
cluster averages), and the composition type — to the active registry
(:func:`record_laplace_release`).  :class:`PrivacyLedgerView` folds
entries back into per-release and end-to-end totals, for a registry, a
merged snapshot, a parsed trace, or the per-snapshot charges a
:class:`~repro.core.dynamic.DynamicPrivateRecommender` keeps:

- charges of one release marked ``"parallel"`` touch disjoint data
  (Theorem 3) and cost their **max** epsilon;
- ``"sequential"`` charges of one release add (Theorem 2);
- distinct releases always compose sequentially.

So a single module-A_w release over any number of clusters totals
exactly the configured epsilon — which is what the exporter's report
prints and the acceptance tests pin.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import LedgerEntry, get_telemetry

__all__ = [
    "PrivacyLedgerView",
    "record_laplace_release",
    "record_mechanism",
]

# Above this many clusters the per-cluster charges are aggregated into
# one worst-case entry so ledgers stay bounded on huge graphs; the
# aggregation is reported explicitly via the entry's count.
_MAX_PARALLEL_ENTRIES = 1024

# Monotonic suffix making each recorded release label unique per process.
_RELEASE_IDS = itertools.count(1)


class PrivacyLedgerView:
    """Composition math over a sequence of ledger entries.

    A *view*: it never mutates the entries, so it can be constructed over
    a live registry's entries, a merged snapshot, or a parsed trace file
    interchangeably.
    """

    def __init__(self, entries: Sequence[LedgerEntry]) -> None:
        self.entries = list(entries)

    def releases(self) -> List[str]:
        """Distinct release identifiers, in first-seen order."""
        seen: Dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.release, None)
        return list(seen)

    def release_epsilon(self, release: str) -> float:
        """One release's cost: max of parallel charges + sum of sequential."""
        parallel = 0.0
        sequential = 0.0
        for entry in self.entries:
            if entry.release != release:
                continue
            if entry.composition == "parallel":
                parallel = max(parallel, entry.epsilon)
            else:
                sequential += entry.epsilon
        return parallel + sequential

    def release_epsilons(self) -> Dict[str, float]:
        """``{release: epsilon}`` for every recorded release."""
        return {r: self.release_epsilon(r) for r in self.releases()}

    def total_epsilon(self) -> float:
        """End-to-end cost: releases compose sequentially."""
        return sum(self.release_epsilons().values())

    def max_sensitivity(self, release: Optional[str] = None) -> float:
        """The largest recorded sensitivity (optionally of one release)."""
        values = [
            e.sensitivity
            for e in self.entries
            if release is None or e.release == release
        ]
        return max(values, default=0.0)

    def summary(self) -> List[Tuple[str, float, int]]:
        """``(release, epsilon, num_charges)`` rows in first-seen order."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.release] = counts.get(entry.release, 0) + 1
        return [
            (release, self.release_epsilon(release), counts[release])
            for release in self.releases()
        ]


def record_mechanism(
    release: str,
    label: str,
    epsilon: float,
    sensitivity: float,
    composition: str = "parallel",
    count: int = 1,
) -> None:
    """Append one charge to the active registry's ledger (no-op if disabled)."""
    registry = get_telemetry()
    if registry is None:
        return
    registry.record_ledger(
        LedgerEntry(
            release=release,
            label=label,
            epsilon=float(epsilon),
            sensitivity=float(sensitivity),
            composition=composition,
            count=int(count),
        )
    )


def record_laplace_release(
    epsilon: float,
    cluster_sizes: Sequence[float],
    sensitivity_numerator: float,
    label: str = "A_w",
    items: int = 1,
) -> Optional[str]:
    """Record one module-A_w Laplace release into the active ledger.

    One charge per cluster ``c``: epsilon, sensitivity
    ``sensitivity_numerator / |c|`` (the paper's ``1/|c|`` in the
    unweighted model), composition ``"parallel"`` — clusters partition
    the users and items partition the edges, so the whole release costs
    exactly ``epsilon`` under Theorem 3, which is what
    :meth:`PrivacyLedgerView.release_epsilon` recovers.

    No-ops (returning None) when telemetry is disabled or no mechanism
    actually ran (``epsilon = inf``, or an empty release).

    Returns the unique release identifier recorded, for tests and
    cross-referencing.
    """
    registry = get_telemetry()
    if registry is None:
        return None
    epsilon = float(epsilon)
    sizes = [float(s) for s in cluster_sizes if s > 0]
    if math.isinf(epsilon) or not sizes:
        return None
    release = f"{label}[eps={epsilon:g}]#{next(_RELEASE_IDS)}"
    if len(sizes) > _MAX_PARALLEL_ENTRIES:
        registry.record_ledger(
            LedgerEntry(
                release=release,
                label=f"clusters[{len(sizes)} aggregated]",
                epsilon=epsilon,
                sensitivity=sensitivity_numerator / min(sizes),
                composition="parallel",
                count=len(sizes) * items,
            )
        )
        return release
    for index, size in enumerate(sizes):
        registry.record_ledger(
            LedgerEntry(
                release=release,
                label=f"cluster[{index}]",
                epsilon=epsilon,
                sensitivity=sensitivity_numerator / size,
                composition="parallel",
                count=items,
            )
        )
    return release
