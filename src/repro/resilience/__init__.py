"""Resilience primitives: retries, fault injection, graceful degradation.

Production serving of a published release has to survive the failure
modes the clean-room reproduction never sees: transient IO errors while
loading artifacts, processes killed mid-write, corrupt or truncated
files, and queries from users the release has no signal for.  This
package centralises the machinery the rest of the library uses to cope:

- :mod:`repro.resilience.retry` — :class:`RetryPolicy`, a deterministic
  exponential-backoff retry helper usable as a decorator, a callable
  wrapper, or an attempt iterator.
- :mod:`repro.resilience.faults` — :class:`FaultPlan`, a seed-driven
  fault injector that tests and benchmarks install around IO and
  clustering via :func:`fault_point` hooks, without monkeypatching
  library internals.
- :mod:`repro.resilience.degradation` — the serving degradation ladder
  (personalized → cluster-popularity → global noisy popularity) shared
  by :class:`~repro.core.persistence.ReleaseServer` and
  :class:`~repro.core.private.PrivateSocialRecommender`.

Every fallback in the ladder is post-processing of the already-released
noisy averages, so degraded answers spend zero additional epsilon.
"""

from repro.resilience.degradation import (
    TIER_CLUSTER,
    TIER_EMPTY,
    TIER_GLOBAL,
    TIER_PERSONALIZED,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    bit_flip_file,
    fault_point,
    reset_plans,
    truncate_file,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "fault_point",
    "active_plan",
    "reset_plans",
    "truncate_file",
    "bit_flip_file",
    "TIER_PERSONALIZED",
    "TIER_CLUSTER",
    "TIER_GLOBAL",
    "TIER_EMPTY",
]
