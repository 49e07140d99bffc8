"""Differential-privacy primitives (paper Section 3).

- :class:`LaplaceMechanism` / :func:`laplace_noise` — the workhorse
  mechanism (Theorem 1): add ``Lap(sensitivity / epsilon)`` noise.
- :class:`GeometricMechanism` — the discrete analogue, provided for
  integer-valued counts.
- :mod:`repro.privacy.sensitivity` — global-sensitivity calculators for the
  utility-query workloads of the recommenders (the quantities the
  baselines calibrate their noise against).

Epsilon accounting under sequential (Theorem 2) and parallel (Theorem 3)
composition lives in one place, the privacy ledger
(:mod:`repro.obs.ledger`); the cluster mechanism's ``Delta/|c|`` cell
sensitivity is stated once, by
:class:`~repro.core.cluster_weights.ClusterItemAverages`.
"""

from repro.privacy.mechanisms import (
    GeometricMechanism,
    LaplaceMechanism,
    laplace_noise,
    validate_epsilon,
)
from repro.privacy.sensitivity import (
    edge_weight_sensitivity,
    utility_query_sensitivity,
)

__all__ = [
    "LaplaceMechanism",
    "GeometricMechanism",
    "laplace_noise",
    "validate_epsilon",
    "utility_query_sensitivity",
    "edge_weight_sensitivity",
]
