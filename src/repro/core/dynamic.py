"""Private recommendations over dynamic graphs (paper Section 7).

The paper computes recommendations from a single static snapshot and
names dynamic graphs the main direction for future work.  This module
provides the standard composition-based treatment: a
:class:`DynamicPrivateRecommender` holds a total privacy budget and fits a
fresh :class:`PrivateSocialRecommender` per snapshot, charging each
snapshot as its own release on a privacy ledger
(:class:`~repro.obs.ledger.PrivacyLedgerView`).  Successive preference
snapshots overlap, so their releases compose sequentially (Theorem 2):
they add.

Two allocation policies are provided:

- ``uniform(T)`` — plan for ``T`` snapshots and spend ``epsilon/T`` each.
- ``decay(factor)`` — geometric decay: snapshot ``t`` gets
  ``epsilon * (1-f) * f^t``; the budget never exhausts, at the cost of
  ever-noisier late snapshots.  This is the textbook answer when the
  number of snapshots is unknown.

This is deliberately conservative.  Exploiting *overlap* between
consecutive snapshots (most preference edges persist) to spend less than
sequential composition requires continual-observation machinery beyond
this paper's scope; the ledger makes the conservative cost explicit
instead of hiding it.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.core.private import ClusteringStrategy, PrivateSocialRecommender
from repro.exceptions import BudgetExhaustedError, PrivacyError
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph
from repro.obs.ledger import PrivacyLedgerView
from repro.obs.registry import LedgerEntry
from repro.privacy.mechanisms import validate_epsilon
from repro.similarity.base import SimilarityMeasure

__all__ = ["DynamicPrivateRecommender", "uniform_allocation", "decay_allocation"]

# A policy maps the snapshot index (0-based) to that snapshot's epsilon.
AllocationPolicy = Callable[[int], float]


def uniform_allocation(total_epsilon: float, num_snapshots: int) -> AllocationPolicy:
    """Spend ``total_epsilon / num_snapshots`` on each planned snapshot.

    Fitting more than ``num_snapshots`` snapshots exhausts the budget and
    raises at fit time.

    Raises:
        ValueError: if ``num_snapshots`` < 1.
    """
    validate_epsilon(total_epsilon)
    if num_snapshots < 1:
        raise ValueError(f"num_snapshots must be >= 1, got {num_snapshots}")
    per_snapshot = total_epsilon / num_snapshots
    return lambda index: per_snapshot


def decay_allocation(total_epsilon: float, factor: float = 0.5) -> AllocationPolicy:
    """Geometric decay: snapshot ``t`` gets ``total * (1-factor) * factor^t``.

    The series sums to ``total_epsilon``, so any number of snapshots fits.

    Raises:
        ValueError: if ``factor`` is outside (0, 1).
    """
    validate_epsilon(total_epsilon)
    if not 0.0 < factor < 1.0:
        raise ValueError(f"factor must be in (0, 1), got {factor}")
    return lambda index: total_epsilon * (1.0 - factor) * factor**index


class DynamicPrivateRecommender:
    """Budgeted sequence of private recommenders over graph snapshots.

    Args:
        measure: social similarity measure.
        total_epsilon: the end-to-end privacy budget across all snapshots.
        allocation: per-snapshot epsilon policy (default: geometric decay
            with factor 0.5, which supports an unbounded stream).
        n: default recommendation-list length.
        clustering_strategy: forwarded to each snapshot's recommender.
        seed: base noise seed (each snapshot derives an independent seed).

    Example:
        >>> from repro.similarity import CommonNeighbors
        >>> dyn = DynamicPrivateRecommender(
        ...     CommonNeighbors(), total_epsilon=1.0,
        ...     allocation=uniform_allocation(1.0, num_snapshots=4),
        ... )
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        total_epsilon: float,
        allocation: Optional[AllocationPolicy] = None,
        n: int = 10,
        clustering_strategy: Optional[ClusteringStrategy] = None,
        seed: int = 0,
    ) -> None:
        self.measure = measure
        self._total = validate_epsilon(total_epsilon)
        self._charges: List[LedgerEntry] = []
        if allocation is None:
            allocation = decay_allocation(total_epsilon, factor=0.5)
        self.allocation = allocation
        self.n = n
        self.clustering_strategy = clustering_strategy
        self.seed = seed
        self._snapshots: List[PrivateSocialRecommender] = []

    @property
    def num_snapshots(self) -> int:
        """How many snapshots have been fitted so far."""
        return len(self._snapshots)

    @property
    def current(self) -> PrivateSocialRecommender:
        """The recommender for the most recent snapshot.

        Raises:
            PrivacyError: before the first snapshot is fitted.
        """
        if not self._snapshots:
            raise PrivacyError("no snapshot has been fitted yet")
        return self._snapshots[-1]

    def fit_snapshot(
        self, social: SocialGraph, preferences: PreferenceGraph
    ) -> PrivateSocialRecommender:
        """Fit a private recommender on the next snapshot, spending budget.

        The per-snapshot epsilon comes from the allocation policy; the
        charge is recorded *before* fitting so a crash cannot under-count.

        Returns:
            The fitted snapshot recommender (also kept as :attr:`current`).

        Raises:
            BudgetExhaustedError: when the policy's next charge does not
                fit in the remaining budget.
            InvalidEpsilonError: when the policy's next charge is not a
                positive number.
        """
        index = len(self._snapshots)
        epsilon = validate_epsilon(self.allocation(index))
        remaining = self._remaining()
        # Tolerate float round-off so N sequential charges of total/N fit.
        if epsilon > remaining + 1e-12:
            raise BudgetExhaustedError(epsilon, remaining)
        if not math.isinf(epsilon):  # epsilon = inf draws no noise
            self._charges.append(
                LedgerEntry(
                    release=f"snapshot#{len(self._charges)}",
                    label=f"A_w[snapshot {index}]",
                    epsilon=epsilon,
                    # W / |c| <= W = 1 before the snapshot is clustered.
                    sensitivity=1.0,
                )
            )
        recommender = PrivateSocialRecommender(
            self.measure,
            epsilon=epsilon,
            n=self.n,
            clustering_strategy=self.clustering_strategy,
            seed=self.seed * 100_003 + index,
        )
        recommender.fit(social, preferences)
        self._snapshots.append(recommender)
        return recommender

    def recommend(self, user, n: Optional[int] = None):
        """Recommendations from the most recent snapshot."""
        return self.current.recommend(user, n=n)

    def spent_epsilon(self) -> float:
        """Total epsilon consumed across all fitted snapshots.

        Each snapshot is its own release, so the ledger adds them.
        """
        return PrivacyLedgerView(self._charges).total_epsilon()

    def _remaining(self) -> float:
        if math.isinf(self._total):
            return math.inf
        return max(0.0, self._total - self.spent_epsilon())

    def snapshot(self, index: int) -> PrivateSocialRecommender:
        """The fitted recommender for snapshot ``index`` (0-based)."""
        return self._snapshots[index]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(snapshots={self.num_snapshots}, "
            f"spent={self.spent_epsilon():g}, remaining={self._remaining():g})"
        )
