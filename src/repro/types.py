"""Shared type aliases and small value objects used across the library.

The library identifies users and items by opaque hashable identifiers
(usually ``int`` or ``str``).  Type aliases centralise that convention so
signatures stay readable.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Hashable, Iterable, Iterator, List, Mapping, Tuple

__all__ = [
    "UserId",
    "ItemId",
    "Weight",
    "SimilarityRow",
    "UtilityRow",
    "RankedItem",
    "RecommendationList",
]

# A user node identifier.  Any hashable works; ints are fastest.
UserId = Hashable

# An item node identifier.
ItemId = Hashable

# Preference-edge weight.  The paper's model is unweighted (0/1) but the
# substrate supports arbitrary non-negative weights.
Weight = float

# sim(u, .) — the non-zero similarity scores of a single user to others.
SimilarityRow = Mapping[UserId, float]

# mu_u — utility scores of every item for a single user.
UtilityRow = Mapping[ItemId, float]


@dataclass(frozen=True, order=True)
class RankedItem:
    """One entry of a recommendation list: an item with its utility score.

    Ordering compares by ``(utility, item)`` so sorted sequences of
    :class:`RankedItem` are deterministic even under utility ties, provided
    the item identifiers are mutually comparable.
    """

    utility: float
    item: ItemId = field(compare=True)

    def as_tuple(self) -> Tuple[ItemId, float]:
        """Return ``(item, utility)``, the order used in the paper's text."""
        return (self.item, self.utility)


class RecommendationList:
    """A ranked top-N recommendation list for a single user.

    The ranking is stored as two aligned tuples built in full here, item
    ids and builtin-float utilities, best first; :attr:`items` and
    iteration build :class:`RankedItem` views of them on demand, so a
    list holds three containers however long it is.  Instances are
    frozen and compare equal on ``(user, item ids, utilities, tier)``.

    Attributes:
        user: the target user the list was personalised for.
        tier: which rung of the serving degradation ladder produced the
            list (see :mod:`repro.resilience.degradation`); the default
            ``"personalized"`` is the fully-personalised paper estimator.

    Args:
        item_ids: items in descending utility order, ties broken
            deterministically by the recommender that produced the list.
        utilities: the items' utility scores, coerced to ``float``.

    Raises:
        ValueError: when ``item_ids`` and ``utilities`` differ in length.
    """

    __slots__ = ("user", "tier", "_item_ids", "_utilities")

    def __init__(
        self,
        user: UserId,
        item_ids: Iterable[ItemId] = (),
        utilities: Iterable[float] = (),
        tier: str = "personalized",
    ) -> None:
        ids = tuple(item_ids)
        values = tuple(map(float, utilities))
        if len(ids) != len(values):
            raise ValueError(f"{len(ids)} item ids but {len(values)} utilities")
        setter = object.__setattr__
        setter(self, "user", user)
        setter(self, "tier", tier)
        setter(self, "_item_ids", ids)
        setter(self, "_utilities", values)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        # The constructor's arguments, in order.
        return (self.user, self._item_ids, self._utilities, self.tier)

    def __reduce__(self):
        return (type(self), self._key())

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"RecommendationList(user={self.user!r}, items={self.items!r}, "
            f"tier={self.tier!r})"
        )

    @property
    def items(self) -> Tuple[RankedItem, ...]:
        """The entries as :class:`RankedItem` views, best first."""
        return tuple(map(RankedItem, self._utilities, self._item_ids))

    @property
    def degraded(self) -> bool:
        """Whether the list came from a fallback tier."""
        return self.tier != "personalized"

    def __len__(self) -> int:
        return len(self._item_ids)

    def __iter__(self) -> Iterator[RankedItem]:
        return map(RankedItem, self._utilities, self._item_ids)

    def item_ids(self) -> List[ItemId]:
        """The recommended item identifiers, best first."""
        return list(self._item_ids)

    def utilities(self) -> List[float]:
        """The utility scores aligned with :meth:`item_ids`."""
        return list(self._utilities)

    def truncated(self, n: int) -> "RecommendationList":
        """Return a copy keeping only the top ``n`` items."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return RecommendationList(
            self.user, self._item_ids[:n], self._utilities[:n], self.tier
        )


def as_recommendation_list(
    user: UserId,
    scored_items: Iterable[Tuple[ItemId, float]],
    tier: str = "personalized",
) -> RecommendationList:
    """Build a :class:`RecommendationList` from ``(item, utility)`` pairs.

    The pairs are assumed to already be in rank order; no sorting is done
    here so recommenders stay in control of their tie-breaking policy.
    """
    pairs = list(scored_items)
    return RecommendationList(
        user, [item for item, _ in pairs], [utility for _, utility in pairs], tier
    )
