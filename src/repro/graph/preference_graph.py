"""Bipartite preference graph ``G_p = (U, I, E_p)`` (paper Definition 2).

A preference edge ``(u, i)`` records a positive preference of user ``u``
for item ``i``.  In the paper's model the graph is unweighted — every edge
has weight 1 and absent edges have weight 0 — but the substrate stores an
explicit weight per edge so ratings-style data can be loaded and then
binarised with :meth:`PreferenceGraph.thresholded` exactly as the paper
pre-processes Last.fm and Flixster (discard weight < 2, set the rest to 1).

This is the *private* input: every computation that reads edge weights must
go through a differentially private mechanism (see :mod:`repro.privacy`).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import EdgeError, ItemNotFoundError, NodeNotFoundError
from repro.types import ItemId, UserId, Weight

__all__ = ["PreferenceGraph"]


class PreferenceGraph:
    """A bipartite, directed user-to-item graph with non-negative weights.

    Example:
        >>> g = PreferenceGraph()
        >>> g.add_edge("alice", "song-1")
        >>> g.add_edge("bob", "song-1", weight=3.0)
        >>> g.weight("alice", "song-1")
        1.0
        >>> g.weight("alice", "song-2")   # absent edge -> weight 0
        0.0
        >>> g.item_degree("song-1")
        2
    """

    __slots__ = ("_user_items", "_item_users", "_num_edges")

    def __init__(
        self, edges: Iterable[Tuple[UserId, ItemId]] = (), default_weight: float = 1.0
    ) -> None:
        self._user_items: Dict[UserId, Dict[ItemId, Weight]] = {}
        self._item_users: Dict[ItemId, Set[UserId]] = {}
        self._num_edges = 0
        for u, i in edges:
            self.add_edge(u, i, weight=default_weight)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_user(self, user: UserId) -> None:
        """Register a user with no preferences yet; idempotent."""
        self._user_items.setdefault(user, {})

    def add_users(self, users: Iterable[UserId]) -> None:
        """Register many users at once."""
        for user in users:
            self.add_user(user)

    def add_item(self, item: ItemId) -> None:
        """Register an item with no preferences yet; idempotent."""
        self._item_users.setdefault(item, set())

    def add_edge(self, user: UserId, item: ItemId, weight: float = 1.0) -> None:
        """Add (or overwrite) the preference edge ``(user, item)``.

        Raises:
            EdgeError: unless ``0 < weight < inf``.  A zero weight is
                indistinguishable from an absent edge in the paper's model
                (use :meth:`remove_edge` to delete a preference instead),
                and a NaN would survive the weight cap into the released
                averages, where no noise can hide it.
        """
        if not 0 < weight < math.inf:
            raise EdgeError(
                f"preference weight must be finite and positive, got "
                f"{weight!r} for edge ({user!r}, {item!r})"
            )
        items = self._user_items.setdefault(user, {})
        if item not in items:
            self._num_edges += 1
        items[item] = float(weight)
        self._item_users.setdefault(item, set()).add(user)

    def remove_edge(self, user: UserId, item: ItemId) -> None:
        """Remove the preference edge ``(user, item)``.

        Raises:
            NodeNotFoundError / ItemNotFoundError: if an endpoint is unknown.
            EdgeError: if the edge does not exist.
        """
        if user not in self._user_items:
            raise NodeNotFoundError(user)
        if item not in self._item_users:
            raise ItemNotFoundError(item)
        if item not in self._user_items[user]:
            raise EdgeError(f"preference edge ({user!r}, {item!r}) does not exist")
        del self._user_items[user][item]
        self._item_users[item].discard(user)
        self._num_edges -= 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of registered users (including ones with no edges)."""
        return len(self._user_items)

    @property
    def num_items(self) -> int:
        """Number of registered items, ``|I|``."""
        return len(self._item_users)

    @property
    def num_edges(self) -> int:
        """Number of preference edges, ``|E_p|``."""
        return self._num_edges

    def users(self) -> List[UserId]:
        """All registered users, in insertion order."""
        return list(self._user_items)

    def items(self) -> List[ItemId]:
        """All registered items, in insertion order."""
        return list(self._item_users)

    def edges(self) -> Iterator[Tuple[UserId, ItemId, Weight]]:
        """Iterate every preference edge as ``(user, item, weight)``."""
        for user, items in self._user_items.items():
            for item, weight in items.items():
                yield (user, item, weight)

    def has_user(self, user: UserId) -> bool:
        return user in self._user_items

    def has_item(self, item: ItemId) -> bool:
        return item in self._item_users

    def has_edge(self, user: UserId, item: ItemId) -> bool:
        items = self._user_items.get(user)
        return items is not None and item in items

    def weight(self, user: UserId, item: ItemId) -> Weight:
        """``w(u, i)``: the edge weight, or 0.0 when the edge is absent.

        Unknown users/items also yield 0.0, matching the paper's convention
        ``w(u, i) = 0 for all (u, i) not in E_p``.
        """
        return self._user_items.get(user, {}).get(item, 0.0)

    def items_of(self, user: UserId) -> Dict[ItemId, Weight]:
        """The items user ``user`` prefers, mapped to edge weights.

        Raises:
            NodeNotFoundError: if the user was never registered.
        """
        try:
            return dict(self._user_items[user])
        except KeyError:
            raise NodeNotFoundError(user) from None

    def users_of(self, item: ItemId) -> FrozenSet[UserId]:
        """The users with a preference edge to ``item``.

        Raises:
            ItemNotFoundError: if the item was never registered.
        """
        try:
            return frozenset(self._item_users[item])
        except KeyError:
            raise ItemNotFoundError(item) from None

    def user_degree(self, user: UserId) -> int:
        """Number of items the user prefers."""
        try:
            return len(self._user_items[user])
        except KeyError:
            raise NodeNotFoundError(user) from None

    def item_degree(self, item: ItemId) -> int:
        """Number of users that prefer the item."""
        try:
            return len(self._item_users[item])
        except KeyError:
            raise ItemNotFoundError(item) from None

    def average_item_degree(self) -> float:
        """Mean preferences per item (0.0 when there are no items)."""
        if not self._item_users:
            return 0.0
        return self._num_edges / len(self._item_users)

    def average_user_degree(self) -> float:
        """Mean preferences per user (0.0 when there are no users)."""
        if not self._user_items:
            return 0.0
        return self._num_edges / len(self._user_items)

    def sparsity(self) -> float:
        """``1 - |E_p| / (|U| * |I|)``, as reported in the paper's Table 1."""
        cells = self.num_users * self.num_items
        if cells == 0:
            return 1.0
        return 1.0 - self._num_edges / cells

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def thresholded(self, min_weight: float) -> "PreferenceGraph":
        """Binarise the graph: drop edges below ``min_weight``, set rest to 1.

        This reproduces the paper's Section 6.1 pre-processing (discard
        listened-to / rating edges with weight < 2 and assign weight 1 to
        the remainder).  Users and items are carried over even if they lose
        all their edges, so ``|U|`` and ``|I|`` are unchanged.
        """
        out = PreferenceGraph()
        out.add_users(self._user_items)
        for item in self._item_users:
            out.add_item(item)
        for user, items in self._user_items.items():
            for item, weight in items.items():
                if weight >= min_weight:
                    out.add_edge(user, item, weight=1.0)
        return out

    def restricted_to_users(self, users: Iterable[UserId]) -> "PreferenceGraph":
        """Keep only edges whose user endpoint lies in ``users``.

        All items are preserved so item identifiers remain stable.
        """
        keep = set(users)
        out = PreferenceGraph()
        out.add_users(u for u in self._user_items if u in keep)
        for item in self._item_users:
            out.add_item(item)
        for user, items in self._user_items.items():
            if user not in keep:
                continue
            for item, weight in items.items():
                out.add_edge(user, item, weight=weight)
        return out

    def copy(self) -> "PreferenceGraph":
        """A deep structural copy (identifiers are shared)."""
        clone = PreferenceGraph()
        clone._user_items = {u: dict(d) for u, d in self._user_items.items()}
        clone._item_users = {i: set(s) for i, s in self._item_users.items()}
        clone._num_edges = self._num_edges
        return clone

    def with_edge(
        self, user: UserId, item: ItemId, weight: float = 1.0
    ) -> "PreferenceGraph":
        """A copy with one extra edge — handy for neighbouring-database tests."""
        clone = self.copy()
        clone.add_edge(user, item, weight=weight)
        return clone

    def without_edge(self, user: UserId, item: ItemId) -> "PreferenceGraph":
        """A copy with one edge removed — handy for neighbouring-database tests."""
        clone = self.copy()
        clone.remove_edge(user, item)
        return clone

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_users={self.num_users}, "
            f"num_items={self.num_items}, num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceGraph):
            return NotImplemented
        return (
            self._user_items == other._user_items
            and self._item_users == other._item_users
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("PreferenceGraph is mutable and unhashable")
