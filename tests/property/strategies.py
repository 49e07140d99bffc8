"""Shared hypothesis strategies for the property-based tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graph.generators import planted_partition_graph
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph

__all__ = ["social_graphs", "planted_graphs", "preference_graphs", "partitions"]


@st.composite
def social_graphs(draw, max_users: int = 12, max_extra_edges: int = 20):
    """A small arbitrary social graph (possibly disconnected, no loops)."""
    n = draw(st.integers(min_value=1, max_value=max_users))
    graph = SocialGraph()
    graph.add_users(range(n))
    if n >= 2:
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=max_extra_edges,
            )
        )
        for u, v in edges:
            graph.add_edge(u, v)
    return graph


@st.composite
def planted_graphs(draw, min_users: int = 60, max_users: int = 300):
    """A planted-partition graph whose users arrive in a shuffled order.

    Two to eight blocks with a mean of 2–8 neighbors inside a block and
    0.2–2 outside; ``users()`` is the drawn insertion order, so it
    differs from ``stable_user_order()``.
    """
    n = draw(st.integers(min_value=min_users, max_value=max_users))
    blocks = draw(st.integers(min_value=2, max_value=8))
    sizes = [n // blocks + (b < n % blocks) for b in range(blocks)]
    p_in = min(1.0, draw(st.floats(2.0, 8.0)) / (min(sizes) - 1))
    p_out = min(p_in, draw(st.floats(0.2, 2.0)) / (n - min(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planted = planted_partition_graph(sizes, p_in, p_out, rng)
    graph = SocialGraph()
    graph.add_users(draw(st.permutations(range(n))))
    for u, v in planted.edges():
        graph.add_edge(u, v)
    return graph


@st.composite
def preference_graphs(draw, users, max_items: int = 8, max_edges: int = 25):
    """A preference graph over the given user collection."""
    user_list = list(users)
    graph = PreferenceGraph()
    graph.add_users(user_list)
    num_items = draw(st.integers(min_value=1, max_value=max_items))
    for item in range(num_items):
        graph.add_item(item)
    if user_list:
        edges = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(user_list),
                    st.integers(0, num_items - 1),
                ),
                max_size=max_edges,
            )
        )
        for user, item in edges:
            graph.add_edge(user, item)
    return graph


@st.composite
def partitions(draw, users):
    """An arbitrary disjoint partition of the given users."""
    user_list = list(users)
    labels = draw(
        st.lists(
            st.integers(0, max(len(user_list) - 1, 0)),
            min_size=len(user_list),
            max_size=len(user_list),
        )
    )
    from repro.community.clustering import Clustering

    return Clustering.from_assignment(dict(zip(user_list, labels)))
