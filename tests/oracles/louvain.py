"""Reference Louvain: the dict-of-dicts implementation.

The production implementation (:mod:`repro.community.louvain`) runs on
flat numpy arrays.  This module is the straightforward version it was
derived from: adjacency dicts whose insertion order is the tie-breaking
order, per-visit weighted-degree sums, and its own level loop and
Rotta–Noack refinement.  Every edge weight is an integer-valued float,
so both implementations make the same moves for the same rng and the
tests compare their partitions with ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.community.clustering import Clustering
from repro.community.louvain import LouvainResult
from repro.community.modularity import modularity
from repro.graph.protocol import GraphLike
from repro.types import UserId

# Minimum modularity improvement for another level of aggregation.
_MIN_LEVEL_GAIN = 1e-7


class _AggregateGraph:
    """Weighted graph used internally across Louvain's aggregation levels.

    Nodes are integers.  ``adjacency[u][v]`` is the weight between distinct
    nodes; ``loops[u]`` is the self-loop weight (internal weight of a
    collapsed community).  ``total_weight`` is the sum of all edge weights,
    counting each undirected edge once and each loop once.
    """

    __slots__ = ("adjacency", "loops", "total_weight")

    def __init__(self, num_nodes: int) -> None:
        self.adjacency: List[Dict[int, float]] = [{} for _ in range(num_nodes)]
        self.loops: List[float] = [0.0] * num_nodes
        self.total_weight = 0.0

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            self.loops[u] += weight
        else:
            self.adjacency[u][v] = self.adjacency[u].get(v, 0.0) + weight
            self.adjacency[v][u] = self.adjacency[v].get(u, 0.0) + weight
        self.total_weight += weight

    def weighted_degree(self, u: int) -> float:
        """Degree counting loops twice (standard modularity convention)."""
        return sum(self.adjacency[u].values()) + 2.0 * self.loops[u]

    @classmethod
    def from_social_graph(
        cls, graph: GraphLike
    ) -> Tuple["_AggregateGraph", List[UserId]]:
        """Convert a social graph; returns the graph and the node-id order.

        Edges are ingested in *canonical sorted order* regardless of how
        the input representation iterates them.  The adjacency dicts'
        insertion order decides modularity tie-breaks during local
        moving, so without a canonical order the same graph stored as an
        in-memory ``SocialGraph`` and as an mmap-backed ``BigCSRGraph``
        could yield different partitions for the same seed.
        """
        users = graph.users()
        if isinstance(users, range) and users == range(len(users)):
            agg = cls(len(users))
            pairs = sorted(graph.edges())
        else:
            index = {user: i for i, user in enumerate(users)}
            agg = cls(len(users))
            pairs = sorted(
                (index[u], index[v]) if index[u] <= index[v] else (index[v], index[u])
                for u, v in graph.edges()
            )
        for u, v in pairs:
            agg.add_edge(u, v, 1.0)
        return agg, users


def _one_level(
    graph: _AggregateGraph,
    node2com: List[int],
    rng: np.random.Generator,
) -> bool:
    """Run local moving until no node move improves modularity.

    ``node2com`` is modified in place; returns True when at least one move
    happened.
    """
    m = graph.total_weight
    if m <= 0.0:
        return False

    # Community totals: sum of weighted degrees, maintained incrementally.
    com_degree: Dict[int, float] = {}
    for node in range(graph.num_nodes):
        com = node2com[node]
        com_degree[com] = com_degree.get(com, 0.0) + graph.weighted_degree(node)

    order = np.arange(graph.num_nodes)
    rng.shuffle(order)

    moved_any = False
    improved = True
    while improved:
        improved = False
        for node in order:
            node = int(node)
            com = node2com[node]
            k_i = graph.weighted_degree(node)
            k_i_over_2m = k_i / (2.0 * m)

            # Weight from `node` to each neighboring community.
            links_to_com: Dict[int, float] = {}
            for nbr, weight in graph.adjacency[node].items():
                c = node2com[nbr]
                links_to_com[c] = links_to_com.get(c, 0.0) + weight

            # Remove the node from its community for the comparison.
            com_degree[com] -= k_i
            base = links_to_com.get(com, 0.0) - com_degree[com] * k_i_over_2m

            best_com = com
            best_gain = base
            for c, dnc in links_to_com.items():
                if c == com:
                    continue
                gain = dnc - com_degree.get(c, 0.0) * k_i_over_2m
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_com = c

            com_degree[best_com] = com_degree.get(best_com, 0.0) + k_i
            if best_com != com:
                node2com[node] = best_com
                improved = True
                moved_any = True
    return moved_any


def _renumber(node2com: List[int]) -> Tuple[List[int], int]:
    """Map community labels to 0..k-1 in order of first appearance."""
    mapping: Dict[int, int] = {}
    renumbered = []
    for com in node2com:
        if com not in mapping:
            mapping[com] = len(mapping)
        renumbered.append(mapping[com])
    return renumbered, len(mapping)


def _induced_graph(
    graph: _AggregateGraph, node2com: List[int], num_coms: int
) -> _AggregateGraph:
    """Collapse each community into a super-node, summing edge weights."""
    coarse = _AggregateGraph(num_coms)
    for node in range(graph.num_nodes):
        cu = node2com[node]
        coarse.loops[cu] += graph.loops[node]
        coarse.total_weight += graph.loops[node]
        for nbr, weight in graph.adjacency[node].items():
            if nbr < node:
                continue  # count each undirected edge once
            cv = node2com[nbr]
            if cu == cv:
                coarse.loops[cu] += weight
                coarse.total_weight += weight
            else:
                coarse.adjacency[cu][cv] = coarse.adjacency[cu].get(cv, 0.0) + weight
                coarse.adjacency[cv][cu] = coarse.adjacency[cv].get(cu, 0.0) + weight
                coarse.total_weight += weight
    return coarse


def _flat_partition(levels: List[List[int]], num_base_nodes: int) -> List[int]:
    """Compose per-level assignments into a base-node -> community map."""
    assignment = list(range(num_base_nodes))
    for level in levels:
        assignment = [level[c] for c in assignment]
    return assignment


def _partition_modularity(base: _AggregateGraph, assignment: List[int]) -> float:
    """Modularity of a base-node assignment on the internal weighted graph."""
    m = base.total_weight
    if m <= 0.0:
        return 0.0
    intra: Dict[int, float] = {}
    deg: Dict[int, float] = {}
    for node in range(base.num_nodes):
        c = assignment[node]
        deg[c] = deg.get(c, 0.0) + base.weighted_degree(node)
        intra[c] = intra.get(c, 0.0) + base.loops[node]
        for nbr, weight in base.adjacency[node].items():
            if nbr < node:
                continue
            if assignment[nbr] == c:
                intra[c] = intra.get(c, 0.0) + weight
    q = 0.0
    two_m = 2.0 * m
    for c in deg:
        q += intra.get(c, 0.0) / m - (deg[c] / two_m) ** 2
    return q


def _refine_levels(
    graphs: List[_AggregateGraph],
    levels: List[List[int]],
    rng: np.random.Generator,
) -> None:
    """Multi-level refinement: re-run local moving from coarse to fine."""
    for li in range(len(levels) - 2, -1, -1):
        node2com = list(levels[li])
        for upper in levels[li + 1 :]:
            node2com = [upper[c] for c in node2com]
        _one_level(graphs[li], node2com, rng)
        node2com, _num = _renumber(node2com)
        del levels[li + 1 :]
        levels[li] = node2com


def louvain(
    graph: GraphLike,
    rng: Optional[np.random.Generator] = None,
    refine: bool = True,
) -> LouvainResult:
    """The reference Louvain run: same contract as the production one."""
    if rng is None:
        rng = np.random.default_rng(0)
    base, users = _AggregateGraph.from_social_graph(graph)
    n = base.num_nodes
    if n == 0:
        return LouvainResult(Clustering([]), 0.0, 0, refined=False)
    if base.total_weight == 0.0:
        return LouvainResult(Clustering([[u] for u in users]), 0.0, 0, refined=False)

    graphs = [base]
    levels: List[List[int]] = []
    current = base
    prev_q = -1.0
    while True:
        node2com = list(range(current.num_nodes))
        _one_level(current, node2com, rng)
        node2com, num_coms = _renumber(node2com)
        q = _partition_modularity(base, _flat_partition(levels + [node2com], n))
        if q - prev_q <= _MIN_LEVEL_GAIN and levels:
            break
        prev_q = q
        levels.append(node2com)
        if num_coms == current.num_nodes:
            break
        current = _induced_graph(current, node2com, num_coms)
        graphs.append(current)

    if refine and len(levels) > 1:
        _refine_levels(graphs, levels, rng)

    flat = _flat_partition(levels, n)
    clustering = Clustering.from_assignment({users[i]: flat[i] for i in range(n)})
    return LouvainResult(
        clustering=clustering,
        modularity=modularity(graph, clustering),
        num_levels=len(levels),
        refined=refine and len(levels) > 1,
    )


def best_louvain_clustering(
    graph: GraphLike, runs: int = 10, seed: int = 0, refine: bool = True
) -> LouvainResult:
    """The reference best-of-``runs`` protocol (earliest run wins ties)."""
    best: Optional[LouvainResult] = None
    for child in np.random.SeedSequence(seed).spawn(runs):
        result = louvain(graph, rng=np.random.default_rng(child), refine=refine)
        if best is None or result.modularity > best.modularity:
            best = result
    assert best is not None
    return best
