"""The Louvain method for community detection, with multi-level refinement.

This is a from-scratch implementation of the algorithm the paper adopts for
its clustering phase:

- greedy local moving of nodes between communities to maximise modularity
  (Blondel et al., "Fast unfolding of communities in large networks", 2008),
- aggregation of each community into a super-node and repetition on the
  coarser graph, until modularity stops improving,
- the multi-level refinement step of Rotta & Noack (JEA 2011): after the
  hierarchy is built, the partition is projected back down level by level
  and local moving re-runs at every level, which stabilises the output
  under different initial node orderings — exactly why the paper adds it.

The paper runs Louvain 10 times with different random node orderings and
keeps the most modular result; :func:`best_louvain_clustering` packages
that protocol.  The restarts differ only in their rng, so one call builds
the base graph, its weighted degrees and its neighbor lists once and
shares them with every restart, and only the winner becomes a
:class:`Clustering`.

The implementation runs on flat numpy arrays (CSR-style
``indptr``/``indices``/``weights``, a node→community vector, community
weight accumulators).  Candidate communities are visited in
first-appearance order and compared with a ``> best + 1e-12`` rule, and
every edge weight in the hierarchy is an integer-valued float (sums of
1.0), so all gain arithmetic is exact and the partition is a pure
function of the graph and the rng.  A dict-based reference
implementation in ``tests/oracles`` pins it partition for partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.community.clustering import Clustering
from repro.community.modularity import label_modularity
from repro.compute.adjacency import adjacency_csr
from repro.graph.protocol import GraphLike
from repro.obs.registry import incr as obs_incr
from repro.obs.spans import span
from repro.types import UserId

__all__ = ["louvain", "best_louvain_clustering", "LouvainResult"]

# Minimum modularity improvement for another level of aggregation.
_MIN_LEVEL_GAIN = 1e-7


class _FlatGraph:
    """CSR-style weighted graph, one per aggregation level.

    Per-node neighbor runs (``indices[indptr[u]:indptr[u+1]]``) hold
    neighbors in edge insertion order, which is the first-appearance
    order local moving iterates candidate communities in — the
    tie-breaking order.  The weighted degrees and the ``(neighbor,
    weight)`` pair lists are derived once and cached, so every local-move
    pass over one graph (a level's and its refinement's, and every
    restart's on a shared base graph) reads the same copy.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "loops",
        "total_weight",
        "_wdeg",
        "_pairs",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        loops: np.ndarray,
        total_weight: float,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.loops = loops
        self.total_weight = total_weight
        self._wdeg: Optional[np.ndarray] = None
        self._pairs: Optional[List[List[Tuple[int, float]]]] = None

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    def weighted_degrees(self) -> np.ndarray:
        """Per-node weighted degree, loops counted twice (cached)."""
        if self._wdeg is None:
            n = self.num_nodes
            wdeg = np.zeros(n)
            src = np.repeat(np.arange(n), np.diff(self.indptr))
            np.add.at(wdeg, src, self.weights)
            self._wdeg = wdeg + 2.0 * self.loops
        return self._wdeg

    def neighbor_pairs(self) -> List[List[Tuple[int, float]]]:
        """Per-node ``(neighbor, weight)`` runs as builtin lists (cached).

        The sequential move scan reads these instead of the CSR arrays:
        element reads on lists avoid per-access numpy scalar boxing while
        holding the exact same float64 values.  Each run stays in neighbor
        order, so ``links_to_com`` fills in first-appearance order.
        """
        if self._pairs is None:
            ptr = self.indptr.tolist()
            idx = self.indices.tolist()
            wts = self.weights.tolist()
            self._pairs = [
                list(zip(idx[ptr[i] : ptr[i + 1]], wts[ptr[i] : ptr[i + 1]]))
                for i in range(self.num_nodes)
            ]
        return self._pairs

    @classmethod
    def from_adjacency_lists(
        cls,
        nbr_lists: List[List[int]],
        wt_lists: List[List[float]],
        loops: np.ndarray,
        total_weight: float,
    ) -> "_FlatGraph":
        n = len(nbr_lists)
        counts = np.fromiter((len(row) for row in nbr_lists), np.int64, n)
        nnz = int(counts.sum()) if n else 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.fromiter((j for row in nbr_lists for j in row), np.int64, nnz)
        weights = np.fromiter((w for row in wt_lists for w in row), np.float64, nnz)
        return cls(indptr, indices, weights, loops, total_weight)

    @classmethod
    def from_graph(cls, graph: GraphLike) -> Tuple["_FlatGraph", Sequence[UserId]]:
        """The base graph of ``graph``; returns it and the node-id order.

        Nodes are numbered in ``graph.users()`` order, and every neighbor
        run ascends in that numbering: neighbor-run order is the
        tie-breaking order of local moving, so it must not depend on
        whether the graph arrived as a ``SocialGraph`` or a mmap-backed
        ``BigCSRGraph``.  The runs come from the cached CSR export (sorted
        indices, stable user order), permuted to ``users()`` order when
        the two orders differ.
        """
        users = graph.users()
        adjacency = adjacency_csr(graph)
        matrix = adjacency.matrix
        if users != adjacency.users:
            index = adjacency.index
            perm = np.fromiter((index[u] for u in users), np.int64, len(users))
            matrix = matrix[perm][:, perm]
            matrix.sort_indices()
        indices = matrix.indices.astype(np.int64)
        return (
            cls(
                matrix.indptr.astype(np.int64),
                indices,
                np.ones(len(indices)),
                np.zeros(len(users)),
                float(graph.num_edges),
            ),
            users,
        )


def _one_level_flat(
    graph: _FlatGraph,
    node2com: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Run local moving until no node move improves modularity.

    ``node2com`` is modified in place.  The weighted-degree vector and
    the community-degree accumulator are computed vectorised once.  The
    sequential move scan itself runs over the graph's cached builtin-list
    pair runs (:meth:`_FlatGraph.neighbor_pairs`): local moving is
    inherently order-dependent, and element reads on lists avoid
    per-access numpy scalar boxing while holding the exact same float64
    values.

    Candidate communities are visited in first-appearance order over the
    node's neighbor run, and every link sum and community degree is an
    integer-valued float, so gains, comparisons, and therefore moves are
    exact.

    A visit evaluates its node only when the evaluation could move it.
    Evaluating ``v`` records ``margin[v]``: the gain of the community
    ``v`` ends in minus the best gain of any other candidate (``inf``
    with no other), less a rounding allowance of ``1e-9 * k_v``.  Until
    a neighbor of ``v`` moves, ``v``'s link sums and candidates stay as
    they were (its own move leaves the inputs of its next evaluation
    unchanged), so only community degrees can shift its gains: each
    candidate's by ``|dD_c| * k_v / 2m``, and the sum of every
    ``|dD_c|`` grows by ``2 * k_x`` per move of a node ``x``
    (``churn``).  While ``margin[v]`` exceeds the churn since ``v``'s
    evaluation times ``k_v / 2m``, the ``best + 1e-12`` scan would keep
    ``v`` where it is, so the visit is skipped.  A move resets its
    neighbors' margins to ``-inf`` (stale), as every node starts.  Each
    evaluation that runs is the unpruned one, so the moves, and the
    partition, are those of the unpruned scan; the allowance exceeds
    the gains' float rounding, which is below ``2**-49 * k_v``.
    """
    m = graph.total_weight
    if m <= 0.0:
        return

    n = graph.num_nodes
    wdeg_arr = graph.weighted_degrees()
    com_degree_arr = np.zeros(n)
    np.add.at(com_degree_arr, node2com, wdeg_arr)

    order_arr = np.arange(n)
    rng.shuffle(order_arr)

    pairs = graph.neighbor_pairs()
    wdeg = wdeg_arr.tolist()
    com_degree = com_degree_arr.tolist()
    coms = node2com.tolist()
    order = order_arr.tolist()
    two_m = 2.0 * m

    stale = -math.inf
    margin = [stale] * n
    churn_at = [0.0] * n
    churn = 0.0
    visits = evaluations = 0
    improved = True
    while improved:
        improved = False
        visits += n
        for node in order:
            k_i = wdeg[node]
            k_i_over_2m = k_i / two_m
            if margin[node] > (churn - churn_at[node]) * k_i_over_2m:
                continue
            evaluations += 1
            com = coms[node]

            links_to_com: Dict[int, float] = {}
            links_get = links_to_com.get
            for nbr, weight in pairs[node]:
                c = coms[nbr]
                links_to_com[c] = links_get(c, 0.0) + weight

            com_degree[com] -= k_i
            # A candidate must beat the best gain so far by 1e-12; the
            # threshold changes only when the best candidate does.
            best_gain = links_to_com.get(com, 0.0) - com_degree[com] * k_i_over_2m
            threshold = best_gain + 1e-12
            runner_up = stale
            best_com = com
            for c, dnc in links_to_com.items():
                if c == com:
                    continue
                gain = dnc - com_degree[c] * k_i_over_2m
                if gain > threshold:
                    if best_gain > runner_up:
                        runner_up = best_gain
                    best_gain = gain
                    threshold = gain + 1e-12
                    best_com = c
                elif gain > runner_up:
                    runner_up = gain

            com_degree[best_com] += k_i
            margin[node] = best_gain - runner_up - 1e-9 * k_i
            if best_com != com:
                coms[node] = best_com
                churn += 2.0 * k_i
                for nbr, _weight in pairs[node]:
                    margin[nbr] = stale
                improved = True
            churn_at[node] = churn
    node2com[:] = coms
    obs_incr("louvain.node_visits", visits)
    obs_incr("louvain.node_evaluations", evaluations)


def _renumber_flat(node2com: np.ndarray) -> Tuple[np.ndarray, int]:
    """Map community labels to 0..k-1 in order of first appearance."""
    uniq, first, inverse = np.unique(
        node2com, return_index=True, return_inverse=True
    )
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq), dtype=np.int64)
    return rank[inverse], len(uniq)


def _induced_flat(
    graph: _FlatGraph, node2com: np.ndarray, num_coms: int
) -> _FlatGraph:
    """Collapse communities into super-nodes on flat arrays.

    Coarse neighbor runs are emitted in first appearance order of each
    inter-community pair over the fine-edge scan, and all weight sums are
    integer accumulations, so the coarse graph is exact.
    """
    n = graph.num_nodes
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    keep = graph.indices >= src  # count each undirected edge once
    edge_u = node2com[src[keep]]
    edge_v = node2com[graph.indices[keep]]
    edge_w = graph.weights[keep]

    loops = np.zeros(num_coms)
    np.add.at(loops, node2com, graph.loops)
    intra = edge_u == edge_v
    np.add.at(loops, edge_u[intra], edge_w[intra])

    inter = ~intra
    lo = np.minimum(edge_u[inter], edge_v[inter])
    hi = np.maximum(edge_u[inter], edge_v[inter])
    pair_key = lo.astype(np.int64) * np.int64(num_coms) + hi.astype(np.int64)
    uniq, first, inverse = np.unique(
        pair_key, return_index=True, return_inverse=True
    )
    pair_weight = np.bincount(inverse, weights=edge_w[inter])

    nbr_lists: List[List[int]] = [[] for _ in range(num_coms)]
    wt_lists: List[List[float]] = [[] for _ in range(num_coms)]
    for j in np.argsort(first, kind="stable"):
        j = int(j)
        com_a, com_b = divmod(int(uniq[j]), num_coms)
        weight = float(pair_weight[j])
        nbr_lists[com_a].append(com_b)
        wt_lists[com_a].append(weight)
        nbr_lists[com_b].append(com_a)
        wt_lists[com_b].append(weight)
    return _FlatGraph.from_adjacency_lists(
        nbr_lists, wt_lists, loops, graph.total_weight
    )


def _flat_partition_flat(
    levels: List[np.ndarray], num_base_nodes: int
) -> np.ndarray:
    assignment = np.arange(num_base_nodes, dtype=np.int64)
    for level in levels:
        assignment = level[assignment]
    return assignment


def _partition_modularity_flat(
    base: _FlatGraph, assignment: np.ndarray
) -> float:
    """Modularity of a base-node assignment on the internal weighted graph.

    The per-community terms use exact integer sums; the final float
    accumulation visits communities in first-appearance order, so
    level-gain decisions are a pure function of the partition.
    """
    m = base.total_weight
    if m <= 0.0:
        return 0.0
    n = base.num_nodes
    num_coms = int(assignment.max()) + 1
    deg = np.bincount(assignment, weights=base.weighted_degrees(), minlength=num_coms)
    intra = np.bincount(assignment, weights=base.loops, minlength=num_coms)
    src = np.repeat(np.arange(n), np.diff(base.indptr))
    keep = (base.indices >= src) & (assignment[src] == assignment[base.indices])
    if keep.any():
        np.add.at(intra, assignment[src[keep]], base.weights[keep])

    uniq, first = np.unique(assignment, return_index=True)
    q = 0.0
    two_m = 2.0 * m
    for j in np.argsort(first, kind="stable"):
        c = int(uniq[j])
        q += intra[c] / m - (deg[c] / two_m) ** 2
    return q


@dataclass(frozen=True)
class LouvainResult:
    """Outcome of one Louvain run.

    Attributes:
        clustering: the detected communities as a validated partition.
        modularity: Q of the clustering on the input graph.
        num_levels: number of aggregation levels the run used.
        refined: whether multi-level refinement ran.
    """

    clustering: Clustering
    modularity: float
    num_levels: int
    refined: bool


def louvain(
    graph: GraphLike,
    rng: Optional[np.random.Generator] = None,
    refine: bool = True,
) -> LouvainResult:
    """Detect communities in ``graph`` with the Louvain method.

    Args:
        graph: the social graph to cluster.
        rng: random source controlling node visit order (defaults to a
            fresh seeded generator, so pass one for reproducibility).
        refine: run the Rotta–Noack multi-level refinement pass (the paper
            enables it).

    Returns:
        A :class:`LouvainResult`; for an edgeless graph every node becomes
        its own community.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return _best_of(graph, [rng], refine)


def _best_of(
    graph: GraphLike, rngs: Iterable[np.random.Generator], refine: bool
) -> LouvainResult:
    """One Louvain run per rng on a shared base graph; the best one wins.

    The base graph, its weighted degrees and its neighbor pair lists are
    built once, inside the ``community.louvain_base`` span, and dropped
    on return.  Each run compares by :func:`label_modularity` of its flat
    assignment — the arithmetic :func:`modularity` uses, so the winner's
    ``Q`` is the one :func:`modularity` reports for its clustering — and
    only the winner (the earliest run on a tie) becomes a
    :class:`Clustering`.
    """
    with span("community.louvain_base"):
        obs_incr("louvain.base_builds")
        base, users = _FlatGraph.from_graph(graph)
        # Fill both caches here so this span times the whole shared build.
        base.weighted_degrees()
        base.neighbor_pairs()
    best: Optional[Tuple[float, np.ndarray, int]] = None
    for rng in rngs:
        with span("community.louvain"):
            obs_incr("louvain.runs")
            flat, num_levels = _run_louvain(base, rng, refine)
            q = _flat_modularity(base, flat, graph.num_edges)
        if best is None or q > best[0]:
            best = (q, flat, num_levels)
    assert best is not None
    q, flat, num_levels = best
    assignment = dict(zip(users, flat.tolist()))
    return LouvainResult(
        clustering=Clustering.from_assignment(assignment),
        modularity=q,
        num_levels=num_levels,
        refined=refine and num_levels > 1,
    )


def _flat_modularity(base: _FlatGraph, flat: np.ndarray, num_edges: int) -> float:
    """:func:`modularity`'s ``Q`` of a run's ``0..k-1`` base-node labels."""
    if num_edges == 0:
        return 0.0
    return label_modularity(
        base.indptr,
        base.indices,
        base.weighted_degrees(),
        flat,
        int(flat.max()) + 1,
        num_edges,
    )


def _run_louvain(
    base: _FlatGraph, rng: np.random.Generator, refine: bool
) -> Tuple[np.ndarray, int]:
    """The level loop (Blondel et al. + Rotta–Noack).

    Returns the base-node community labels (``0..k-1``) and the number of
    aggregation levels; an edgeless graph leaves every node alone.
    """
    n = base.num_nodes
    if base.total_weight == 0.0:
        return np.arange(n, dtype=np.int64), 0

    graphs = [base]
    levels: List[np.ndarray] = []
    current = base
    prev_q = -1.0
    while True:
        node2com = np.arange(current.num_nodes, dtype=np.int64)
        _one_level_flat(current, node2com, rng)
        node2com, num_coms = _renumber_flat(node2com)
        flat = _flat_partition_flat(levels + [node2com], n)
        q = _partition_modularity_flat(base, flat)
        if q - prev_q <= _MIN_LEVEL_GAIN and levels:
            break
        prev_q = q
        levels.append(node2com)
        if num_coms == current.num_nodes:
            break
        current = _induced_flat(current, node2com, num_coms)
        graphs.append(current)

    if refine and len(levels) > 1:
        _refine_levels(graphs, levels, rng)

    obs_incr("louvain.levels", len(levels))
    return _flat_partition_flat(levels, n), len(levels)


def _refine_levels(
    graphs: List[_FlatGraph],
    levels: List[np.ndarray],
    rng: np.random.Generator,
) -> None:
    """Multi-level refinement: re-run local moving from coarse to fine.

    At each level below the coarsest, the nodes of that level's graph start
    from the community assignment implied by the levels above them; local
    moving then polishes the assignment, and the improvement propagates
    downward.  ``levels`` is rewritten in place.
    """
    for li in range(len(levels) - 2, -1, -1):
        # Assignment of level-li nodes implied by the coarser levels.
        node2com = levels[li].copy()
        for upper in levels[li + 1 :]:
            node2com = upper[node2com]
        _one_level_flat(graphs[li], node2com, rng)
        node2com, _num = _renumber_flat(node2com)
        # Collapse everything above level li into this single refined level.
        del levels[li + 1 :]
        levels[li] = node2com


def best_louvain_clustering(
    graph: GraphLike,
    runs: int = 10,
    seed: int = 0,
    refine: bool = True,
) -> LouvainResult:
    """The paper's clustering protocol: best of ``runs`` Louvain restarts.

    Each run uses an independent random node ordering; the run with the
    highest modularity wins (ties keep the earliest run, so results are
    deterministic in ``seed``).  The runs share one base graph.

    Raises:
        ValueError: if ``runs`` < 1.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    seeds = np.random.SeedSequence(seed).spawn(runs)
    return _best_of(graph, (np.random.default_rng(child) for child in seeds), refine)
