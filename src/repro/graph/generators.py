"""Random graph generators used to synthesise evaluation datasets.

The paper evaluates on crawls of Last.fm and Flixster.  Those crawls are
not redistributable here, so the benchmark harness instead generates
synthetic social graphs whose relevant structure matches the crawls:

- pronounced community structure (the framework's clustering phase exploits
  it) — provided by :func:`planted_partition_graph`,
- heavy-tailed degree distributions — provided by
  :func:`barabasi_albert_graph` and the intra-community attachment used by
  the dataset builders,
- small-world shortcuts between communities — random inter-community edges.

All generators take an explicit :class:`numpy.random.Generator` so every
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graph.social_graph import SocialGraph

__all__ = [
    "erdos_renyi_graph",
    "watts_strogatz_graph",
    "barabasi_albert_graph",
    "planted_partition_graph",
    "community_attachment_graph",
]


def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def erdos_renyi_graph(n: int, p: float, rng: np.random.Generator) -> SocialGraph:
    """G(n, p): each of the n-choose-2 edges present independently w.p. ``p``.

    Uses the geometric skipping trick so the cost is proportional to the
    number of generated edges rather than to ``n**2`` when ``p`` is small.
    """
    _require_positive("n", n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    graph = SocialGraph()
    graph.add_users(range(n))
    if p == 0.0 or n < 2:
        return graph
    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph
    # Iterate candidate edge indices 0..C(n,2)-1 with geometric jumps.
    log_q = np.log1p(-p)
    total = n * (n - 1) // 2
    index = -1
    # For subnormal p the quotient can overflow to inf; any skip >= total
    # ends the loop, so clamping there changes nothing.
    with np.errstate(over="ignore"):
        while True:
            skip = int(
                min(np.floor(np.log(1.0 - rng.random()) / log_q), float(total))
            )
            index += skip + 1
            if index >= total:
                break
            # Invert the pairing (u, v), u < v, from the linear index.
            u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * index)) // 2)
            v = index - u * (2 * n - u - 1) // 2 + u + 1
            graph.add_edge(u, int(v))
    return graph


def watts_strogatz_graph(
    n: int, k: int, beta: float, rng: np.random.Generator
) -> SocialGraph:
    """Watts–Strogatz small world: ring lattice with rewiring probability beta.

    Args:
        n: number of nodes.
        k: each node connects to its ``k`` nearest ring neighbors
            (``k`` must be even and < n).
        beta: probability of rewiring each lattice edge to a random target.
        rng: random source.
    """
    _require_positive("n", n)
    if k % 2 != 0 or k >= n:
        raise ValueError(f"k must be even and < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    graph = SocialGraph()
    graph.add_users(range(n))
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(u, (u + offset) % n)
    if beta == 0.0:
        return graph
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() >= beta or not graph.has_edge(u, v):
                continue
            candidates = [w for w in range(n) if w != u and not graph.has_edge(u, w)]
            if not candidates:
                continue
            graph.remove_edge(u, v)
            graph.add_edge(u, candidates[rng.integers(len(candidates))])
    return graph


def barabasi_albert_graph(n: int, m: int, rng: np.random.Generator) -> SocialGraph:
    """Barabási–Albert preferential attachment: each new node adds m edges.

    Produces the heavy-tailed degree distribution characteristic of the
    social crawls in the paper's Table 1 (std of the degree greatly exceeds
    the mean).
    """
    _require_positive("n", n)
    _require_positive("m", m)
    if m >= n:
        raise ValueError(f"m must be < n, got m={m}, n={n}")
    graph = SocialGraph()
    graph.add_users(range(n))
    # Seed with a star over the first m+1 nodes so every node has degree >= 1.
    repeated: List[int] = []
    for v in range(1, m + 1):
        graph.add_edge(0, v)
        repeated.extend((0, v))
    for new in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in targets:
            graph.add_edge(new, t)
            repeated.extend((new, t))
    return graph


def heterogeneous_ba_graph(
    n: int, mean_m: float, rng: np.random.Generator
) -> SocialGraph:
    """Preferential attachment with geometric per-node edge counts.

    Classic Barabási–Albert floors every degree at ``m``, but real social
    crawls have many degree-1 users (the paper's Figure 3 analysis lives on
    them).  Here each arriving node draws its edge count from a geometric
    distribution with mean ``mean_m`` (so ~``1/mean_m`` of users attach a
    single edge), preserving the heavy tail of hub degrees.

    Args:
        n: number of nodes.
        mean_m: mean number of edges each new node attaches (>= 1).
        rng: random source.
    """
    _require_positive("n", n)
    if mean_m < 1.0:
        raise ValueError(f"mean_m must be >= 1, got {mean_m}")
    graph = SocialGraph()
    graph.add_users(range(n))
    if n == 1:
        return graph
    repeated: List[int] = [0, 1]
    graph.add_edge(0, 1)
    for new in range(2, n):
        m_node = min(int(rng.geometric(1.0 / mean_m)), new)
        targets: set = set()
        attempts = 0
        while len(targets) < m_node and attempts < 20 * m_node:
            targets.add(repeated[rng.integers(len(repeated))])
            attempts += 1
        for t in targets:
            graph.add_edge(new, t)
            repeated.extend((new, t))
    return graph


def planted_partition_graph(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
) -> SocialGraph:
    """Planted-partition model: dense blocks joined by sparse random edges.

    Args:
        sizes: community sizes; node ids are assigned contiguously so
            community ``c`` holds nodes ``sum(sizes[:c]) .. sum(sizes[:c+1])-1``.
        p_in: intra-community edge probability.
        p_out: inter-community edge probability.
        rng: random source.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError(
            f"expected 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    n = int(sum(sizes))
    boundaries = np.cumsum([0, *sizes])
    community = np.empty(n, dtype=np.int64)
    for c in range(len(sizes)):
        community[boundaries[c] : boundaries[c + 1]] = c

    graph = SocialGraph()
    graph.add_users(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if community[u] == community[v] else p_out
            if p > 0.0 and rng.random() < p:
                graph.add_edge(u, v)
    return graph


def community_attachment_graph(
    sizes: Sequence[int],
    m_in: int,
    inter_edges: int,
    rng: np.random.Generator,
) -> SocialGraph:
    """Communities with internal preferential attachment plus random bridges.

    Each community is an independent heterogeneous preferential-attachment
    graph (heavy-tailed internal degrees *including* degree-1 users, via
    :func:`heterogeneous_ba_graph`), and ``inter_edges`` random user pairs
    from different communities are connected.  This matches the qualitative
    structure of the Last.fm/Flixster social graphs better than the plain
    planted partition: strong communities, hub users, and a long low-degree
    tail.

    Args:
        sizes: community sizes (each must exceed ``m_in``).
        m_in: mean attachment count within each community (the average
            social degree comes out near ``2 * m_in``).
        inter_edges: number of random bridges between communities.
        rng: random source.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if inter_edges < 0:
        raise ValueError(f"inter_edges must be >= 0, got {inter_edges}")
    graph = SocialGraph()
    offset = 0
    blocks: List[range] = []
    for size in sizes:
        if size <= m_in:
            raise ValueError(
                f"every community size must exceed m_in={m_in}, got {size}"
            )
        block = heterogeneous_ba_graph(size, float(m_in), rng)
        for u, v in block.edges():
            graph.add_edge(u + offset, v + offset)
        blocks.append(range(offset, offset + size))
        offset += size
    graph.add_users(range(offset))

    if len(sizes) < 2:
        return graph
    added = 0
    attempts = 0
    max_attempts = 50 * max(inter_edges, 1)
    while added < inter_edges and attempts < max_attempts:
        attempts += 1
        c1, c2 = rng.choice(len(blocks), size=2, replace=False)
        u = int(rng.choice(blocks[c1]))
        v = int(rng.choice(blocks[c2]))
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return graph
