"""Streamed generators are *bit-exact* replicas of the in-memory ones.

The out-of-core substrate only works if a streamed generator consuming a
seeded rng produces exactly the edge set the in-memory generator would
have produced from the same seed — not statistically similar, identical.
These properties drive the generator pairs across arbitrary
``(n, m, p, seed)`` draws and compare edge sets and user orders exactly;
any divergence in rng consumption order shows up as a failing example.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    planted_partition_graph,
)
from repro.graph.streaming import (
    stream_barabasi_albert_edges,
    stream_erdos_renyi_edges,
    stream_planted_partition_edges,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
probabilities = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64),
)


def streamed_edge_set(blocks):
    """Canonical ``{(min, max), ...}`` edge set from streamed blocks."""
    edges = set()
    for src, dst in blocks:
        assert src.dtype == np.int64 and dst.dtype == np.int64
        assert src.shape == dst.shape
        for u, v in zip(src.tolist(), dst.tolist()):
            assert u != v
            edge = (u, v) if u < v else (v, u)
            assert edge not in edges, "streamed generator emitted a duplicate"
            edges.add(edge)
    return edges


def graph_edge_set(graph):
    return {(u, v) if u < v else (v, u) for u, v in graph.edges()}


class TestErdosRenyiStreaming:
    @given(
        n=st.integers(min_value=1, max_value=60),
        p=probabilities,
        seed=seeds,
        chunk=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=80, deadline=None)
    def test_edge_set_bit_exact(self, n, p, seed, chunk):
        dense = erdos_renyi_graph(n, p, np.random.default_rng(seed))
        streamed = streamed_edge_set(
            stream_erdos_renyi_edges(
                n, p, np.random.default_rng(seed), chunk_edges=chunk
            )
        )
        assert streamed == graph_edge_set(dense)
        assert list(dense.stable_user_order()) == list(range(n))

    @pytest.mark.parametrize("p", [5e-324, 1e-310])
    def test_subnormal_p_warns_nothing(self, p):
        # log(1 - u) / log(1 - p) overflows to inf here, which both
        # generators clamp to the end of the stream; no warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense = erdos_renyi_graph(50, p, np.random.default_rng(7))
            streamed = streamed_edge_set(
                stream_erdos_renyi_edges(50, p, np.random.default_rng(7))
            )
        assert streamed == graph_edge_set(dense)


class TestBarabasiAlbertStreaming:
    @given(
        data=st.data(),
        seed=seeds,
        chunk=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_set_bit_exact(self, data, seed, chunk):
        n = data.draw(st.integers(min_value=2, max_value=40), label="n")
        m = data.draw(st.integers(min_value=1, max_value=n - 1), label="m")
        dense = barabasi_albert_graph(n, m, np.random.default_rng(seed))
        streamed = streamed_edge_set(
            stream_barabasi_albert_edges(
                n, m, np.random.default_rng(seed), chunk_edges=chunk
            )
        )
        assert streamed == graph_edge_set(dense)
        assert list(dense.stable_user_order()) == list(range(n))


class TestPlantedPartitionStreaming:
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=15), min_size=1, max_size=5
        ),
        p_in=probabilities,
        out_fraction=probabilities,
        seed=seeds,
        chunk=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_set_bit_exact(self, sizes, p_in, out_fraction, seed, chunk):
        # The model requires p_out <= p_in.
        p_out = p_in * out_fraction
        dense = planted_partition_graph(
            sizes, p_in, p_out, np.random.default_rng(seed)
        )
        streamed = streamed_edge_set(
            stream_planted_partition_edges(
                sizes,
                p_in,
                p_out,
                np.random.default_rng(seed),
                chunk_edges=chunk,
            )
        )
        assert streamed == graph_edge_set(dense)
        assert list(dense.stable_user_order()) == list(range(sum(sizes)))
