"""Fuzzed edge-list lines: a typed error with its location, or a valid graph.

Social and preference files are built from mutated lines — arbitrary
bytes, any column count, and numbers such as ``nan``, ``inf``, ``-0``
and ``1e309``.  Every input must either raise :class:`DatasetError`
carrying the file's path and a 1-based line, or load a graph whose
preference weights are finite and positive.  Any other exception is a
reader bug.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DatasetError
from repro.graph.io import read_preference_graph, read_social_graph
from repro.graph.preference_graph import PreferenceGraph

_NUMBERS = [
    b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"-0", b"0", b"-0.0",
    b"1e309", b"-1e309", b"1e-320", b"2.5", b"-1", b"1_0", b"0x1",
]

_FIELD = st.one_of(
    st.integers(-3, 40).map(lambda i: str(i).encode()),
    st.sampled_from(_NUMBERS + [b"#", b"userID", b"\xef\xbb\xbf1"]),
    st.binary(max_size=3),
)

_LINE = st.builds(
    lambda fields, sep: sep.join(fields),
    st.lists(_FIELD, max_size=4),
    st.sampled_from([b"\t", b" ", b"\t\t"]),
)


@st.composite
def edge_files(draw):
    """File bytes: edge-list lines, then a few single-byte mutations."""
    data = draw(st.sampled_from([b"\n", b"\r\n", b"\r"])).join(
        draw(st.lists(_LINE, max_size=10))
    )
    for _ in range(draw(st.integers(0, 3))):
        if not data:
            break
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at + 1 :]
    return data


@pytest.fixture(scope="module")
def edge_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "edges.dat")


@pytest.mark.parametrize(
    "reader", [read_social_graph, read_preference_graph], ids=["social", "pref"]
)
@given(data=edge_files(), skip_header=st.booleans())
@settings(max_examples=200, deadline=None)
def test_error_with_location_or_a_valid_graph(edge_path, reader, data, skip_header):
    with open(edge_path, "wb") as handle:
        handle.write(data)
    try:
        graph = reader(edge_path, skip_header=skip_header)
    except DatasetError as exc:
        assert exc.path == edge_path
        assert isinstance(exc.line, int) and exc.line >= 1
        return
    if isinstance(graph, PreferenceGraph):
        for _user, _item, weight in graph.edges():
            assert 0 < weight < math.inf
    else:
        assert all(u != v for u, v in graph.edges())
