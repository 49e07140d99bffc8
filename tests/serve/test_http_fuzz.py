"""Fuzzed HTTP requests: every answer is a 2xx or 4xx JSON body.

Raw request heads — method, target (``/recommend``, ``/health``,
``/stats`` or a random path), query strings over the parameters the
server reads and junk ones, and header blocks — go to one
:class:`RecommendationServer` over a socket.  Every head is complete,
so the server always answers; ``POST /admin/*`` is never sent, since it
swaps or stops the server.  A 5xx, a ``serve.errors`` increment, a
logged traceback or an answer slower than 5 s is a server bug.
"""

import json
import logging
import socket
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry, telemetry
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    HotSwapper,
    RecommendationServer,
    ServerConfig,
    ServingEngine,
)

from .conftest import ServerHarness

ANSWER_TIMEOUT_S = 5.0

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_junk_number = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e309", "0", "-0", " 5", "0x10"]),
)
_users = st.one_of(st.integers(-5, 120).map(str), _text)
_params = st.lists(
    st.one_of(
        st.tuples(st.just("n"), st.integers(1, 60).map(str) | _junk_number),
        st.tuples(
            st.just("deadline_ms"),
            st.floats(0.5, 60_000).map(repr) | _junk_number,
        ),
        st.tuples(st.just("fresh"), st.sampled_from(["", "0", "1", "yes"])),
        st.tuples(_text, _text),
    ),
    max_size=4,
)
_headers = st.lists(
    st.tuples(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=16,
        ).filter(lambda name: ":" not in name),
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            max_size=40,
        ),
    ),
    max_size=8,
)


@st.composite
def request_heads(draw) -> bytes:
    # Each one_of branch is equally likely, so most requests are a GET
    # and a third of the targets /recommend, which does the most parsing.
    method = draw(
        st.just("GET")
        | st.sampled_from(["HEAD", "POST", "PUT", "DELETE", "get", "BREW"])
    )
    path = draw(
        st.just("/recommend")
        | st.sampled_from(["/health", "/stats"])
        | st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            max_size=20,
        ).map(lambda tail: "/" + tail)
    )
    if method == "POST" and path.split("?")[0].split("#")[0].startswith("/admin"):
        path = "/recommend"
    params = draw(_params)
    user = draw(st.none() | _users)
    if user is not None:
        params.insert(draw(st.integers(0, len(params))), ("user", user))
    query = "&".join(f"{quote(key)}={quote(value)}" for key, value in params)
    target = f"{path}?{query}" if query else path
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9", ""]))
    head = f"{method} {target} {version}".rstrip() + "\r\n"
    for name, value in draw(_headers):
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1")


def _exchange(port: int, head: bytes):
    """Send one request head; return the answer's status and JSON body."""
    with socket.create_connection(
        ("127.0.0.1", port), timeout=ANSWER_TIMEOUT_S
    ) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    status_line, _, rest = response.partition(b"\r\n")
    _, _, body = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(body)


class _Tracebacks(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info or "Traceback" in record.getMessage():
            self.records.append(record)


@pytest.fixture(scope="module")
def fuzz_server(serve_dataset, serve_release):
    """One server with a response cache, shared by every example."""
    engine = ServingEngine(serve_release, serve_dataset.social, generation=0)
    server = RecommendationServer(
        HotSwapper(engine),
        AdmissionController(AdmissionPolicy()),
        serve_dataset.social,
        ServerConfig(response_cache_size=64),
    )
    harness = ServerHarness(server)
    harness.start()
    yield harness
    assert harness.stop(), "server thread failed to shut down"


def test_every_request_gets_a_json_2xx_or_4xx(fuzz_server):
    registry = Telemetry()
    tracebacks = _Tracebacks()
    root = logging.getLogger()
    root.addHandler(tracebacks)

    @given(head=request_heads())
    @settings(max_examples=300, deadline=None)
    def exchange(head):
        status, body = _exchange(fuzz_server.port, head)
        assert 200 <= status < 300 or 400 <= status < 500, (status, body)
        assert isinstance(body, dict)
        assert fuzz_server.server.errors == 0, body
        assert not tracebacks.records, tracebacks.records[0].getMessage()

    try:
        with telemetry(registry):
            exchange()
    finally:
        root.removeHandler(tracebacks)
    counters = registry.snapshot().counters
    assert "serve.errors" not in counters
    assert counters.get("serve.requests", 0) > 0
