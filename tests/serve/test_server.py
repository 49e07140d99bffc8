"""End-to-end tests of the HTTP serving front end.

Each test talks to a real :class:`~repro.serve.RecommendationServer`
bound to an ephemeral port on a background event loop, through the same
minimal HTTP client the load generator uses.
"""

from __future__ import annotations

import logging
import math
import socket
import time

import pytest

from repro.resilience.degradation import TIER_GLOBAL, TIER_PERSONALIZED
from repro.serve import LoadgenConfig, LoadGenerator, ServerConfig
from repro.serve import server as server_module

from .conftest import wait_for


class TestRecommend:
    def test_personalized_response_shape(self, make_server, popular_user):
        harness = make_server()
        status, payload = harness.get(f"/recommend?user={popular_user}&n=5")
        assert status == 200
        assert payload["tier"] == TIER_PERSONALIZED
        assert payload["degraded"] is False
        assert payload["shed"] is False
        assert payload["generation"] == 0
        assert 1 <= len(payload["items"]) <= 5
        for item, utility in payload["items"]:
            assert isinstance(utility, float)

    def test_items_body_is_in_process_scoring(self, make_server, popular_user):
        # The body lists [item, utility] pairs exactly as the engine's own
        # list holds them, for a personalized and a degraded answer.
        harness = make_server()
        engine = harness.server.swapper.current
        for user, tier in ((popular_user, TIER_PERSONALIZED), (99999999, TIER_GLOBAL)):
            status, payload = harness.get(f"/recommend?user={user}&n=5")
            expected = engine.recommend(user, 5)
            assert status == 200
            assert payload["tier"] == expected.tier == tier
            assert payload["items"] == [
                [item, utility]
                for item, utility in zip(expected.item_ids(), expected.utilities())
            ]
            assert len(payload["items"]) == 5

    def test_unknown_user_served_from_global_tier(self, make_server):
        harness = make_server()
        status, payload = harness.get("/recommend?user=99999999")
        assert status == 200
        assert payload["tier"] == TIER_GLOBAL
        assert payload["degraded"] is True

    def test_n_parameter_bounds_list_length(self, make_server, popular_user):
        harness = make_server()
        _, at_three = harness.get(f"/recommend?user={popular_user}&n=3")
        assert len(at_three["items"]) <= 3

    def test_missing_user_is_400(self, make_server):
        harness = make_server()
        status, payload = harness.get("/recommend")
        assert status == 400
        assert "user" in payload["error"]

    @pytest.mark.parametrize("bad_n", ["zero", "0", "-1"])
    def test_bad_n_is_400(self, make_server, popular_user, bad_n):
        harness = make_server()
        status, _ = harness.get(f"/recommend?user={popular_user}&n={bad_n}")
        assert status == 400

    def test_unknown_route_is_404(self, make_server):
        harness = make_server()
        status, _ = harness.get("/nope")
        assert status == 404

    def test_wrong_method_is_405(self, make_server, popular_user):
        harness = make_server()
        status, _ = harness.post(f"/recommend?user={popular_user}")
        assert status == 405


class TestIntrospection:
    def test_health_reports_release(self, make_server):
        harness = make_server()
        status, payload = harness.get("/health")
        assert status == 200
        assert payload["status"] == "ok"
        release = payload["release"]
        assert release["generation"] == 0
        assert release["num_items"] > 0
        assert release["epsilon"] == pytest.approx(0.5)

    def test_stats_count_requests_and_tiers(self, make_server, popular_user):
        harness = make_server()
        for _ in range(3):
            harness.get(f"/recommend?user={popular_user}")
        status, payload = harness.get("/stats")
        assert status == 200
        assert payload["requests_served"] == 3
        assert payload["tier_counts"][TIER_PERSONALIZED] == 3
        assert payload["errors"] == 0

    def test_counters_flow_through_registry(
        self, registry, make_server, popular_user
    ):
        harness = make_server()
        for _ in range(2):
            harness.get(f"/recommend?user={popular_user}")
        counters = registry.snapshot().counters
        assert counters["serve.requests"] == 2
        assert counters[f"serve.tier.{TIER_PERSONALIZED}"] == 2
        assert counters[f"serve.admission.{TIER_PERSONALIZED}"] == 2
        assert counters["fault.site.serve.request"] == 2


class TestLifecycle:
    def test_admin_shutdown_stops_the_loop(self, make_server):
        harness = make_server()
        status, payload = harness.post("/admin/shutdown")
        assert status == 200
        assert payload["status"] == "shutting-down"
        assert wait_for(lambda: not harness.running, timeout_s=30.0)

    def test_max_requests_shuts_down_cleanly(self, make_server, popular_user):
        harness = make_server(config=ServerConfig(max_requests=2))
        for _ in range(2):
            status, _ = harness.get(f"/recommend?user={popular_user}")
            assert status == 200
        assert wait_for(lambda: not harness.running, timeout_s=30.0)


class TestHalfOpenRequests:
    """A client that never finishes its request head cannot hold a
    handler: the head read has a deadline, and shutdown is quiet."""

    HALF_OPEN = b"GET /recommend?user=1"  # no newline, never finished

    def test_half_open_connection_closed_within_deadline(
        self, make_server, registry, monkeypatch
    ):
        monkeypatch.setattr(server_module, "REQUEST_HEAD_TIMEOUT_S", 0.2, raising=False)
        harness = make_server()
        with socket.create_connection(("127.0.0.1", harness.port)) as sock:
            sock.settimeout(5.0)
            sock.sendall(self.HALF_OPEN)
            started = time.monotonic()
            assert sock.recv(1024) == b""  # closed, no response
            assert time.monotonic() - started < 5.0
        assert wait_for(lambda: registry.counter("serve.head_timeouts") == 1)
        # The server keeps answering whole requests.
        assert harness.get("/health")[0] == 200

    def test_shutdown_with_half_open_connections_is_quiet(self, make_server, caplog):
        harness = make_server()
        socks = [
            socket.create_connection(("127.0.0.1", harness.port))
            for _ in range(3)
        ]
        try:
            for sock in socks:
                sock.sendall(self.HALF_OPEN)
            # Connections are accepted in order: once a later one is
            # answered, every half-open handler is waiting on its head.
            assert harness.get("/health")[0] == 200
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                assert harness.stop()
        finally:
            for sock in socks:
                sock.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestConfigValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_drain_timeout_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="drain_timeout_s"):
            ServerConfig(drain_timeout_s=value)


class TestLoadgenAgainstServer:
    def test_closed_loop_run_is_clean(self, make_server, serve_users):
        harness = make_server()
        generator = LoadGenerator(
            serve_users, LoadgenConfig(requests=20, concurrency=4, seed=5)
        )
        report = generator.run("127.0.0.1", harness.port)
        assert report.count == 20
        assert report.error_count == 0
        assert report.qps > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert sum(report.tier_counts().values()) == 20
