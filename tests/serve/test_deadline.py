"""Per-request deadlines: expired scoring degrades inline, never errors.

The contract: a request carrying ``?deadline_ms=`` (or hitting the
server-wide :attr:`ServerConfig.deadline_ms` default) waits at most that
long for the scoring pool.  On expiry the response is produced *inline*
from the next degradation rung — the client gets a fast, less
personalized answer instead of a timeout — while the abandoned scoring
thread runs to completion and only then returns its queue slot and
generation ref.  The ``slow`` fault kind at the ``serve.request`` site
makes expiry deterministic.
"""

from __future__ import annotations

import pytest

from repro.resilience.degradation import (
    TIER_CLUSTER,
    TIER_GLOBAL,
    TIER_PERSONALIZED,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import ServerConfig

from .conftest import wait_for

SLOW = 0.4  # seconds the faulted scoring call stalls


def slow_plan(delay: float = SLOW) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(site="serve.request", kind="slow", delay=delay, repeat=True)]
    )


class TestDeadlineExpiry:
    def test_expired_request_degrades_inline(
        self, registry, make_server, popular_user
    ):
        harness = make_server()
        with slow_plan().installed():
            status, payload = harness.get(
                f"/recommend?user={popular_user}&deadline_ms=50"
            )
        assert status == 200
        assert payload["deadline_expired"] is True
        # One rung below the personalized cap, answered without waiting
        # out the stalled scoring thread.
        assert payload["tier"] in (TIER_CLUSTER, TIER_GLOBAL)
        assert payload["degraded"] is True
        assert payload["shed"] is False
        counters = registry.snapshot().counters
        assert counters["serve.deadline.expired"] == 1
        assert "serve.deadline.met" not in counters

    def test_expired_request_counts_one_served_tier(
        self, registry, make_server, popular_user
    ):
        harness = make_server()
        with slow_plan().installed():
            _, payload = harness.get(
                f"/recommend?user={popular_user}&deadline_ms=50"
            )
            # Let the abandoned scoring thread finish its own answer.
            assert wait_for(
                lambda: harness.get("/stats")[1]["depth"] == 0, timeout_s=10.0
            )
        # Only the inline answer the client got is a served tier.
        served = {
            name: value
            for name, value in registry.snapshot().counters.items()
            if name.startswith("serve.tier.")
        }
        assert served == {f"serve.tier.{payload['tier']}": 1}

    def test_slot_and_ref_released_after_late_completion(
        self, make_server, popular_user
    ):
        harness = make_server()
        with slow_plan().installed():
            status, payload = harness.get(
                f"/recommend?user={popular_user}&deadline_ms=50"
            )
            assert status == 200
            assert payload["deadline_expired"] is True
            # The abandoned thread still holds its queue slot until the
            # stalled scoring call actually finishes.
            assert wait_for(
                lambda: harness.get("/stats")[1]["depth"] == 0, timeout_s=10.0
            )
        # Server stays fully usable afterwards.
        status, payload = harness.get(f"/recommend?user={popular_user}")
        assert status == 200
        assert payload["deadline_expired"] is False
        assert payload["tier"] == TIER_PERSONALIZED

    def test_server_default_deadline_applies(
        self, registry, make_server, popular_user
    ):
        harness = make_server(config=ServerConfig(deadline_ms=50))
        with slow_plan().installed():
            status, payload = harness.get(f"/recommend?user={popular_user}")
        assert status == 200
        assert payload["deadline_expired"] is True
        assert registry.snapshot().counters["serve.deadline.expired"] == 1

    def test_query_overrides_server_default(
        self, registry, make_server, popular_user
    ):
        # Generous server default; the request's own tighter deadline wins.
        harness = make_server(config=ServerConfig(deadline_ms=60_000))
        with slow_plan().installed():
            status, payload = harness.get(
                f"/recommend?user={popular_user}&deadline_ms=50"
            )
        assert status == 200
        assert payload["deadline_expired"] is True


class TestDeadlineMet:
    def test_fast_request_meets_deadline(
        self, registry, make_server, popular_user
    ):
        harness = make_server()
        status, payload = harness.get(
            f"/recommend?user={popular_user}&deadline_ms=60000"
        )
        assert status == 200
        assert payload["deadline_expired"] is False
        assert payload["tier"] == TIER_PERSONALIZED
        counters = registry.snapshot().counters
        assert counters["serve.deadline.met"] == 1
        assert "serve.deadline.expired" not in counters

    def test_no_deadline_reports_not_expired(self, make_server, popular_user):
        harness = make_server()
        status, payload = harness.get(f"/recommend?user={popular_user}")
        assert status == 200
        assert payload["deadline_expired"] is False


class TestValidation:
    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_query_deadline_is_400(self, make_server, popular_user, raw):
        harness = make_server()
        status, payload = harness.get(
            f"/recommend?user={popular_user}&deadline_ms={raw}"
        )
        assert status == 400
        assert "deadline_ms" in payload["error"]

    def test_bad_config_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            ServerConfig(deadline_ms=0)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_query_deadline_is_400(self, make_server, popular_user, raw):
        harness = make_server()
        status, payload = harness.get(
            f"/recommend?user={popular_user}&deadline_ms={raw}"
        )
        assert status == 400
        assert "finite" in payload["error"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_deadline_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ServerConfig(deadline_ms=value)
