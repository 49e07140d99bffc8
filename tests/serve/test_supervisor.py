"""The prefork supervisor: shared-port serving, swap fan-out, respawn.

The contract under test is that multi-process serving is *invisible* to
clients except for throughput: responses are bit-identical to a
single-process server over the same release, ``/admin/swap`` moves the
whole fleet or reports exactly which worker it had to replace, a
SIGKILL'd worker is respawned on the fleet's current generation, and
``/stats`` stays attributable (uptime, generation, worker count,
per-worker restart totals) after merging per-worker telemetry.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import ServerConfig, SupervisorConfig

from .conftest import wait_for

def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def fleet_converged(fleet, generation):
    """Every worker slot alive, ready, and serving ``generation``."""
    _, stats = fleet.get("/stats", control=True)
    workers = stats["workers"]
    return workers["alive"] == workers["count"] and all(
        row.get("generation") == generation
        for row in workers["per_worker"]
    )


def test_fleet_serves_on_one_shared_port(make_supervisor, serve_users):
    fleet = make_supervisor(workers=2)
    for user in serve_users[:6]:
        status, payload = fleet.get(f"/recommend?user={user}&n=5")
        assert status == 200
        assert payload["generation"] == 0
        assert payload["tier"] == "personalized"
    status, health = fleet.get("/health")
    assert status == 200 and health["status"] == "ok"


def test_supervisor_health_reports_fleet(make_supervisor):
    fleet = make_supervisor(workers=2)
    status, health = fleet.get("/health", control=True)
    assert status == 200
    assert health["role"] == "supervisor"
    assert health["port"] == fleet.port
    assert health["generation"] == 0
    assert health["workers"] == {"count": 2, "alive": 2}
    assert health["socket_mode"] in ("reuseport", "inherit")


def test_stats_merge_is_attributable(make_supervisor, serve_users):
    fleet = make_supervisor(workers=2)
    for user in serve_users[:8]:
        assert fleet.get(f"/recommend?user={user}&n=5")[0] == 200
    status, stats = fleet.get("/stats", control=True)
    assert status == 200
    assert stats["role"] == "supervisor"
    assert stats["uptime_s"] > 0
    assert stats["generation"] == 0
    assert stats["requests_served"] == 8
    assert stats["errors"] == 0
    workers = stats["workers"]
    assert workers["count"] == 2 and workers["alive"] == 2
    assert workers["restarts_total"] == 0
    slots = {row["slot"] for row in workers["per_worker"]}
    assert slots == {0, 1}
    for row in workers["per_worker"]:
        assert row["alive"] and row["restarts"] == 0
        assert row["generation"] == 0
        assert row["uptime_s"] > 0
        assert isinstance(row["pid"], int)
    # The per-worker split accounts for every request exactly once.
    assert (
        sum(row["requests_served"] for row in workers["per_worker"]) == 8
    )
    # Merged telemetry: workers install their own registries, so the
    # fleet counters exist even with none installed in this process.
    assert stats["counters"]["serve.requests"] == 8
    assert stats["tier_counts"] == {"personalized": 8}


def test_stats_not_double_counted_under_profile(
    make_supervisor, serve_users
):
    """A parent registry (``--profile``) adds its own counters exactly
    once — each request must still appear once, not twice."""
    with obs.telemetry():
        fleet = make_supervisor(
            workers=2, server_config=ServerConfig(response_cache_size=64)
        )
        for user in serve_users[:6]:
            assert fleet.get(f"/recommend?user={user}&n=5")[0] == 200
        _, stats = fleet.get("/stats", control=True)
    counters = stats["counters"]
    assert counters["serve.requests"] == 6
    # The supervisor's own spawn accounting rides along untouched.
    assert counters["serve.worker.spawn"] == 2
    assert counters["fault.site.serve.worker"] == 2
    assert counters["serve.rescache.miss"] == stats["response_cache"][
        "misses"
    ]


def test_responses_bit_identical_to_single_process(
    make_supervisor, make_server, serve_release_path, serve_users
):
    """workers=N is a pure throughput change: bodies match workers=1."""
    fleet = make_supervisor(workers=2)
    single = make_server(path=None)
    for user in serve_users[:5]:
        target = f"/recommend?user={user}&n=7"
        _, reference = single.get(target)
        # Hit the shared port repeatedly so both workers answer at least
        # once with overwhelming probability.
        for _ in range(6):
            status, payload = fleet.get(target)
            assert status == 200
            assert canonical(payload) == canonical(reference)


def test_swap_fans_out_to_every_worker(
    make_supervisor, serve_users, serve_release_path_v2
):
    fleet = make_supervisor(workers=2)
    user = serve_users[0]
    assert fleet.get(f"/recommend?user={user}")[1]["generation"] == 0
    status, result = fleet.post(
        f"/admin/swap?path={serve_release_path_v2}", control=True
    )
    assert status == 200
    assert result["old_generation"] == 0
    assert result["new_generation"] == 1
    assert result["workers_swapped"] == 2
    assert result["workers_replaced"] == 0
    assert {row["slot"] for row in result["per_worker"]} == {0, 1}
    for row in result["per_worker"]:
        assert row["new_generation"] == 1 and row["drained"]
    for _ in range(6):
        status, payload = fleet.get(f"/recommend?user={user}")
        assert status == 200 and payload["generation"] == 1


def test_swap_refused_on_shared_data_port(
    make_supervisor, serve_release_path_v2
):
    fleet = make_supervisor(workers=2)
    status, payload = fleet.post(f"/admin/swap?path={serve_release_path_v2}")
    assert status == 409
    assert "supervisor" in payload["error"]
    # Fleet unchanged.
    assert fleet.get("/health", control=True)[1]["generation"] == 0


def test_corrupt_swap_leaves_fleet_untouched(
    make_supervisor, serve_users, tmp_path
):
    fleet = make_supervisor(workers=2)
    bogus = tmp_path / "corrupt.npz"
    bogus.write_bytes(b"not a release artifact")
    status, payload = fleet.post(
        f"/admin/swap?path={bogus}", control=True
    )
    assert status == 409
    assert "error" in payload
    assert payload["generation"] == 0
    status, stats = fleet.get("/stats", control=True)
    assert stats["generation"] == 0
    assert stats["workers"]["alive"] == 2
    assert stats["workers"]["restarts_total"] == 0
    assert fleet.get(f"/recommend?user={serve_users[0]}")[0] == 200


def test_sigkilled_worker_is_respawned(make_supervisor, serve_users):
    fleet = make_supervisor(workers=2)
    _, stats = fleet.get("/stats", control=True)
    victim = stats["workers"]["per_worker"][0]["pid"]
    os.kill(victim, signal.SIGKILL)
    assert wait_for(lambda: fleet_converged(fleet, 0), timeout_s=30.0)
    _, stats = fleet.get("/stats", control=True)
    assert stats["workers"]["alive"] == 2
    assert stats["workers"]["restarts_total"] == 1
    pids = {row["pid"] for row in stats["workers"]["per_worker"]}
    assert victim not in pids
    # The respawned worker serves the fleet generation.
    for row in stats["workers"]["per_worker"]:
        assert row["generation"] == 0
    assert fleet.get(f"/recommend?user={serve_users[0]}")[0] == 200


def test_shutdown_on_data_port_drains_whole_fleet(make_supervisor):
    fleet = make_supervisor(workers=2)
    status, payload = fleet.post("/admin/shutdown")
    assert status == 200
    assert payload["scope"] == "supervisor"
    assert fleet.stop(timeout_s=60.0)
    for handle in fleet.supervisor._workers:
        assert not handle.alive


def test_inherit_socket_mode_shares_one_listener(
    make_supervisor, serve_users
):
    fleet = make_supervisor(
        config=SupervisorConfig(
            workers=2, socket_mode="inherit", monitor_interval_s=0.05
        )
    )
    assert (
        fleet.get("/health", control=True)[1]["socket_mode"] == "inherit"
    )
    seen = set()
    for user in serve_users[:10]:
        status, payload = fleet.get(f"/recommend?user={user}&n=3")
        assert status == 200
        seen.add(payload["generation"])
    assert seen == {0}


@pytest.mark.faults
def test_kill_mid_swap_respawns_on_new_generation(
    make_supervisor, serve_users, serve_release_path_v2
):
    """SIGKILL one worker mid-swap: survivors never drop a request and
    the casualty comes back on the *new* generation."""
    stall = FaultPlan(
        [FaultSpec(site="serve.swap", kind="slow", delay=300.0, on_call=1)]
    )
    fleet = make_supervisor(workers=2, worker_faults={0: stall})
    _, stats = fleet.get("/stats", control=True)
    victim = next(
        row["pid"]
        for row in stats["workers"]["per_worker"]
        if row["slot"] == 0
    )

    swap_result = {}

    def do_swap():
        swap_result["response"] = fleet.post(
            f"/admin/swap?path={serve_release_path_v2}", control=True
        )

    swapper = threading.Thread(target=do_swap)
    swapper.start()
    time.sleep(0.5)  # let the fan-out reach (and stall inside) slot 0

    def get_retrying(target):
        # SIGKILL delivery is asynchronous: a connection opened in the
        # same instant can still land on the dying worker's listener and
        # get reset before the kernel removes it from the reuseport
        # group.  That reset never reaches a survivor — clients retry it,
        # so it is not a dropped request.
        try:
            return fleet.get(target)
        except OSError:
            return fleet.get(target)

    # Survivor keeps serving while slot 0 is wedged mid-swap.
    before_kill = [
        fleet.get(f"/recommend?user={user}&n=5")
        for user in serve_users[:5]
    ]
    os.kill(victim, signal.SIGKILL)
    after_kill = [
        get_retrying(f"/recommend?user={user}&n=5")
        for user in serve_users[:5]
    ]
    for status, payload in before_kill + after_kill:
        assert status == 200  # zero dropped requests on survivors

    swapper.join(timeout=60.0)
    assert not swapper.is_alive()
    status, result = swap_result["response"]
    assert status == 409
    assert result["new_generation"] == 1
    assert result["workers_swapped"] == 1
    assert result["workers_replaced"] == 1
    assert result["failures"][0]["slot"] == 0

    # The replacement landed on the committed (new) generation.
    assert wait_for(lambda: fleet_converged(fleet, 1), timeout_s=30.0)
    _, stats = fleet.get("/stats", control=True)
    assert stats["generation"] == 1
    assert stats["workers"]["restarts_total"] == 1
    assert victim not in {
        row["pid"] for row in stats["workers"]["per_worker"]
    }
    for _ in range(6):
        status, payload = fleet.get(f"/recommend?user={serve_users[0]}")
        assert status == 200 and payload["generation"] == 1


@pytest.mark.faults
def test_respawn_backs_off_through_spawn_faults(
    make_supervisor, serve_users
):
    """A failing respawn (serve.worker fault) retries with backoff."""
    # Calls 1-2 are the initial fleet spawn; call 3 is the respawn after
    # the kill, which fails once before call 4 succeeds.
    plan = FaultPlan(
        [FaultSpec(site="serve.worker", kind="raise", on_call=3)]
    )
    with plan.installed():
        fleet = make_supervisor(workers=2)
        _, stats = fleet.get("/stats", control=True)
        victim = stats["workers"]["per_worker"][1]["pid"]
        os.kill(victim, signal.SIGKILL)
        assert wait_for(lambda: fleet_converged(fleet, 0), timeout_s=30.0)
    assert plan.calls_to("serve.worker") == 4
    _, stats = fleet.get("/stats", control=True)
    assert stats["workers"]["restarts_total"] == 1
    assert fleet.get(f"/recommend?user={serve_users[0]}")[0] == 200


TIMEOUT_FIELDS = (
    "ready_timeout_s",
    "swap_timeout_s",
    "respawn_backoff_s",
    "respawn_backoff_max_s",
    "monitor_interval_s",
)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", TIMEOUT_FIELDS)
def test_non_finite_timeouts_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        SupervisorConfig(**{name: value})
