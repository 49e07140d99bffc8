"""The generation-keyed response cache, unit level and through HTTP.

The soundness claim under test: because scoring a published release is
deterministic, a cached response is *bit-identical* to what fresh
scoring would produce for the same ``(generation, user, n, tier)`` key —
and a hot swap can never serve a stale generation's rows because the
generation id is part of every key.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ResponseCache, ServerConfig


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestResponseCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ResponseCache(0)

    def test_get_counts_hits_and_misses(self):
        cache = ResponseCache(4)
        key = (0, 7, 5, "personalized")
        assert cache.get(key) is None
        cache.put(key, ("personalized", False, [[1, 0.5]]))
        assert cache.get(key) == ("personalized", False, [[1, 0.5]])
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_lru_eviction_beyond_capacity(self):
        cache = ResponseCache(2)
        a, b, c = ((0, u, 5, "personalized") for u in (1, 2, 3))
        cache.put(a, ("personalized", False, []))
        cache.put(b, ("personalized", False, []))
        cache.get(a)  # refresh a: b is now least recently used
        cache.put(c, ("personalized", False, []))
        assert cache.get(b) is None  # evicted
        assert cache.get(a) is not None
        assert cache.get(c) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_refreshes_existing_key_without_eviction(self):
        cache = ResponseCache(1)
        key = (0, 1, 5, "personalized")
        cache.put(key, ("personalized", False, [[1, 0.5]]))
        cache.put(key, ("personalized", False, [[1, 0.75]]))
        assert cache.evictions == 0
        assert cache.get(key) == ("personalized", False, [[1, 0.75]])

    def test_evict_other_generations(self):
        cache = ResponseCache(8)
        for generation in (0, 0, 1):
            for user in (1, 2):
                cache.put(
                    (generation, user, 5, "personalized"),
                    ("personalized", False, []),
                )
        assert cache.evict_other_generations(1) == 2
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.get((0, 1, 5, "personalized")) is None
        assert cache.get((1, 1, 5, "personalized")) is not None

    def test_stats_snapshot(self):
        cache = ResponseCache(2)
        cache.get(("missing",))
        cache.note_bypass()
        cache.put(("k",), ("personalized", False, []))
        assert cache.stats() == {
            "size": 1,
            "capacity": 2,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
            "bypasses": 1,
        }


def cached_config(**kwargs):
    return ServerConfig(response_cache_size=kwargs.pop("size", 128), **kwargs)


class TestServerCaching:
    def test_hit_is_bit_identical_to_miss(self, make_server, popular_user):
        harness = make_server(config=cached_config())
        target = f"/recommend?user={popular_user}&n=5"
        _, cold = harness.get(target)  # miss: scores and fills
        _, warm = harness.get(target)  # hit: replayed from the cache
        assert canonical(cold) == canonical(warm)
        stats = harness.server.rescache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_cached_responses_count_their_tier(
        self, registry, make_server, popular_user
    ):
        # ``serve.tier.*`` counts served responses, replayed or scored,
        # once each, as ``/stats`` ``tier_counts`` does.
        harness = make_server(config=cached_config())
        target = f"/recommend?user={popular_user}&n=5"
        for _ in range(3):
            harness.get(target)
        _, stats = harness.get("/stats")
        assert stats["response_cache"]["hits"] == 2
        counters = registry.snapshot().counters
        prefix = "serve.tier."
        tiers = {
            name[len(prefix) :]: value
            for name, value in counters.items()
            if name.startswith(prefix)
        }
        assert sum(tiers.values()) == counters["serve.requests"] == 3
        assert tiers == stats["tier_counts"]

    def test_distinct_n_are_distinct_entries(self, make_server, popular_user):
        harness = make_server(config=cached_config())
        _, at_three = harness.get(f"/recommend?user={popular_user}&n=3")
        _, at_five = harness.get(f"/recommend?user={popular_user}&n=5")
        assert harness.server.rescache.stats()["misses"] == 2
        assert len(at_three["items"]) <= 3

    def test_fresh_bypasses_and_refreshes(self, make_server, popular_user):
        harness = make_server(config=cached_config())
        target = f"/recommend?user={popular_user}&n=5"
        _, fresh = harness.get(target + "&fresh=1")
        stats = harness.server.rescache.stats()
        assert stats["bypasses"] == 1
        assert stats["size"] == 1  # the fresh result still fills the entry
        _, warm = harness.get(target)
        assert harness.server.rescache.stats()["hits"] == 1
        assert canonical(fresh) == canonical(warm)

    def test_cache_disabled_by_default(self, make_server, popular_user):
        harness = make_server()
        assert harness.server.rescache is None
        _, stats = harness.get("/stats")
        assert "response_cache" not in stats

    def test_stats_reports_cache_and_uptime(self, make_server, popular_user):
        harness = make_server(config=cached_config(size=64))
        target = f"/recommend?user={popular_user}&n=5"
        harness.get(target)
        harness.get(target)
        harness.get(target + "&fresh=1")
        _, stats = harness.get("/stats")
        assert stats["uptime_s"] > 0
        assert "worker" not in stats  # unmanaged: no slot attribution
        assert stats["response_cache"] == {
            "size": 1,
            "capacity": 64,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "bypasses": 1,
        }

    def test_cached_equals_fresh_property(self, make_server, serve_users):
        """Hypothesis: replay == fresh scoring for any (user, n) key."""
        harness = make_server(config=cached_config(size=512))

        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(
            user_idx=st.integers(min_value=0, max_value=len(serve_users) - 1),
            n=st.integers(min_value=1, max_value=8),
        )
        def check(user_idx, n):
            user = serve_users[user_idx]
            target = f"/recommend?user={user}&n={n}"
            _, primed = harness.get(target)  # fill (or hit) the entry
            _, fresh = harness.get(target + "&fresh=1")  # always scores
            _, cached = harness.get(target)  # always a hit now
            assert canonical(primed) == canonical(fresh) == canonical(cached)

        check()
        stats = harness.server.rescache.stats()
        assert stats["hits"] >= 30  # the third request of every example

    def test_swap_never_serves_stale_rows(
        self, make_server, serve_users, serve_release_path_v2
    ):
        """Post-swap responses match fresh scoring on the new generation."""
        harness = make_server(config=cached_config())
        targets = [f"/recommend?user={user}&n=5" for user in serve_users[:8]]
        for target in targets:
            harness.get(target)  # warm generation-0 entries
        assert len(harness.server.rescache) == len(targets)

        status, _ = harness.post(f"/admin/swap?path={serve_release_path_v2}")
        assert status == 200
        # The swap evicted every generation-0 entry eagerly.
        assert len(harness.server.rescache) == 0
        assert harness.server.rescache.stats()["evictions"] == len(targets)

        for target in targets:
            _, replayed = harness.get(target)
            assert replayed["generation"] == 1
            _, fresh = harness.get(target + "&fresh=1")
            assert canonical(replayed) == canonical(fresh)
