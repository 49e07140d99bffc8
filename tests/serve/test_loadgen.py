"""Unit tests for the deterministic load generator."""

from __future__ import annotations

import time

import pytest

from repro.serve import (
    LoadgenConfig,
    LoadGenerator,
    LoadReport,
    RequestRecord,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == 50
        assert percentile(values, 99.0) == 99
        assert percentile(values, 100.0) == 100
        assert percentile(values, 0.0) == 1

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_single_sample(self):
        assert percentile([7.5], 50.0) == 7.5
        assert percentile([7.5], 99.0) == 7.5

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestLoadgenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests": 0},
            {"mode": "bursty"},
            {"concurrency": 0},
            {"rate": 0.0},
            {"n": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadgenConfig(**kwargs)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        users = list(range(20))
        config = LoadgenConfig(requests=50, seed=3)
        first = LoadGenerator(users, config).schedule()
        second = LoadGenerator(users, config).schedule()
        assert first == second

    def test_different_seeds_differ(self):
        users = list(range(20))
        a = LoadGenerator(users, LoadgenConfig(requests=50, seed=1)).schedule()
        b = LoadGenerator(users, LoadgenConfig(requests=50, seed=2)).schedule()
        assert a != b

    def test_schedule_shape(self):
        users = ["u1", "u2", "u3"]
        schedule = LoadGenerator(
            users, LoadgenConfig(requests=10, rate=100.0, seed=0)
        ).schedule()
        assert len(schedule) == 10
        offsets = [offset for _, offset in schedule]
        assert all(u in users for u, _ in schedule)
        assert offsets == sorted(offsets)
        assert offsets[0] > 0.0

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            LoadGenerator([], LoadgenConfig())


def _record(latency_ms, status=200, tier="personalized", shed=False):
    return RequestRecord(
        user=1,
        latency_s=latency_ms / 1000.0,
        status=status,
        tier=tier,
        generation=0,
        shed=shed,
    )


class TestLoadReport:
    def test_aggregates(self):
        report = LoadReport(
            records=[_record(ms) for ms in (1.0, 2.0, 3.0, 4.0)],
            wall_seconds=2.0,
        )
        assert report.count == 4
        assert report.ok_count == 4
        assert report.error_count == 0
        assert report.qps == pytest.approx(2.0)
        assert report.p50_ms == pytest.approx(2.0)
        assert report.p99_ms == pytest.approx(4.0)

    def test_tier_counts_and_errors(self):
        report = LoadReport(
            records=[
                _record(1.0),
                _record(1.0, tier="empty", shed=True),
                _record(1.0, status=599, tier="client-error:OSError"),
            ],
            wall_seconds=1.0,
        )
        assert report.error_count == 1
        counts = report.tier_counts()
        assert counts["personalized"] == 1
        assert counts["empty"] == 1
        summary = report.summary()
        assert "1 error(s)" in summary
        assert "personalized=1" in summary


class TestOpenLoopLatency:
    def test_requests_due_during_a_stall_record_their_lateness(self, monkeypatch):
        stall_s = 0.3
        calls = []

        async def blocking_once(host, port, target):
            if not calls:
                time.sleep(stall_s)  # blocks the event loop, not just a task
            calls.append(target)
            return 200, {"tier": "personalized", "generation": 0}

        monkeypatch.setattr("repro.serve.loadgen.http_get_json", blocking_once)
        config = LoadgenConfig(requests=20, mode="open", rate=50.0, seed=4)
        generator = LoadGenerator(list(range(10)), config)
        report = generator.run("127.0.0.1", 1)
        offsets = [offset for _, offset in generator.schedule()]
        assert len(report.records) == len(offsets) == len(calls)

        stall_end = offsets[0] + stall_s
        late = [
            (record, stall_end - offset)
            for record, offset in zip(report.records, offsets)
            if offsets[0] < offset < stall_end
        ]
        assert late, "no request fell due during the stall"
        for record, lateness in late:
            assert record.latency_s >= lateness - 0.01
