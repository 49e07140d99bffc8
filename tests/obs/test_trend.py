"""Tests for repro.obs.trend and the ``repro obs trend`` CLI."""

import json
import math

import pytest

from repro.cli import main
from repro.obs import compare_summaries, format_trend, load_summary


def write_summary(path, means=None, counters=None, key="fullname"):
    payload = {}
    if means is not None:
        payload["benchmarks"] = [
            {key: name, "stats": {"mean": mean}} for name, mean in means.items()
        ]
    if counters is not None:
        payload["counters"] = counters
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLoadSummary:
    def test_pytest_benchmark_shape(self, tmp_path):
        path = write_summary(tmp_path / "bench.json", {"a": 1.0, "b": 2.0})
        means, counters = load_summary(path)
        assert means == {"a": 1.0, "b": 2.0}
        assert counters == {}

    def test_obs_summary_shape_with_name_key(self, tmp_path):
        path = write_summary(
            tmp_path / "obs.json",
            {"span.x": 0.5},
            counters={"cache.hits": 7},
            key="name",
        )
        means, counters = load_summary(path)
        assert means == {"span.x": 0.5}
        assert counters == {"cache.hits": 7}

    def test_malformed_entries_skipped(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {"fullname": "ok", "stats": {"mean": 1.0}},
                        {"fullname": "no-stats"},
                        {"stats": {"mean": 2.0}},  # nameless
                        {"fullname": "bad", "stats": {"mean": "slow"}},
                    ]
                }
            ),
            encoding="utf-8",
        )
        means, _ = load_summary(str(path))
        assert means == {"ok": 1.0}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="no benchmarks or counters"):
            load_summary(str(path))


class TestCompareSummaries:
    def test_uniform_slowdown_is_absorbed(self, tmp_path):
        """A machine running everything 2x slower shows no drift."""
        baseline = write_summary(
            tmp_path / "base.json", {"a": 1.0, "b": 2.0, "c": 3.0}
        )
        current = write_summary(
            tmp_path / "cur.json", {"a": 2.0, "b": 4.0, "c": 6.0}
        )
        report = compare_summaries(current, baseline)
        assert report.median_ratio == pytest.approx(2.0)
        assert report.regressions == []
        for normalized, raw in report.shared.values():
            assert normalized == pytest.approx(1.0)
            assert raw == pytest.approx(2.0)

    def test_single_benchmark_drift_flagged(self, tmp_path):
        baseline = write_summary(
            tmp_path / "base.json", {"a": 1.0, "b": 1.0, "c": 1.0}
        )
        current = write_summary(
            tmp_path / "cur.json", {"a": 1.0, "b": 1.0, "c": 2.0}
        )
        report = compare_summaries(current, baseline, threshold=0.25)
        assert report.regressions == ["c"]
        normalized, raw = report.shared["c"]
        assert raw == pytest.approx(2.0)
        assert normalized == pytest.approx(2.0)  # median ratio is 1.0

    def test_disjoint_benchmarks_reported(self, tmp_path):
        baseline = write_summary(tmp_path / "base.json", {"old": 1.0, "a": 1.0})
        current = write_summary(tmp_path / "cur.json", {"new": 1.0, "a": 1.0})
        report = compare_summaries(current, baseline)
        assert report.only_current == ["new"]
        assert report.only_baseline == ["old"]

    def test_counter_deltas(self, tmp_path):
        baseline = write_summary(
            tmp_path / "base.json",
            {"a": 1.0},
            counters={"cache.hits": 10, "same": 5},
        )
        current = write_summary(
            tmp_path / "cur.json",
            {"a": 1.0},
            counters={"cache.hits": 4, "same": 5, "fresh": 2},
        )
        report = compare_summaries(current, baseline)
        assert report.counter_changes == {
            "cache.hits": (10, 4),
            "fresh": (0, 2),
        }

    def test_non_positive_threshold_rejected(self, tmp_path):
        path = write_summary(tmp_path / "x.json", {"a": 1.0})
        with pytest.raises(ValueError, match="threshold"):
            compare_summaries(path, path, threshold=0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_threshold_must_be_finite_and_positive(self, tmp_path, threshold):
        # No drift ratio exceeds 1 + nan, so a NaN threshold would pass
        # every pair.
        path = write_summary(tmp_path / "x.json", {"a": 1.0})
        with pytest.raises(ValueError, match="threshold must be finite"):
            compare_summaries(path, path, threshold=threshold)

    def test_format_mentions_drift_and_counters(self, tmp_path):
        baseline = write_summary(
            tmp_path / "base.json",
            {"a": 1.0, "b": 1.0, "c": 1.0},
            counters={"hits": 1},
        )
        current = write_summary(
            tmp_path / "cur.json",
            {"a": 1.0, "b": 1.0, "c": 3.0},
            counters={"hits": 9},
        )
        text = format_trend(compare_summaries(current, baseline))
        assert "DRIFT" in text
        assert "hits" in text and "(+8)" in text
        clean = format_trend(compare_summaries(baseline, baseline))
        assert "OK" in clean


class TestTrendCli:
    def test_ok_exit_zero(self, tmp_path, capsys):
        base = write_summary(tmp_path / "base.json", {"a": 1.0, "b": 2.0})
        cur = write_summary(tmp_path / "cur.json", {"a": 1.1, "b": 2.2})
        assert main(["obs", "trend", cur, base]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_strict_drift_exit_one(self, tmp_path, capsys):
        base = write_summary(
            tmp_path / "base.json", {"a": 1.0, "b": 1.0, "c": 1.0}
        )
        cur = write_summary(tmp_path / "cur.json", {"a": 1.0, "b": 1.0, "c": 5.0})
        assert main(["obs", "trend", cur, base, "--strict"]) == 1
        assert "DRIFT" in capsys.readouterr().out
        # without --strict the drift is reported but not fatal
        assert main(["obs", "trend", cur, base]) == 0

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_bad_threshold_exit_two(self, tmp_path, capsys, threshold):
        # --threshold nan --strict used to print OK and exit 0 on a pair
        # the default threshold flags.
        base = write_summary(tmp_path / "base.json", {"a": 1.0, "b": 1.0, "c": 1.0})
        cur = write_summary(tmp_path / "cur.json", {"a": 1.0, "b": 1.0, "c": 5.0})
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "trend", cur, base, "--threshold", threshold, "--strict"])
        assert exit_info.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_unusable_file_exit_two(self, tmp_path, capsys):
        base = write_summary(tmp_path / "base.json", {"a": 1.0})
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        assert main(["obs", "trend", str(empty), base]) == 2
        assert "no benchmarks" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        base = write_summary(tmp_path / "base.json", {"a": 1.0})
        assert main(["obs", "trend", str(tmp_path / "nope.json"), base]) == 2
        assert capsys.readouterr().err
