"""Integration tests: telemetry is free when off and invisible when on.

Three contracts:

- disabled hooks cost effectively nothing (no registry, no recording);
- enabling a registry never changes a single produced number — batch
  serving and the sweep engine are bit-identical with profiling on/off;
- the CLI ``--profile`` flag writes a trace and summary whose span
  totals reconcile with the wall clock and whose privacy ledger sums to
  the configured epsilon under parallel composition.
"""

import json
import time

import pytest

from repro.cli import main
from repro.core.batch import batch_recommend_all
from repro.core.private import PrivateSocialRecommender
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.experiments.tradeoff import run_tradeoff
from repro.obs import (
    PrivacyLedgerView,
    get_telemetry,
    incr,
    read_trace,
    span,
    summary_path_for,
    telemetry,
)
from repro.similarity.common_neighbors import CommonNeighbors

MEASURE = CommonNeighbors()


@pytest.fixture(scope="module")
def context(lastfm_small):
    return EvaluationContext.build(lastfm_small, MEASURE, max_n=50, seed=0)


@pytest.fixture(scope="module")
def clustering(lastfm_small):
    from repro.core.private import louvain_strategy

    return louvain_strategy(runs=3, seed=0)(lastfm_small.social)


def _fitted(dataset, epsilon=0.5, seed=2):
    rec = PrivateSocialRecommender(MEASURE, epsilon=epsilon, n=10, seed=seed)
    rec.fit(dataset.social, dataset.preferences)
    return rec


class TestDisabledOverhead:
    def test_disabled_hooks_are_near_free(self):
        assert get_telemetry() is None
        n = 20_000
        started = time.perf_counter()
        for _ in range(n):
            incr("x")
            with span("s"):
                pass
        per_op = (time.perf_counter() - started) / n
        # A no-op hook is a global load plus a None check; even on a
        # heavily loaded CI box it stays orders of magnitude under 50us.
        assert per_op < 50e-6

    def test_disabled_run_records_nothing(self, lastfm_small):
        rec = _fitted(lastfm_small)
        batch_recommend_all(rec, n=5)
        assert get_telemetry() is None


class TestBitIdenticalWithTelemetry:
    def test_batch_results_identical_on_vs_off(self, lastfm_small):
        rec = _fitted(lastfm_small)
        off = batch_recommend_all(rec, n=10)
        with telemetry() as registry:
            on = batch_recommend_all(rec, n=10)
        assert set(on) == set(off)
        for user, expected in off.items():
            assert on[user] == expected, user
            assert on[user].item_ids() == expected.item_ids()
            assert on[user].utilities() == expected.utilities()
        # ...and the run actually recorded: counters plus the shard span.
        assert registry.counter("batch.users_served") == len(off)
        assert registry.span_total("batch.recommend_all")[0] == 1

    def test_engine_results_identical_on_vs_off(
        self, lastfm_small, context, clustering
    ):
        off = SweepEngine(lastfm_small).evaluate(
            context, clustering, 0.5, [10, 50], 2, base_seed=3
        )
        with telemetry() as registry:
            on = SweepEngine(lastfm_small).evaluate(
                context, clustering, 0.5, [10, 50], 2, base_seed=3
            )
        assert on == off
        assert registry.counter("engine.cells") == 1
        view = PrivacyLedgerView(registry.ledger_entries)
        # Two repeats at epsilon 0.5: each release composes to exactly 0.5.
        assert len(view.releases()) == 2
        assert all(
            eps == 0.5 for eps in view.release_epsilons().values()
        )

    def test_run_tradeoff_identical_on_vs_off(self, lastfm_small):
        kwargs = dict(
            measures=[MEASURE],
            epsilons=(1.0,),
            ns=(10,),
            repeats=2,
            seed=0,
        )
        off = run_tradeoff(lastfm_small, **kwargs)
        with telemetry() as registry:
            on = run_tradeoff(lastfm_small, **kwargs)
        assert list(on) == list(off)
        assert registry.counter("engine.cells") >= 1
        view = PrivacyLedgerView(registry.ledger_entries)
        assert all(
            eps == 1.0 for eps in view.release_epsilons().values()
        )


class TestComputeCounters:
    def test_one_build_counts_once(self, lastfm_small):
        rec = _fitted(lastfm_small)
        with telemetry() as registry:
            batch_recommend_all(rec, n=5)
        kernel = rec.state.similarity.ensure_kernel().matrix
        assert registry.counter("compute.builds") == 1
        assert registry.counter("compute.nnz") == kernel.nnz

    def test_one_kernel_per_measure_per_sweep(self, lastfm_small):
        with telemetry() as registry:
            run_tradeoff(
                lastfm_small,
                measures=[MEASURE],
                epsilons=(1.0,),
                ns=(10,),
                repeats=2,
                seed=0,
            )
        assert registry.counter("compute.builds") == 1


class TestCliProfile:
    def test_tradeoff_profile_end_to_end(self, tmp_path, capsys):
        trace_path = str(tmp_path / "BENCH_obs.jsonl")
        code = main(
            ["tradeoff", "--scale", "0.04", "--seed", "1", "--measures", "cn",
             "--epsilons", "inf", "1.0", "--ns", "10", "--repeats", "1",
             "--profile", trace_path]
        )
        assert code == 0
        assert get_telemetry() is None  # the CLI deactivates its registry
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "privacy ledger" in out

        snapshot, meta = read_trace(trace_path)
        assert meta["command"] == "tradeoff"
        wall = meta["wall_seconds"]

        # Span totals reconcile with the wall clock within 5%.
        count, total = snapshot.span_totals["cli.tradeoff"]
        assert count == 1
        assert abs(total - wall) / wall < 0.05

        # The ledger composes to the configured epsilon: each finite cell
        # releases once at epsilon 1.0 (parallel across clusters), and
        # the inf cell records nothing.
        view = PrivacyLedgerView(snapshot.ledger)
        epsilons = view.release_epsilons()
        assert epsilons
        assert all(eps == 1.0 for eps in epsilons.values())
        assert view.total_epsilon() == float(len(epsilons))

        # Fault sites on the executed path were counted.
        assert snapshot.counters["fault.site.tradeoff.cell"] >= 1

        # The BENCH-style summary rides next to the trace.
        summary_path = summary_path_for(trace_path)
        assert summary_path == str(tmp_path / "BENCH_obs.json")
        with open(summary_path) as handle:
            summary = json.load(handle)
        assert summary["format"] == "repro-obs-summary"
        names = [b["name"] for b in summary["benchmarks"]]
        assert "cli.tradeoff" in names
        assert summary["privacy_ledger"]["total_epsilon"] == float(
            len(epsilons)
        )

        # And `repro obs report` renders the same trace.
        assert main(["obs", "report", trace_path]) == 0
        report = capsys.readouterr().out
        assert "cli.tradeoff" in report
        assert "total epsilon across releases" in report

    def test_batch_profile_writes_trace_and_summary(self, tmp_path, capsys):
        trace_path = str(tmp_path / "batch.jsonl")
        code = main(
            ["batch", "--scale", "0.04", "--seed", "1", "--measure", "cn",
             "--epsilon", "1.0", "--n", "5", "--profile", trace_path]
        )
        assert code == 0
        snapshot, meta = read_trace(trace_path)
        assert meta["command"] == "batch"
        assert snapshot.counters["batch.users_served"] >= 1
        assert "cli.batch" in snapshot.span_totals
        assert summary_path_for(trace_path) == str(tmp_path / "batch.json")
        assert json.load(open(summary_path_for(trace_path)))["benchmarks"]
