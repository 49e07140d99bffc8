"""End-to-end tests for the red-team audit driver.

The acceptance pins live here: every cell's empirical bound stays under
the ledger's analytical claim, the private bounds are monotone in
epsilon, the non-private baselines are flagged at the sentinel, and the
whole report is a bit-reproducible pure function of the master seed —
against the reference Louvain and kernel oracles and under injected
faults.
"""

import json
import math

import pytest

import repro.cache.store as store_module
import repro.core.private as private_module
from repro.attacks.audit import format_audit_table, run_privacy_audit
from repro.attacks.estimator import EPS_SENTINEL
from repro.core.base import BaseRecommender
from repro.exceptions import ExperimentError
from repro.obs.registry import Telemetry, telemetry

from tests.oracles import louvain as oracle_louvain
from tests.oracles.kernels import python_kernel

from .conftest import AUDIT_EPSILONS, AUDIT_SEED

SMALL_PARAMS = dict(
    measures=["cn"],
    epsilons=[0.5, 2.0],
    targets=["private", "nou"],
    trials=200,
    repeats=2,
    seed=3,
    louvain_runs=2,
)


class TestReportStructure:
    def test_full_grid_of_cells(self, audit_report):
        assert len(audit_report.cells) == 3 * len(AUDIT_EPSILONS)
        combos = {(c.target, c.measure, c.epsilon) for c in audit_report.cells}
        assert len(combos) == len(audit_report.cells)

    def test_cell_accessor(self, audit_report):
        cell = audit_report.cell("private", "cn", 0.5)
        assert cell.target == "private" and cell.epsilon == 0.5
        with pytest.raises(KeyError):
            audit_report.cell("private", "cn", 99.0)

    def test_jsonable_envelope(self, audit_report):
        payload = audit_report.to_jsonable()
        assert payload["version"] == 1
        assert payload["kind"] == "privacy-audit"
        assert payload["config"]["seed"] == AUDIT_SEED
        assert len(payload["cells"]) == len(audit_report.cells)
        json.dumps(payload)  # must be serialisable as-is

    def test_table_reports_a_clean_audit(self, audit_report):
        table = format_audit_table(audit_report)
        assert "all cells satisfy eps_empirical <= eps_analytical" in table
        assert "unaccounted" in table  # the baselines' analytical column


class TestAcceptance:
    def test_no_cell_violates_the_ledger_claim(self, audit_report):
        assert audit_report.violations() == []

    def test_private_cells_match_the_ledger(self, audit_report):
        for eps in AUDIT_EPSILONS:
            cell = audit_report.cell("private", "cn", eps)
            assert cell.eps_analytical == pytest.approx(eps)
            assert cell.ledger_releases == audit_report.repeats
            assert not cell.membership.deterministic
            assert 0.0 <= cell.eps_empirical <= eps + 1e-9

    def test_private_bounds_monotone_in_epsilon(self, audit_report):
        bounds = [
            audit_report.cell("private", "cn", eps).eps_empirical
            for eps in AUDIT_EPSILONS
        ]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_baselines_flagged_at_the_sentinel(self, audit_report):
        for target in ("nou", "noe"):
            for eps in AUDIT_EPSILONS:
                cell = audit_report.cell(target, "cn", eps)
                assert cell.eps_empirical == EPS_SENTINEL
                assert cell.membership.deterministic
                assert cell.eps_analytical is None
                assert not cell.violates()
                private = audit_report.cell("private", "cn", eps)
                assert cell.eps_empirical > private.eps_empirical

    def test_reconstruction_scores_are_sane(self, audit_report):
        for cell in audit_report.cells:
            assert 0.0 <= cell.reconstruction.auc <= 1.0
            assert 0.0 <= cell.reconstruction.recovery <= 1.0
        private = audit_report.cell("private", "cn", AUDIT_EPSILONS[0])
        assert private.reconstruction.repeats == audit_report.repeats


class TestReproducibility:
    def test_same_seed_reproduces_the_report_bit_for_bit(
        self, lastfm_small, audit_report
    ):
        rerun = run_privacy_audit(
            lastfm_small,
            measures=["cn"],
            epsilons=AUDIT_EPSILONS,
            targets=["private", "nou", "noe"],
            trials=600,
            repeats=2,
            seed=AUDIT_SEED,
            louvain_runs=2,
        )
        assert json.dumps(rerun.to_jsonable(), sort_keys=True) == json.dumps(
            audit_report.to_jsonable(), sort_keys=True
        )

    def test_python_and_auto_backends_agree_bit_for_bit(
        self, lastfm_small, monkeypatch
    ):
        """The report is the same when the reference oracles cluster and
        build every kernel in place of production."""
        auto = run_privacy_audit(lastfm_small, **SMALL_PARAMS).to_jsonable()
        monkeypatch.setattr(
            private_module,
            "best_louvain_clustering",
            oracle_louvain.best_louvain_clustering,
        )
        monkeypatch.setattr(
            store_module,
            "build_kernel",
            lambda graph, measure, stats=None: python_kernel(graph, measure),
        )
        python = run_privacy_audit(lastfm_small, **SMALL_PARAMS).to_jsonable()
        assert json.dumps(python, sort_keys=True) == json.dumps(auto, sort_keys=True)


class TestTelemetry:
    def test_counters_spans_and_ledger_land_in_the_registry(
        self, lastfm_small
    ):
        with telemetry(Telemetry(trace=False)) as registry:
            report = run_privacy_audit(
                lastfm_small,
                measures=["cn"],
                epsilons=[0.5],
                targets=["private"],
                trials=100,
                repeats=1,
                seed=3,
                louvain_runs=2,
            )
            assert registry.counter("attacks.cells") == len(report.cells)
            assert registry.counter("attacks.trials") >= 200
            assert len(registry.ledger_entries) > 0
            paths = registry.snapshot().span_totals
        assert any("attacks.audit" in path for path in paths)
        assert any("attacks.cell" in path for path in paths)


#: Every target, so all 16 deployed fits (4 targets x 2 epsilons x 2
#: worlds) run.
EVERY_TARGET = dict(
    measures=["cn"],
    epsilons=[0.5, 2.0],
    targets=["private", "nou", "noe", "lrm", "gs"],
    trials=50,
    repeats=1,
    louvain_runs=2,
)


class TestSharedFitState:
    """One similarity cache per measure serves the private target's
    profile and every deployed fit, without moving any release."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_report_equals_fits_with_caches_of_their_own(
        self, lastfm_small, monkeypatch, seed
    ):
        shared = run_privacy_audit(lastfm_small, seed=seed, **EVERY_TARGET)
        fit = BaseRecommender.fit
        monkeypatch.setattr(
            BaseRecommender,
            "fit",
            lambda self, social, preferences, similarity=None: fit(
                self, social, preferences
            ),
        )
        with telemetry(Telemetry(trace=False)) as registry:
            own = run_privacy_audit(lastfm_small, seed=seed, **EVERY_TARGET)
        assert registry.counter("compute.builds") == 17
        assert registry.counter("similarity.workload_svds") == 4
        assert json.dumps(own.to_jsonable(), sort_keys=True) == json.dumps(
            shared.to_jsonable(), sort_keys=True
        )

    def test_one_kernel_and_one_svd_serve_every_deployed_fit(self, lastfm_small):
        with telemetry(Telemetry(trace=False)) as registry:
            report = run_privacy_audit(lastfm_small, seed=3, **EVERY_TARGET)
            spans = registry.snapshot().span_totals
        fits = sum(
            count
            for path, (count, _seconds) in spans.items()
            if path.endswith("/attacks.fit")
        )
        assert len(report.cells) == 10
        assert registry.counter("compute.builds") == 1
        assert registry.counter("similarity.workload_svds") == 1
        assert fits == 16


class TestDeployedCompetitors:
    def test_lrm_and_gs_are_audited_as_deterministic(self, lastfm_small):
        report = run_privacy_audit(
            lastfm_small,
            measures=["cn"],
            epsilons=[1.0],
            targets=["lrm", "gs"],
            trials=50,
            repeats=1,
            seed=3,
            louvain_runs=2,
        )
        for target in ("lrm", "gs"):
            cell = report.cell(target, "cn", 1.0)
            assert cell.membership.deterministic
            assert cell.eps_analytical is None
            assert cell.reconstruction.repeats == 1


class TestInfiniteEpsilon:
    def test_exact_release_separates_the_worlds(self, lastfm_small):
        report = run_privacy_audit(
            lastfm_small,
            measures=["cn"],
            epsilons=[math.inf],
            targets=["private"],
            trials=50,
            repeats=1,
            seed=3,
            louvain_runs=2,
        )
        cell = report.cells[0]
        assert cell.membership.deterministic
        assert cell.eps_empirical == EPS_SENTINEL
        assert cell.eps_analytical is None  # nothing recorded to the ledger
        assert not cell.violates()


class TestErrors:
    def test_unknown_target(self, lastfm_small):
        with pytest.raises(ExperimentError, match="unknown audit target"):
            run_privacy_audit(lastfm_small, targets=["private", "mystery"])

    def test_empty_grid(self, lastfm_small):
        with pytest.raises(ExperimentError, match="non-empty"):
            run_privacy_audit(lastfm_small, epsilons=[])

    def test_invalid_trials(self, lastfm_small):
        with pytest.raises(ExperimentError, match=">= 1"):
            run_privacy_audit(lastfm_small, trials=0)

    @pytest.mark.parametrize(
        "grid, kind",
        [
            ({"measures": ["cn", "CN"]}, "measure"),
            ({"epsilons": [1.0, 0.5, 1.0]}, "epsilon"),
            ({"targets": ["private", "nou", "private"]}, "target"),
        ],
    )
    def test_duplicate_grid_entry(self, lastfm_small, grid, kind):
        with pytest.raises(ExperimentError, match=f"duplicate audit {kind}"):
            run_privacy_audit(lastfm_small, **grid)

    def test_unknown_victim(self, lastfm_small):
        with pytest.raises(ExperimentError):
            run_privacy_audit(lastfm_small, victim="__nobody__")
