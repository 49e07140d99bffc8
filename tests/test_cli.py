"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.dataset == "lastfm"
        assert args.scale == 0.2

    def test_tradeoff_arguments(self):
        args = build_parser().parse_args(
            ["tradeoff", "--measures", "cn", "--epsilons", "inf", "0.5",
             "--ns", "10", "--repeats", "2"]
        )
        assert args.measures == ["cn"]
        assert args.epsilons == ["inf", "0.5"]

    def test_tradeoff_engine_defaults(self):
        args = build_parser().parse_args(["tradeoff"])
        assert args.cache_dir is None
        assert not hasattr(args, "engine")
        assert not hasattr(args, "backend")

    def test_tradeoff_rejects_unknown_engine(self, capsys):
        # One sweep path and one kernel per measure: neither flag exists.
        for argv in (
            ["tradeoff", "--engine", "reference"],
            ["tradeoff", "--backend", "python"],
            ["attack", "audit", "--backend", "python"],
            ["batch", "--backend", "python"],
            ["cache", "warm", "--cache-dir", "d", "--backend", "python"],
            ["sweep", "submit", "--queue", "q", "--engine", "reference"],
            ["sweep", "submit", "--queue", "q", "--backend", "python"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_attack_epsilon_parsing(self):
        args = build_parser().parse_args(["attack", "--epsilon", "inf"])
        import math

        assert math.isinf(args.epsilon)

    def test_attack_audit_defaults(self):
        args = build_parser().parse_args(["attack", "audit"])
        assert args.attack_command == "audit"
        assert args.measures == ["cn"]
        assert args.eps == [0.1, 0.5, 1.0, 2.0]
        assert args.target == ["private", "nou", "noe"]
        assert args.trials == 1000
        assert args.json is None
        assert not args.strict

    def test_attack_audit_eps_parsing(self):
        import math

        args = build_parser().parse_args(
            ["attack", "audit", "--eps", "inf", "0.5"]
        )
        assert math.isinf(args.eps[0]) and args.eps[1] == 0.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "audit", "--eps", "abc"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--scale", "0.04", "--louvain-runs", "0"],
            ["sweep", "submit", "--queue", "{queue}", "--louvain-runs", "0"],
            ["attack", "audit", "--louvain-runs", "-1"],
        ],
    )
    def test_louvain_runs_must_be_positive(self, argv, tmp_path, capsys):
        # A usage error at the boundary, not a traceback or a queue of
        # cells no worker can run.
        queue_dir = tmp_path / "queue"
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(queue=queue_dir) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--louvain-runs: must be >= 1" in err
        assert "Traceback" not in err
        assert not queue_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "bench", "--mode", "open", "--rate"],
            ["serve", "bench", "--wait-ready"],
            ["sweep", "worker", "--queue", "q", "--lease-ttl"],
            ["sweep", "worker", "--queue", "q", "--max-idle"],
        ],
        ids=["rate", "wait-ready", "lease-ttl", "max-idle"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_timing_flags_must_be_finite(self, argv, value, capsys):
        # NaN fails every comparison, so a `<= 0` check lets it through:
        # a NaN arrival schedule, a wait that never times out, a lease
        # that expires at NaN.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + [value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-1]}: must be finite" in err

    def test_zero_max_idle_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "worker", "--queue", "q", "--max-idle", "0"]
        )
        assert args.max_idle == 0.0

    def test_attack_audit_json_flag_without_path_means_stdout(self):
        args = build_parser().parse_args(["attack", "audit", "--json"])
        assert args.json == "-"

    def test_attack_audit_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "audit", "--target", "bogus"]
            )

    def test_legacy_flat_attack_has_no_subcommand(self):
        args = build_parser().parse_args(["attack", "--epsilon", "0.5"])
        assert args.attack_command is None


class TestCommands:
    def test_stats_command(self, capsys):
        assert main(["stats", "--scale", "0.04", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "|U|" in out
        assert "sparsity" in out

    def test_degree_effect_command(self, capsys):
        assert main(["degree-effect", "--scale", "0.04", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "NDCG@50" in out

    def test_tradeoff_command(self, capsys):
        code = main(
            ["tradeoff", "--scale", "0.04", "--seed", "1", "--measures", "cn",
             "--epsilons", "inf", "1.0", "--ns", "10", "--repeats", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NDCG@10" in out
        assert "CN" in out

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--scale", "0.04", "--seed", "1", "--measures", "cn",
             "--epsilons", "1.0", "--n", "10", "--repeats", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster" in out
        assert "nou" in out

    def test_attack_command(self, capsys):
        code = main(["attack", "--scale", "0.04", "--seed", "1",
                     "--epsilon", "0.5", "--top-n", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sybil attack" in out
        assert "non-private" in out

    def test_attack_audit_command(self, capsys):
        argv = ["attack", "audit", "--scale", "0.06", "--seed", "101",
                "--measures", "cn", "--eps", "0.5", "2.0", "--trials", "200",
                "--repeats", "1", "--louvain-runs", "2", "--target",
                "private", "nou", "--strict"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "privacy audit" in out
        assert "eps_empirical" in out
        assert "unaccounted" in out
        assert "all cells satisfy" in out

    def test_attack_audit_json_stdout(self, capsys):
        import json

        argv = ["attack", "audit", "--scale", "0.06", "--seed", "101",
                "--eps", "1.0", "--trials", "100", "--repeats", "1",
                "--louvain-runs", "2", "--target", "private", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "privacy-audit"
        assert len(payload["cells"]) == 1

    def test_attack_audit_json_file(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "audit.json")
        argv = ["attack", "audit", "--scale", "0.06", "--seed", "101",
                "--eps", "1.0", "--trials", "100", "--repeats", "1",
                "--louvain-runs", "2", "--target", "nou", "--json", path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"audit report written to {path}" in out
        assert "privacy audit" in out
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["version"] == 1

    def test_flixster_preset(self, capsys):
        assert main(["stats", "--dataset", "flixster", "--scale", "0.02"]) == 0

    def test_analyze_command(self, capsys):
        code = main(["analyze", "--scale", "0.04", "--seed", "1",
                     "--path-samples", "10", "--louvain-runs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "louvain" in out
        assert "clustering coefficient" in out

    def test_validate_command_passes_for_correct_mechanism(self, capsys):
        code = main(
            ["validate", "--epsilon", "0.5", "--cluster-size", "3",
             "--samples", "30000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "empirical lower bound" in out

    def test_validate_singleton_cluster(self, capsys):
        code = main(
            ["validate", "--epsilon", "1.0", "--cluster-size", "1",
             "--samples", "30000"]
        )
        assert code == 0

    def test_data_dir_loading(self, tmp_path, capsys):
        (tmp_path / "user_friends.dat").write_text(
            "h\th\n1\t2\n2\t3\n", encoding="utf-8"
        )
        (tmp_path / "user_artists.dat").write_text(
            "h\th\th\n1\t100\t5\n3\t200\t3\n", encoding="utf-8"
        )
        assert main(["stats", "--data-dir", str(tmp_path)]) == 0


@pytest.fixture(scope="module")
def release_path(tmp_path_factory):
    """A small saved release artifact shared by the check-release tests."""
    from repro.core.persistence import PublishedRelease
    from repro.core.private import PrivateSocialRecommender
    from repro.datasets.synthetic import SyntheticDatasetSpec
    from repro.similarity.common_neighbors import CommonNeighbors

    dataset = SyntheticDatasetSpec.lastfm_like(scale=0.04).generate(seed=1)
    rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, n=5, seed=2)
    rec.fit(dataset.social, dataset.preferences)
    path = str(tmp_path_factory.mktemp("release") / "release.npz")
    PublishedRelease.from_recommender(rec).save(path)
    return path


class TestErrorExitCodes:
    def test_missing_dataset_dir_exits_3(self, tmp_path, capsys):
        code = main(["stats", "--data-dir", str(tmp_path / "nope")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    @pytest.mark.parametrize("dataset", ["lastfm", "flixster"])
    def test_non_finite_scale_exits_3(self, dataset, scale, capsys):
        code = main(["stats", "--dataset", dataset, "--scale", scale])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: error: scale must be finite and positive")
        assert "Traceback" not in err

    @pytest.mark.parametrize("rates", ["nan", "100,inf"])
    def test_capacity_rates_must_be_finite(self, rates, capsys):
        # Nothing listens on localhost port 1: a rate that slipped through
        # would fail on the connection instead, with another message.
        code = main(
            ["serve", "bench", "--scale", "0.04", "--capacity", "--rates", rates,
             "--connect", "127.0.0.1:1", "--wait-ready", "0.1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "each finite and > 0" in err
        assert "Traceback" not in err

    def test_malformed_dataset_reports_path_and_line(self, tmp_path, capsys):
        (tmp_path / "user_friends.dat").write_text("userID\tfriendID\n1\t2\n")
        (tmp_path / "user_artists.dat").write_text(
            "userID\tartistID\tweight\n1\t10\tbad\n"
        )
        code = main(["stats", "--data-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "user_artists.dat" in err
        assert ":2:" in err

    def test_integrity_error_exits_6(self, release_path, tmp_path, capsys):
        import shutil

        from repro.resilience import truncate_file

        broken = str(tmp_path / "broken.npz")
        shutil.copy(release_path, broken)
        truncate_file(broken, 100)
        code = main(["check-release", broken])
        assert code == 6
        assert "repro: error:" in capsys.readouterr().err

    def test_missing_release_exits_3(self, tmp_path, capsys):
        assert main(["check-release", str(tmp_path / "absent.npz")]) == 3


class TestCheckRelease:
    def test_parser_accepts_audit_flags(self):
        args = build_parser().parse_args(
            ["check-release", "r.npz", "--audit", "--samples", "500"]
        )
        assert args.path == "r.npz"
        assert args.audit
        assert args.samples == 500

    def test_good_artifact_reports_provenance(self, release_path, capsys):
        assert main(["check-release", release_path]) == 0
        out = capsys.readouterr().out
        assert "integrity:   OK (format v2)" in out
        assert "(verified)" in out
        assert "epsilon:     0.5" in out
        assert "measure:     cn" in out
        assert "dimensions:" in out

    def test_audit_verdict_ok(self, release_path, capsys):
        code = main(
            ["check-release", release_path, "--audit", "--samples", "4000"]
        )
        assert code == 0
        assert "-> OK" in capsys.readouterr().out


class TestTradeoffCheckpoint:
    def test_checkpoint_written_and_reused(self, tmp_path, capsys):
        ckpt = str(tmp_path / "sweep.jsonl")
        argv = ["tradeoff", "--scale", "0.04", "--seed", "1", "--measures",
                "cn", "--epsilons", "inf", "1.0", "--ns", "5", "--repeats",
                "1", "--checkpoint", ckpt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        import os

        assert os.path.exists(ckpt)
        with open(ckpt, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 2
        # second run resumes from the checkpoint and prints the same table
        # (the engine-stats epilogue differs: the resume scores nothing)
        def table(out):
            return out.split("engine:")[0]

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert table(second) == table(first)
        assert "0 cell(s)" in second


class TestTradeoffEngine:
    def test_vectorized_prints_engine_stats(self, capsys):
        argv = ["tradeoff", "--scale", "0.04", "--seed", "1", "--measures",
                "cn", "--epsilons", "inf", "1.0", "--ns", "5",
                "--repeats", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine:" in out
        assert "kernel:" in out
        assert "compute:" in out

    def test_engines_print_identical_tables(self, capsys):
        import math

        from repro.core.private import louvain_strategy
        from repro.datasets.synthetic import SyntheticDatasetSpec
        from repro.experiments.tradeoff import format_tradeoff_table
        from repro.similarity.base import get_measure
        from tests.oracles.sweep import tradeoff_cells

        argv = ["tradeoff", "--scale", "0.04", "--seed", "1", "--measures",
                "cn", "aa", "--epsilons", "inf", "0.5", "--ns", "5",
                "--repeats", "2"]
        assert main(argv) == 0
        vectorized = capsys.readouterr().out.split("engine:")[0]
        # The per-cell oracle over the command's dataset and clustering.
        dataset = SyntheticDatasetSpec.lastfm_like(scale=0.04).generate(seed=1)
        clustering = louvain_strategy(runs=10, seed=1)(dataset.social)
        cells = tradeoff_cells(
            dataset,
            [get_measure("cn"), get_measure("aa")],
            epsilons=(math.inf, 0.5),
            ns=(5,),
            repeats=2,
            clustering=clustering,
            seed=1,
        )
        assert vectorized == format_tradeoff_table(cells, 5) + "\n\n"

    def test_cache_dir_miss_then_hit(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "kernels")
        argv = ["tradeoff", "--scale", "0.04", "--seed", "1", "--measures",
                "cn", "--epsilons", "1.0", "0.5", "--ns", "5", "--repeats",
                "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 miss(es)" in out
        assert f"cache dir:   {cache_dir}" in out

        # Warm cache: the same sweep reports a kernel hit and no misses.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cache hit(s), 0 miss(es)" in out


class TestCacheCommand:
    def test_parser_requires_cache_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_warm_then_info_then_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "kernels")
        argv = ["cache", "warm", "--cache-dir", cache_dir, "--scale", "0.04",
                "--seed", "1", "--measures", "cn", "aa"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cn: computed" in out
        assert "2 miss(es)" in out

        # A second warm run hits the persisted artifacts.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cn: hit" in out and "aa: hit" in out
        assert "2 hit(s), 0 miss(es)" in out

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert "ok" in out

        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
        assert "pruned 2 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_warm_builds_every_registered_measure(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "kernels")
        assert main(["cache", "warm", "--cache-dir", cache_dir, "--scale",
                     "0.04", "--seed", "1", "--measures", "jc", "cos",
                     "pa"]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out
        for name in ("jc", "cos", "pa"):
            assert f"{name}: computed" in out
        assert "3 miss(es)" in out

    def test_info_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir",
                     str(tmp_path / "none")]) == 0
        assert "empty" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_serves_everyone_with_counters(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "kernels")
        argv = ["batch", "--scale", "0.04", "--seed", "1", "--measure", "cn",
                "--n", "5", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "served" in out and "rows/s" in out
        assert "0 cache hit(s), 1 miss(es)" in out

        # Warm cache: the same run reports a hit and no misses.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cache hit(s), 0 miss(es)" in out


class TestSweepCommands:
    SUBMIT = ["sweep", "submit", "--scale", "0.04", "--seed", "1",
              "--measures", "cn", "--epsilons", "inf", "1.0",
              "--ns", "5", "--repeats", "2"]

    def test_parser_requires_sweep_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_submit_worker_status_reap_round_trip(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "queue")
        assert main(self.SUBMIT + ["--queue", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out and "repro sweep worker" in out

        # Resubmitting the identical sweep is idempotent...
        assert main(self.SUBMIT + ["--queue", queue_dir]) == 0
        capsys.readouterr()
        # ...but a different spec at the same queue is refused (exit 5).
        different = list(self.SUBMIT)
        different[different.index("--seed") + 1] = "9"
        assert main(different + ["--queue", queue_dir]) == 5
        assert "different sweep spec" in capsys.readouterr().err

        assert main(["sweep", "worker", "--queue", queue_dir,
                     "--max-idle", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s) completed" in out

        assert main(["sweep", "status", "--queue", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "0 poisoned" in out

        assert main(["sweep", "reap", "--queue", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "reaped 0 expired lease(s)" in out

    def test_status_of_missing_queue_exits_5(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing")
        assert main(["sweep", "status", "--queue", missing]) == 5
        assert "not an initialised" in capsys.readouterr().err
