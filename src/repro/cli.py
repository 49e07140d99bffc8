"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands:

- ``stats``          — Table 1-style dataset summary.
- ``tradeoff``       — Figure 1/2 privacy–accuracy sweep.
- ``degree-effect``  — Figure 3 degree-vs-accuracy analysis.
- ``compare``        — Figure 4 mechanism comparison.
- ``attack``         — the Section 2.3 Sybil attack demonstration.
- ``check-release``  — verify a saved release artifact's integrity and
  provenance (optionally Monte-Carlo-auditing its epsilon claim).
- ``batch``          — serve top-N lists for every user at once (chunked
  dense scoring + similarity cache), reporting throughput counters.
- ``cache``          — manage the persistent similarity-kernel cache
  (``info`` / ``warm`` / ``prune``).
- ``obs``            — inspect recorded observability data:
  ``repro obs report`` renders a trace, ``repro obs trend`` diffs two
  BENCH-style summaries (median-normalized timings + counter deltas).
- ``sweep``          — fault-tolerant distributed sweeps over a
  filesystem work queue: ``submit`` decomposes a tradeoff sweep into
  leaseable cell tasks, ``worker`` claims and computes them (any number
  of processes/hosts sharing the queue directory), ``status`` reports
  progress, ``reap`` reclaims leases left behind by dead workers.
- ``serve``          — the online serving tier: ``publish`` fits and
  saves a release artifact, ``run`` starts the long-lived asyncio HTTP
  service over it (admission control riding the degradation ladder,
  hot release swap via ``POST /admin/swap``), ``bench`` drives a
  seeded load generator against a server (or a self-hosted one) and
  reports p50/p99 latency and sustained QPS.

``tradeoff``, ``batch``, and ``cache warm`` accept ``--profile[=PATH]``:
the run executes under an active :mod:`repro.obs` registry and writes a
JSON-lines trace plus a BENCH-style summary (spans, counters, the
privacy ledger) next to it — see ``docs/observability.md``.

All commands operate on the synthetic datasets (``--dataset lastfm`` /
``flixster`` with ``--scale``), or on a real crawl directory via
``--data-dir`` (HetRec two-file layout).

Library failures exit with a short message on stderr and a distinct
code per failure family (see ``EXIT_CODES``) instead of a traceback;
programming errors still propagate with a full traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.attacks.sybil import run_attack_experiment
from repro.core.private import PrivateSocialRecommender
from repro.core.recommender import SocialRecommender
from repro.datasets.dataset import SocialRecDataset
from repro.datasets.loader import load_dataset_directory
from repro.datasets.stats import dataset_stats, format_stats_table
from repro.datasets.synthetic import SyntheticDatasetSpec
from repro.exceptions import (
    DatasetError,
    ExperimentError,
    PrivacyError,
    ReleaseIntegrityError,
    ReproError,
    RetryExhaustedError,
)
from repro.experiments.comparison import format_comparison_table, run_comparison
from repro.experiments.degree_effect import run_degree_effect
from repro.experiments.tradeoff import format_tradeoff_table, run_tradeoff
from repro.similarity.base import get_measure

__all__ = ["main", "build_parser", "EXIT_CODES"]

# Exit codes for library failures, most specific class first: the first
# matching entry wins, so subclasses must precede their bases.
EXIT_CODES = (
    (ReleaseIntegrityError, 6),
    (RetryExhaustedError, 7),
    (DatasetError, 3),
    (PrivacyError, 4),
    (ExperimentError, 5),
    (ReproError, 2),
)


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


# Both float checks are written so that NaN, which fails every
# comparison, is rejected too.
def _positive_float(value: str) -> float:
    parsed = float(value)
    if not 0 < parsed < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return parsed


def _nonnegative_float(value: str) -> float:
    parsed = float(value)
    if not 0 <= parsed < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return parsed


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=("lastfm", "flixster"),
        default="lastfm",
        help="synthetic dataset preset (default: lastfm)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="size multiplier for the synthetic preset (default: 0.2)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="load a real crawl from this directory instead (HetRec layout)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _resolve_dataset(args: argparse.Namespace) -> SocialRecDataset:
    if args.data_dir:
        return load_dataset_directory(args.data_dir)
    if args.dataset == "lastfm":
        spec = SyntheticDatasetSpec.lastfm_like(scale=args.scale)
    else:
        spec = SyntheticDatasetSpec.flixster_like(scale=args.scale * 0.1)
    return spec.generate(seed=args.seed)


def _parse_epsilon(token: str) -> float:
    if token.lower() in ("inf", "infinity"):
        return math.inf
    return float(token)


DEFAULT_PROFILE_PATH = "repro-obs.jsonl"


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        nargs="?",
        const=DEFAULT_PROFILE_PATH,
        default=None,
        metavar="PATH",
        help="record an observability trace (JSON-lines) to PATH "
        f"(default: {DEFAULT_PROFILE_PATH}) plus a BENCH-style summary "
        "next to it, and print the span/counter/privacy-ledger report",
    )


@contextmanager
def _profiled(command: str, trace_path: Optional[str]):
    """Run a CLI command body under an active telemetry registry.

    No-op when ``trace_path`` is None.  Otherwise the body runs inside a
    root ``cli.<command>`` span; on exit (even a failing one) the trace
    and its summary are written and the human report printed, so a
    crashed run still leaves its telemetry behind.
    """
    if not trace_path:
        yield
        return
    from repro import obs

    registry = obs.Telemetry()
    wall_start = time.perf_counter()
    try:
        with obs.telemetry(registry):
            with obs.span(f"cli.{command}"):
                yield
    finally:
        wall_seconds = time.perf_counter() - wall_start
        snapshot = registry.snapshot()
        meta = {"command": command, "wall_seconds": wall_seconds}
        obs.write_trace(trace_path, snapshot, meta=meta)
        summary_path = obs.summary_path_for(trace_path)
        obs.write_summary(
            summary_path, snapshot, wall_seconds=wall_seconds, meta=meta
        )
        print(f"profile:     trace {trace_path}, summary {summary_path}")
        print(obs.format_report(snapshot, wall_seconds=wall_seconds))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving social recommendation (EDBT 2014 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="Table 1-style dataset summary")
    _add_dataset_arguments(p_stats)

    p_trade = sub.add_parser("tradeoff", help="Figure 1/2 accuracy-vs-epsilon sweep")
    _add_dataset_arguments(p_trade)
    p_trade.add_argument(
        "--measures", nargs="+", default=["cn", "aa", "gd", "kz"],
        help="similarity measures (default: cn aa gd kz)",
    )
    p_trade.add_argument(
        "--epsilons", nargs="+", default=["inf", "1.0", "0.6", "0.1", "0.05", "0.01"],
        help="privacy settings; 'inf' means no noise",
    )
    p_trade.add_argument("--ns", nargs="+", type=int, default=[10, 50, 100])
    p_trade.add_argument("--repeats", type=int, default=5)
    p_trade.add_argument("--sample-size", type=int, default=None)
    p_trade.add_argument(
        "--checkpoint",
        default=None,
        help="JSON-lines checkpoint file; completed cells are skipped on "
        "rerun, so a killed sweep resumes where it stopped",
    )
    p_trade.add_argument(
        "--cache-dir",
        default=None,
        help="persist/reuse similarity kernels in this directory",
    )
    _add_profile_argument(p_trade)

    p_degree = sub.add_parser("degree-effect", help="Figure 3 degree analysis")
    _add_dataset_arguments(p_degree)
    p_degree.add_argument("--measure", default="cn")
    p_degree.add_argument("--n", type=int, default=50)
    p_degree.add_argument("--threshold", type=int, default=10)

    p_cmp = sub.add_parser("compare", help="Figure 4 mechanism comparison")
    _add_dataset_arguments(p_cmp)
    p_cmp.add_argument("--measures", nargs="+", default=["cn"])
    p_cmp.add_argument("--epsilons", nargs="+", default=["1.0", "0.1"])
    p_cmp.add_argument("--n", type=int, default=50)
    p_cmp.add_argument("--repeats", type=int, default=3)
    p_cmp.add_argument("--sample-size", type=int, default=None)

    p_attack = sub.add_parser(
        "attack", help="Section 2.3 Sybil attack demo / privacy audit suite"
    )
    _add_dataset_arguments(p_attack)
    p_attack.add_argument("--measure", default="cn")
    p_attack.add_argument("--epsilon", type=_parse_epsilon, default=0.5)
    p_attack.add_argument("--victim", type=int, default=None)
    p_attack.add_argument("--top-n", type=int, default=50)
    attack_sub = p_attack.add_subparsers(dest="attack_command")
    p_audit = attack_sub.add_parser(
        "audit",
        help="red-team audit: empirical epsilon lower bounds vs the ledger",
    )
    _add_dataset_arguments(p_audit)
    p_audit.add_argument(
        "--measures", nargs="+", default=["cn"],
        help="similarity measures to audit (default: cn)",
    )
    p_audit.add_argument(
        "--eps", nargs="+", type=_parse_epsilon,
        default=[0.1, 0.5, 1.0, 2.0], metavar="EPS",
        help="epsilon sweep (default: 0.1 0.5 1.0 2.0)",
    )
    p_audit.add_argument(
        "--target", nargs="+", choices=("private", "nou", "noe", "lrm", "gs"),
        default=["private", "nou", "noe"],
        help="mechanisms to attack (default: private nou noe)",
    )
    p_audit.add_argument(
        "--trials", type=_positive_int, default=1000,
        help="membership trials per world per cell (default: 1000)",
    )
    p_audit.add_argument(
        "--repeats", type=_positive_int, default=3,
        help="reconstruction releases per private cell (default: 3)",
    )
    p_audit.add_argument("--louvain-runs", type=_positive_int, default=5)
    p_audit.add_argument(
        "--cache-dir", default=None,
        help="persistent similarity-kernel store directory",
    )
    p_audit.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the audit report as JSON to PATH (or stdout with no PATH)",
    )
    p_audit.add_argument(
        "--strict", action="store_true",
        help="fail (privacy exit code) if any cell violates "
        "eps_empirical <= eps_analytical",
    )
    _add_profile_argument(p_audit)

    p_analyze = sub.add_parser(
        "analyze", help="structural analysis of a dataset's social graph"
    )
    _add_dataset_arguments(p_analyze)
    p_analyze.add_argument("--path-samples", type=int, default=30)
    p_analyze.add_argument("--louvain-runs", type=_positive_int, default=5)

    p_validate = sub.add_parser(
        "validate",
        help="empirically estimate the privacy loss of module A_w",
    )
    p_validate.add_argument("--epsilon", type=float, default=0.5)
    p_validate.add_argument("--cluster-size", type=int, default=4)
    p_validate.add_argument("--samples", type=int, default=60000)
    p_validate.add_argument("--seed", type=int, default=0)

    p_report = sub.add_parser(
        "report", help="regenerate every table and figure as one markdown report"
    )
    p_report.add_argument("--lastfm-scale", type=float, default=0.15)
    p_report.add_argument("--flixster-scale", type=float, default=0.008)
    p_report.add_argument("--repeats", type=int, default=3)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )

    p_check = sub.add_parser(
        "check-release",
        help="verify a saved release artifact's integrity and provenance",
    )
    p_check.add_argument("path", help="path to a release .npz artifact")
    p_check.add_argument(
        "--audit",
        action="store_true",
        help="additionally Monte-Carlo-audit the artifact's epsilon claim "
        "against a fresh run of module A_w",
    )
    p_check.add_argument("--samples", type=int, default=30000)
    p_check.add_argument("--seed", type=int, default=0)

    p_batch = sub.add_parser(
        "batch",
        help="serve top-N recommendations for every user in one batch pass",
    )
    _add_dataset_arguments(p_batch)
    p_batch.add_argument("--measure", default="cn")
    p_batch.add_argument("--epsilon", type=_parse_epsilon, default=0.5)
    p_batch.add_argument("--n", type=_positive_int, default=10)
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        help="persist/reuse similarity kernels in this directory",
    )
    _add_profile_argument(p_batch)

    p_cache = sub.add_parser(
        "cache", help="manage the persistent similarity-kernel cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_cache_info = cache_sub.add_parser(
        "info", help="list cached kernel artifacts and totals"
    )
    p_cache_info.add_argument("--cache-dir", required=True)

    p_cache_prune = cache_sub.add_parser(
        "prune", help="delete artifacts, oldest first, down to a size budget"
    )
    p_cache_prune.add_argument("--cache-dir", required=True)
    p_cache_prune.add_argument(
        "--max-bytes",
        type=int,
        default=0,
        help="keep at most this many bytes of artifacts (default 0: empty)",
    )

    p_cache_warm = cache_sub.add_parser(
        "warm", help="precompute and persist similarity kernels for a dataset"
    )
    _add_dataset_arguments(p_cache_warm)
    p_cache_warm.add_argument("--cache-dir", required=True)
    p_cache_warm.add_argument(
        "--measures", nargs="+", default=["cn", "aa", "gd", "kz"],
        help="similarity measures to warm (default: cn aa gd kz)",
    )
    _add_profile_argument(p_cache_warm)

    p_obs = sub.add_parser(
        "obs", help="inspect recorded observability traces"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report", help="render a --profile trace as human tables"
    )
    p_obs_report.add_argument("path", help="path to a .jsonl trace file")
    p_obs_report.add_argument(
        "--json",
        action="store_true",
        help="print the BENCH-style summary JSON instead of tables",
    )
    p_obs_trend = obs_sub.add_parser(
        "trend",
        help="diff two BENCH-style summaries (pytest-benchmark or "
        "--profile summary JSON): median-normalized timing drift plus "
        "counter deltas",
    )
    p_obs_trend.add_argument("current", help="summary JSON from this run")
    p_obs_trend.add_argument("baseline", help="summary JSON to compare against")
    p_obs_trend.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="normalized slowdown fraction to flag as drift "
        "(default: %(default)s)",
    )
    p_obs_trend.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any benchmark drifts beyond the threshold "
        "(default: informational, exit 0)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="distributed tradeoff sweeps over a filesystem work queue",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_sweep_submit = sweep_sub.add_parser(
        "submit",
        help="decompose a tradeoff sweep into leaseable cell tasks "
        "(idempotent for the same sweep)",
    )
    _add_dataset_arguments(p_sweep_submit)
    p_sweep_submit.add_argument("--queue", required=True, help="queue directory")
    p_sweep_submit.add_argument(
        "--measures", nargs="+", default=["cn", "aa", "gd", "kz"],
        help="similarity measures (default: cn aa gd kz)",
    )
    p_sweep_submit.add_argument(
        "--epsilons", nargs="+", default=["inf", "1.0", "0.6", "0.1", "0.05", "0.01"],
        help="privacy settings; 'inf' means no noise",
    )
    p_sweep_submit.add_argument("--ns", nargs="+", type=int, default=[10, 50, 100])
    p_sweep_submit.add_argument("--repeats", type=int, default=5)
    p_sweep_submit.add_argument("--sample-size", type=int, default=None)
    p_sweep_submit.add_argument("--louvain-runs", type=_positive_int, default=10)
    p_sweep_submit.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="failed attempts before a cell is quarantined (default: 3)",
    )

    p_sweep_worker = sweep_sub.add_parser(
        "worker",
        help="claim and compute cells from a queue until it is drained",
    )
    p_sweep_worker.add_argument("--queue", required=True, help="queue directory")
    p_sweep_worker.add_argument(
        "--worker-id", default=None, help="lease identity (default: host-pid)"
    )
    p_sweep_worker.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=30.0,
        help="seconds a lease stays valid between heartbeats (default: 30)",
    )
    p_sweep_worker.add_argument(
        "--max-cells",
        type=_positive_int,
        default=None,
        help="stop after completing this many cells (default: drain)",
    )
    p_sweep_worker.add_argument(
        "--max-idle",
        type=_nonnegative_float,
        default=None,
        metavar="SECONDS",
        help="give up after this long without claiming anything "
        "(default: wait while work remains)",
    )

    p_sweep_status = sweep_sub.add_parser(
        "status", help="one progress snapshot of a queue"
    )
    p_sweep_status.add_argument("--queue", required=True, help="queue directory")

    p_sweep_reap = sweep_sub.add_parser(
        "reap",
        help="reclaim expired leases left behind by dead workers",
    )
    p_sweep_reap.add_argument("--queue", required=True, help="queue directory")

    p_serve = sub.add_parser(
        "serve",
        help="online serving tier: async HTTP service over a published release",
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    p_serve_publish = serve_sub.add_parser(
        "publish",
        help="fit the private recommender and save its release artifact",
    )
    _add_dataset_arguments(p_serve_publish)
    p_serve_publish.add_argument("--measure", default="cn")
    p_serve_publish.add_argument("--epsilon", type=_parse_epsilon, default=0.5)
    p_serve_publish.add_argument(
        "--release", required=True, help="write the .npz artifact here"
    )

    p_serve_run = serve_sub.add_parser(
        "run", help="start the long-lived HTTP recommendation service"
    )
    _add_dataset_arguments(p_serve_run)
    p_serve_run.add_argument(
        "--release",
        default=None,
        help="serve this .npz artifact (default: fit one in-process from "
        "the dataset arguments)",
    )
    p_serve_run.add_argument("--measure", default="cn")
    p_serve_run.add_argument(
        "--epsilon",
        type=_parse_epsilon,
        default=0.5,
        help="privacy parameter when fitting in-process (ignored with "
        "--release)",
    )
    p_serve_run.add_argument("--host", default="127.0.0.1")
    p_serve_run.add_argument(
        "--port", type=int, default=0, help="bind port (0: ephemeral)"
    )
    p_serve_run.add_argument("--n", type=_positive_int, default=10)
    p_serve_run.add_argument(
        "--threads", type=_positive_int, default=4, help="scoring thread pool"
    )
    p_serve_run.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        help="admitted-request bound; beyond it requests are shed "
        "(default: 64)",
    )
    p_serve_run.add_argument(
        "--cluster-at",
        type=float,
        default=0.5,
        help="queue-depth fraction where responses degrade to "
        "cluster-popularity (default: 0.5)",
    )
    p_serve_run.add_argument(
        "--global-at",
        type=float,
        default=0.75,
        help="queue-depth fraction where responses degrade to global "
        "popularity (default: 0.75)",
    )
    p_serve_run.add_argument(
        "--max-requests",
        type=_positive_int,
        default=None,
        help="shut down cleanly after serving this many requests "
        "(default: serve until POST /admin/shutdown)",
    )
    p_serve_run.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline in milliseconds; expired "
        "requests are answered inline from the next degradation rung "
        "(default: none; requests may override with ?deadline_ms=)",
    )
    p_serve_run.add_argument(
        "--mmap-dir",
        default=None,
        help="memory-map release matrices via a content-addressed .npy "
        "cache in this directory",
    )
    p_serve_run.add_argument(
        "--cache-dir",
        default=None,
        help="warm similarity kernels through a persistent "
        "SimilarityStore in this directory (initial load and every swap)",
    )
    p_serve_run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes; >1 starts the prefork supervisor over a "
        "shared data port (default: 1, single-process)",
    )
    p_serve_run.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="supervisor admin port for /stats, /admin/swap, "
        "/admin/shutdown (0: ephemeral; only with --workers > 1)",
    )
    p_serve_run.add_argument(
        "--response-cache-size",
        type=int,
        default=0,
        help="per-process generation-keyed response-cache capacity "
        "(default: 0, disabled; requests bypass with ?fresh=1)",
    )
    p_serve_run.add_argument(
        "--socket-mode",
        choices=("auto", "reuseport", "inherit"),
        default="auto",
        help="how prefork workers share the data port (default: auto — "
        "SO_REUSEPORT where available, else an inherited listener)",
    )
    _add_profile_argument(p_serve_run)

    p_serve_swap = serve_sub.add_parser(
        "swap",
        help="hot-swap a running service to a new release artifact",
    )
    p_serve_swap.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="a single-process server's port, or a supervisor's "
        "--control-port (the shared data port refuses swaps)",
    )
    p_serve_swap.add_argument(
        "--release", required=True, help="the .npz artifact to swap to"
    )

    p_serve_bench = serve_sub.add_parser(
        "bench",
        help="drive the seeded load generator and report p50/p99/QPS",
    )
    _add_dataset_arguments(p_serve_bench)
    p_serve_bench.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="target a running server (default: self-host one in-process "
        "from the dataset arguments)",
    )
    p_serve_bench.add_argument("--measure", default="cn")
    p_serve_bench.add_argument(
        "--epsilon", type=_parse_epsilon, default=0.5,
        help="privacy parameter for the self-hosted release",
    )
    p_serve_bench.add_argument("--requests", type=_positive_int, default=200)
    p_serve_bench.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    p_serve_bench.add_argument(
        "--concurrency", type=_positive_int, default=8,
        help="closed-loop in-flight bound (default: 8)",
    )
    p_serve_bench.add_argument(
        "--rate", type=_positive_float, default=200.0,
        help="open-loop arrivals per second (default: 200)",
    )
    p_serve_bench.add_argument("--n", type=_positive_int, default=10)
    p_serve_bench.add_argument(
        "--threads", type=_positive_int, default=4,
        help="self-hosted scoring thread pool",
    )
    p_serve_bench.add_argument(
        "--expect-tier",
        default=None,
        help="exit non-zero unless at least one response was served "
        "from this tier",
    )
    p_serve_bench.add_argument(
        "--capacity",
        action="store_true",
        help="capacity-planning report: sweep open-loop offered rates "
        "and print offered QPS vs achieved tier mix / p99",
    )
    p_serve_bench.add_argument(
        "--rates",
        default=None,
        metavar="R1,R2,...",
        help="offered rates for --capacity (default: 0.25x, 0.5x, 1x, "
        "2x, 4x of --rate)",
    )
    p_serve_bench.add_argument(
        "--clients",
        type=_positive_int,
        default=1,
        help="loadgen client processes (fork); >1 keeps one GIL-bound "
        "client from capping the measured QPS of a multi-worker server "
        "(requires --connect)",
    )
    p_serve_bench.add_argument(
        "--shutdown",
        action="store_true",
        help="POST /admin/shutdown to the --connect server afterwards",
    )
    p_serve_bench.add_argument(
        "--wait-ready",
        type=_positive_float,
        default=30.0,
        help="seconds to wait for a --connect server to answer /health "
        "(default: 30)",
    )
    _add_profile_argument(p_serve_bench)
    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args)
    print(format_stats_table([dataset_stats(dataset)]))
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.cache import SimilarityStore

    dataset = _resolve_dataset(args)
    measures = [get_measure(name) for name in args.measures]
    store = SimilarityStore(args.cache_dir) if args.cache_dir else None
    cells = run_tradeoff(
        dataset,
        measures,
        epsilons=[_parse_epsilon(e) for e in args.epsilons],
        ns=args.ns,
        repeats=args.repeats,
        sample_size=args.sample_size,
        seed=args.seed,
        checkpoint=args.checkpoint,
        store=store,
    )
    for n in args.ns:
        print(format_tradeoff_table(cells, n))
        print()
    stats = getattr(cells, "stats", None)
    if stats is not None:
        print(
            f"engine:      {stats.cells} cell(s) x {stats.repeats} repeat(s) "
            f"over {stats.measures} measure(s) in {stats.wall_seconds:.2f}s"
        )
        print(
            f"kernel:      {stats.kernel_seconds * 1000:.0f} ms "
            f"({stats.cache_hits} cache hit(s), {stats.cache_misses} miss(es))"
        )
        if stats.compute is not None:
            print(_format_compute_stats(stats.compute))
    if store is not None:
        print(f"cache dir:   {store.directory}")
    return 0


def _cmd_degree_effect(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args)
    result = run_degree_effect(
        dataset,
        get_measure(args.measure),
        n=args.n,
        threshold=args.threshold,
        seed=args.seed,
    )
    print(f"dataset: {result.dataset}  measure: {result.measure.upper()}")
    print(
        f"NDCG@{result.n} (eps=inf): degree <= {result.threshold}: "
        f"{result.low_degree_mean:.3f}, degree > {result.threshold}: "
        f"{result.high_degree_mean:.3f}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args)
    measures = [get_measure(name) for name in args.measures]
    cells = run_comparison(
        dataset,
        measures,
        epsilons=[_parse_epsilon(e) for e in args.epsilons],
        n=args.n,
        repeats=args.repeats,
        sample_size=args.sample_size,
        seed=args.seed,
    )
    print(format_comparison_table(cells))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    if getattr(args, "attack_command", None) == "audit":
        return _cmd_attack_audit(args)
    dataset = _resolve_dataset(args)
    measure_name = args.measure
    victim = args.victim
    if victim is None:
        # Pick the first user that actually has preferences to leak.
        for user in dataset.social.users():
            if (
                dataset.preferences.has_user(user)
                and dataset.preferences.user_degree(user) > 0
            ):
                victim = user
                break
    if victim is None:
        print("no user with preference edges found", file=sys.stderr)
        return 1

    non_private = run_attack_experiment(
        dataset.social,
        dataset.preferences,
        victim,
        lambda: SocialRecommender(get_measure(measure_name), n=args.top_n),
        top_n=args.top_n,
    )
    private = run_attack_experiment(
        dataset.social,
        dataset.preferences,
        victim,
        lambda: PrivateSocialRecommender(
            get_measure(measure_name), epsilon=args.epsilon, n=args.top_n,
            seed=args.seed,
        ),
        top_n=args.top_n,
    )
    print(f"Sybil attack against victim {victim!r} "
          f"({len(non_private.actual)} private preference edges)")
    print(
        f"  non-private recommender: recall={non_private.recall:.2f} "
        f"precision={non_private.precision:.2f}"
    )
    print(
        f"  private (eps={args.epsilon:g}):    recall={private.recall:.2f} "
        f"precision={private.precision:.2f}"
    )
    return 0


def _cmd_attack_audit(args: argparse.Namespace) -> int:
    """Run the red-team privacy audit and report empirical vs analytical."""
    import json

    from repro.attacks.audit import format_audit_table, run_privacy_audit

    dataset = _resolve_dataset(args)
    store = None
    if args.cache_dir:
        from repro.cache.store import SimilarityStore

        store = SimilarityStore(args.cache_dir)
    # Dedupe targets preserving order (nargs="+" allows repeats).
    targets = list(dict.fromkeys(args.target))
    report = run_privacy_audit(
        dataset,
        measures=args.measures,
        epsilons=args.eps,
        targets=targets,
        trials=args.trials,
        repeats=args.repeats,
        seed=args.seed,
        store=store,
        louvain_runs=args.louvain_runs,
    )
    if args.json == "-":
        print(json.dumps(report.to_jsonable(), indent=2))
    else:
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(report.to_jsonable(), handle, indent=2)
            print(f"audit report written to {args.json}")
        print(format_audit_table(report))
    violations = report.violations()
    if violations:
        for cell in violations:
            print(
                f"repro: audit violation: {cell.target}/{cell.measure} "
                f"eps={cell.epsilon:g}: empirical {cell.eps_empirical:.4f} > "
                f"analytical {cell.eps_analytical:.4f}",
                file=sys.stderr,
            )
        if args.strict:
            raise PrivacyError(
                f"{len(violations)} audit cell(s) exceed the ledger's "
                f"analytical epsilon"
            )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Print the structural properties the dataset substitution rests on."""
    import numpy as np

    from repro.graph.analysis import (
        average_clustering_coefficient,
        community_size_profile,
        degree_histogram,
        sampled_path_length,
    )

    dataset = _resolve_dataset(args)
    graph = dataset.social
    print(f"dataset: {dataset.name}")
    print(f"users: {graph.num_users:,}   social edges: {graph.num_edges:,}")
    degrees = sorted(graph.degrees().values())
    if degrees:
        print(
            f"degree: min {degrees[0]}, median {degrees[len(degrees) // 2]}, "
            f"mean {graph.average_degree():.1f}, max {degrees[-1]}"
        )
    histogram = degree_histogram(graph)
    low = sum(count for degree, count in histogram.items() if degree <= 10)
    print(f"users with degree <= 10: {low} ({low / max(len(degrees), 1):.0%})")
    print(
        f"avg clustering coefficient: "
        f"{average_clustering_coefficient(graph):.3f}"
    )
    length = sampled_path_length(
        graph, samples=args.path_samples, rng=np.random.default_rng(args.seed)
    )
    print(f"sampled mean path length: {length:.2f}")
    profile = community_size_profile(
        graph, runs=args.louvain_runs, seed=args.seed
    )
    preview = ", ".join(str(s) for s in profile.sizes[:10])
    if len(profile.sizes) > 10:
        preview += ", ..."
    print(
        f"louvain: {profile.num_clusters} communities "
        f"(Q={profile.modularity:.3f}); sizes [{preview}]; "
        f"largest holds {profile.largest_fraction:.1%} of users"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Monte-Carlo check that module A_w's release respects its epsilon."""
    from repro.community.clustering import Clustering
    from repro.core.cluster_weights import noisy_cluster_item_weights
    from repro.graph.preference_graph import PreferenceGraph
    from repro.privacy.validation import estimate_privacy_loss

    size = max(1, args.cluster_size)
    clustering = Clustering([list(range(size))])
    base = PreferenceGraph()
    base.add_users(range(size))
    base.add_edge(0, "item")
    neighbour = base.with_edge(size - 1, "item") if size > 1 else base.copy()
    if size == 1:
        neighbour = base.without_edge(0, "item")

    def mechanism(prefs, rng):
        released = noisy_cluster_item_weights(
            prefs, clustering, args.epsilon, rng=rng
        )
        return released.weight("item", 0)

    estimate = estimate_privacy_loss(
        mechanism, base, neighbour, samples=args.samples, seed=args.seed
    )
    verdict = "OK" if estimate.is_consistent_with(args.epsilon) else "VIOLATION"
    print(
        f"claimed epsilon: {args.epsilon:g}   cluster size: {size}\n"
        f"empirical lower bound: {estimate.epsilon_lower_bound:.4f} "
        f"({estimate.samples} samples, {estimate.buckets_compared} buckets)\n"
        f"verdict: {verdict}"
    )
    return 0 if verdict == "OK" else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ReportConfig, generate_report

    config = ReportConfig(
        lastfm_scale=args.lastfm_scale,
        flixster_scale=args.flixster_scale,
        repeats=args.repeats,
        seed=args.seed,
    )
    report = generate_report(config)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_check_release(args: argparse.Namespace) -> int:
    """Verify a release artifact: integrity, provenance, optional audit."""
    from repro.core.persistence import inspect_release

    provenance = inspect_release(args.path)
    checksum = (
        f"{provenance.checksum[:16]}... (verified)"
        if provenance.checksum_verified
        else "absent (format v1, pre-integrity)"
    )
    epsilon = "inf" if math.isinf(provenance.epsilon) else f"{provenance.epsilon:g}"
    measure = provenance.measure + (
        "" if provenance.measure_registered else "  [NOT REGISTERED in this build]"
    )
    print(f"release:     {provenance.path}")
    print(f"integrity:   OK (format v{provenance.version})")
    print(f"checksum:    {checksum}")
    print(f"epsilon:     {epsilon}")
    print(f"measure:     {measure}")
    print(f"max_weight:  {provenance.max_weight:g}")
    print(
        f"dimensions:  {provenance.num_items} items x "
        f"{provenance.num_clusters} clusters ({provenance.num_users} users)"
    )
    if not args.audit:
        return 0
    if math.isinf(provenance.epsilon):
        print("audit:       skipped (epsilon = inf releases exact averages)")
        return 0

    # Monte-Carlo audit: rerun module A_w at the artifact's claimed
    # epsilon on the smallest neighbouring input that the release's own
    # clustering admits, and bound the empirical privacy loss.
    from repro.community.clustering import Clustering
    from repro.core.cluster_weights import noisy_cluster_item_weights
    from repro.core.persistence import PublishedRelease
    from repro.graph.preference_graph import PreferenceGraph
    from repro.privacy.validation import estimate_privacy_loss

    release = PublishedRelease.load(args.path)
    size = max(1, min(min(release.weights.clustering.sizes(), default=1), 8))
    clustering = Clustering([list(range(size))])
    base = PreferenceGraph()
    base.add_users(range(size))
    base.add_edge(0, "item")
    neighbour = (
        base.with_edge(size - 1, "item") if size > 1 else base.without_edge(0, "item")
    )

    def mechanism(prefs, rng):
        released = noisy_cluster_item_weights(
            prefs,
            clustering,
            release.epsilon,
            rng=rng,
            max_weight=release.max_weight,
        )
        return released.weight("item", 0)

    estimate = estimate_privacy_loss(
        mechanism, base, neighbour, samples=args.samples, seed=args.seed
    )
    verdict = "OK" if estimate.is_consistent_with(release.epsilon) else "VIOLATION"
    print(
        f"audit:       empirical lower bound "
        f"{estimate.epsilon_lower_bound:.4f} vs claimed {epsilon} "
        f"({estimate.samples} samples) -> {verdict}"
    )
    return 0 if verdict == "OK" else 1


def _format_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"  # pragma: no cover - loop always returns


def _cmd_batch(args: argparse.Namespace) -> int:
    """Serve every user's top-N in one batch, printing perf counters."""
    from repro.cache import SimilarityStore
    from repro.core.batch import batch_recommend_all

    dataset = _resolve_dataset(args)
    store = SimilarityStore(args.cache_dir) if args.cache_dir else None
    recommender = PrivateSocialRecommender(
        get_measure(args.measure), epsilon=args.epsilon, n=args.n, seed=args.seed
    )
    recommender.fit(dataset.social, dataset.preferences)
    results = batch_recommend_all(recommender, n=args.n, store=store)
    stats = results.stats
    shard_ms = [f"{s * 1000:.0f}" for s in stats.shard_seconds]
    preview = ", ".join(shard_ms[:8]) + (", ..." if len(shard_ms) > 8 else "")
    print(
        f"served {stats.users_served} users in {stats.wall_seconds:.2f}s "
        f"({stats.rows_per_second:,.0f} rows/s)"
    )
    print(
        f"shards:      {stats.num_shards} "
        f"({stats.fallback_users} zero-signal user(s) on the per-user ladder)"
    )
    if shard_ms:
        print(f"shard wall:  [{preview}] ms")
    print(
        f"kernel:      {stats.kernel_seconds * 1000:.0f} ms "
        f"({stats.cache_hits} cache hit(s), {stats.cache_misses} miss(es))"
    )
    if stats.compute is not None:
        print(_format_compute_stats(stats.compute))
    if store is not None:
        print(f"cache dir:   {store.directory}")
    return 0


def _format_compute_stats(compute) -> str:
    """One summary line for a kernel construction's ComputeStats."""
    stages = ", ".join(
        f"{stage} {seconds * 1000:.0f}ms"
        for stage, seconds in compute.stage_seconds.items()
    )
    line = (
        f"compute:     {compute.measure} kernel, "
        f"{compute.rows} rows at {compute.rows_per_second:,.0f} rows/s"
    )
    if compute.blocks:
        line += f", {compute.blocks} block(s)"
    if stages:
        line += f" [{stages}]"
    return line


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, prune, or warm the persistent similarity-kernel cache."""
    from repro.cache import SimilarityStore

    store = SimilarityStore(args.cache_dir)
    if args.cache_command == "info":
        entries = store.info()
        if not entries:
            print(f"cache {store.directory}: empty")
            return 0
        total = sum(entry.size_bytes for entry in entries)
        print(f"cache {store.directory}: {len(entries)} artifact(s), "
              f"{_format_bytes(total)}")
        import json as _json

        for entry in entries:
            status = "ok" if entry.ok else "CORRUPT"
            try:
                fingerprint = _json.loads(entry.measure)
                params = fingerprint.get("params") or {}
                measure = fingerprint["measure"] + (
                    "(" + ", ".join(f"{k}={v}" for k, v in params.items()) + ")"
                    if params
                    else ""
                )
            except (ValueError, KeyError, TypeError):
                measure = entry.measure
            print(
                f"  {entry.key[:16]}...  {status:>7}  "
                f"{entry.num_users:>6} users  {entry.nnz:>9} nnz  "
                f"{_format_bytes(entry.size_bytes):>10}  {measure}"
            )
        return 0
    if args.cache_command == "prune":
        removed, freed = store.prune(max_bytes=args.max_bytes)
        print(
            f"pruned {removed} artifact(s), freed {_format_bytes(freed)} "
            f"(budget {_format_bytes(args.max_bytes)})"
        )
        return 0
    # warm
    import time as _time

    from repro.cache.store import load_or_build_kernel
    from repro.compute import ComputeStats

    dataset = _resolve_dataset(args)
    for name in args.measures:
        measure = get_measure(name)
        compute_stats = ComputeStats()
        start = _time.perf_counter()
        lookup = load_or_build_kernel(
            dataset.social, measure, store, stats=compute_stats
        )
        elapsed = _time.perf_counter() - start
        state = "hit" if lookup.hit else "computed"
        print(
            f"{name}: {state} in {elapsed:.2f}s "
            f"({lookup.matrix.num_users} users, {lookup.matrix.nnz} nnz) "
            f"-> {lookup.path}"
        )
        if not lookup.hit and compute_stats.measure:
            print("  " + _format_compute_stats(compute_stats))
    stats = store.stats
    print(
        f"cache stats: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.corrupt_recomputed} corrupt artifact(s) recomputed"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect observability data: render a trace or diff two summaries."""
    import json as _json

    from repro import obs

    if args.obs_command == "trend":
        try:
            report = obs.compare_summaries(
                args.current, args.baseline, threshold=args.threshold
            )
        except (OSError, ValueError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        print(f"current:     {args.current}")
        print(f"baseline:    {args.baseline}")
        print(obs.format_trend(report, threshold=args.threshold))
        if args.strict and report.regressions:
            return 1
        return 0

    try:
        snapshot, meta = obs.read_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    wall = meta.get("wall_seconds")
    wall = float(wall) if isinstance(wall, (int, float)) else None
    if args.json:
        print(
            _json.dumps(
                obs.summary_dict(snapshot, wall_seconds=wall, meta=meta),
                indent=2,
            )
        )
        return 0
    command = meta.get("command")
    if command:
        print(f"trace:       {args.path} (command: {command})")
    else:
        print(f"trace:       {args.path}")
    print(obs.format_report(snapshot, wall_seconds=wall))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Distributed sweep queue operations (submit/worker/status/reap)."""
    from repro.dist import (
        SweepQueue,
        SweepSpec,
        SweepWorker,
        dataset_descriptor,
        submit_tradeoff_sweep,
    )

    if args.sweep_command == "submit":
        if args.data_dir:
            descriptor = dataset_descriptor(data_dir=args.data_dir)
        else:
            scale = (
                args.scale if args.dataset == "lastfm" else args.scale * 0.1
            )
            descriptor = dataset_descriptor(
                preset=args.dataset, scale=scale, seed=args.seed
            )
        spec = SweepSpec.build(
            dataset=descriptor,
            measures=args.measures,
            epsilons=[_parse_epsilon(e) for e in args.epsilons],
            ns=args.ns,
            repeats=args.repeats,
            sample_size=args.sample_size,
            louvain_runs=args.louvain_runs,
            seed=args.seed,
            max_attempts=args.max_attempts,
        )
        queue = submit_tradeoff_sweep(args.queue, spec)
        status = queue.status()
        print(f"queue:       {args.queue}")
        print(f"sweep:       {spec.describe()}")
        print(
            f"tasks:       {status.total} cell(s) "
            f"({status.done} already done, {status.pending} pending)"
        )
        print(f"run workers: repro sweep worker --queue {args.queue}")
        return 0
    if args.sweep_command == "worker":
        worker = SweepWorker(
            args.queue,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            max_cells=args.max_cells,
            max_idle_s=args.max_idle,
        )
        print(f"worker {worker.worker_id} attached to {args.queue}")
        stats = worker.run()
        print(
            f"worker done: {stats.cells_completed} cell(s) completed, "
            f"{stats.cells_failed} failed, "
            f"{stats.cells_skipped_cached} already checkpointed, "
            f"{stats.lease_losses} lease(s) lost"
        )
        return 0
    if args.sweep_command == "status":
        queue = SweepQueue(args.queue)
        status = queue.status()
        print(f"queue:       {args.queue}")
        print(
            f"cells:       {status.total} total = {status.done} done, "
            f"{status.pending} pending, {status.leased} leased "
            f"({status.expired} expired), {status.poisoned} poisoned"
        )
        for task_id in queue.task_ids():
            if queue.is_poisoned(task_id):
                record = queue.poison_record(task_id) or {}
                print(
                    f"  poisoned: {task_id} after "
                    f"{record.get('attempts', '?')} attempt(s): "
                    f"{record.get('reason', 'unknown')}"
                )
        return 0
    # reap
    queue = SweepQueue(args.queue)
    reclaimed = queue.reap()
    status = queue.status()
    print(
        f"reaped {reclaimed} expired lease(s); {status.remaining} cell(s) "
        f"remaining ({status.poisoned} poisoned)"
    )
    return 0


def _serve_release(args, dataset):
    """Load (or fit in-process) the release a serve command operates on.

    Returns ``(release, path)`` where ``path`` is None for in-process
    releases.
    """
    from repro.core.persistence import PublishedRelease

    path = getattr(args, "release", None)
    if path:
        release = PublishedRelease.load(
            path, mmap_dir=getattr(args, "mmap_dir", None)
        )
        return release, path
    recommender = PrivateSocialRecommender(
        get_measure(args.measure),
        epsilon=args.epsilon,
        n=getattr(args, "n", 10),
        seed=args.seed,
    )
    recommender.fit(dataset.social, dataset.preferences)
    return PublishedRelease.from_recommender(recommender), None


def _serve_build_server(args, dataset, release, path):
    from repro.serve import (
        AdmissionController,
        AdmissionPolicy,
        HotSwapper,
        RecommendationServer,
        ServerConfig,
        ServingEngine,
    )

    store = None
    if getattr(args, "cache_dir", None):
        from repro.cache import SimilarityStore

        store = SimilarityStore(args.cache_dir)
    engine = ServingEngine(
        release, dataset.social, generation=0, path=path, store=store
    )
    policy = AdmissionPolicy(
        max_queue=getattr(args, "max_queue", 64),
        cluster_at=getattr(args, "cluster_at", 0.5),
        global_at=getattr(args, "global_at", 0.75),
    )
    config = ServerConfig(
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 0),
        n_default=args.n,
        threads=args.threads,
        max_requests=getattr(args, "max_requests", None),
        mmap_dir=getattr(args, "mmap_dir", None),
        deadline_ms=getattr(args, "deadline_ms", None),
        response_cache_size=getattr(args, "response_cache_size", 0),
    )
    return RecommendationServer(
        HotSwapper(engine),
        AdmissionController(policy),
        dataset.social,
        config,
        store=store,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Online serving tier: publish an artifact, run the service, bench it."""
    import asyncio
    import signal

    if args.serve_command == "publish":
        from repro.core.persistence import PublishedRelease

        dataset = _resolve_dataset(args)
        recommender = PrivateSocialRecommender(
            get_measure(args.measure), epsilon=args.epsilon, seed=args.seed
        )
        recommender.fit(dataset.social, dataset.preferences)
        release = PublishedRelease.from_recommender(recommender)
        release.save(args.release)
        weights = release.weights
        epsilon = "inf" if math.isinf(release.epsilon) else f"{release.epsilon:g}"
        print(f"release:     {args.release}")
        print(
            f"provenance:  measure {release.measure_name}, epsilon {epsilon}, "
            f"{len(weights.items)} items x "
            f"{weights.clustering.num_clusters} clusters "
            f"({weights.clustering.num_users} users)"
        )
        return 0

    if args.serve_command == "run":
        dataset = _resolve_dataset(args)
        if getattr(args, "workers", 1) > 1:
            return _cmd_serve_supervisor(args, dataset)
        release, path = _serve_release(args, dataset)
        server = _serve_build_server(args, dataset, release, path)

        async def _run() -> None:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, server.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix platforms / nested loops
            await server.start()
            desc = server.swapper.current.describe()
            print(
                f"serving on http://{server.config.host}:{server.port} "
                f"(generation {desc['generation']}, "
                f"{desc['num_users']} users, {desc['num_items']} items, "
                f"measure {desc['measure']})",
                flush=True,
            )
            await server.serve_until_shutdown()

        asyncio.run(_run())
        tiers = ", ".join(
            f"{tier}={count}"
            for tier, count in sorted(server.tier_counts.items())
        )
        print(
            f"shutdown:    clean ({server.requests_served} request(s) "
            f"served, {server.errors} error(s))"
        )
        print(f"tiers:       [{tiers or 'none'}]")
        print(
            f"admission:   peak depth {server.admission.peak_depth}, "
            f"{server.admission.shed_count} shed"
        )
        return 0

    if args.serve_command == "swap":
        return _cmd_serve_swap(args)

    return _cmd_serve_bench(args)


def _cmd_serve_supervisor(args: argparse.Namespace, dataset) -> int:
    """``serve run --workers N``: the prefork supervisor path."""
    import asyncio
    import signal
    import tempfile

    from repro.serve import (
        AdmissionPolicy,
        ServerConfig,
        ServingSupervisor,
        SupervisorConfig,
    )

    release_path = args.release
    if release_path is None:
        # Workers load the artifact from disk (that is what makes the
        # release pages shareable), so an in-process fit is staged to a
        # temporary artifact first.
        release, _ = _serve_release(args, dataset)
        staging = tempfile.mkdtemp(prefix="repro-serve-")
        release_path = os.path.join(staging, "release.npz")
        release.save(release_path)
        print(f"staged:      in-process fit -> {release_path}")

    supervisor = ServingSupervisor(
        release_path,
        dataset.social,
        server_config=ServerConfig(
            host=args.host,
            port=args.port,
            n_default=args.n,
            threads=args.threads,
            max_requests=args.max_requests,
            mmap_dir=args.mmap_dir,
            deadline_ms=args.deadline_ms,
            response_cache_size=args.response_cache_size,
        ),
        config=SupervisorConfig(
            workers=args.workers,
            socket_mode=args.socket_mode,
            control_port=args.control_port,
        ),
        policy=AdmissionPolicy(
            max_queue=args.max_queue,
            cluster_at=args.cluster_at,
            global_at=args.global_at,
        ),
        cache_dir=args.cache_dir,
    )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, supervisor.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        await supervisor.start()
        print(
            f"serving on http://{args.host}:{supervisor.port} "
            f"({args.workers} workers, "
            f"{supervisor.config.resolved_socket_mode} socket sharing, "
            f"generation {supervisor.generation})",
            flush=True,
        )
        print(
            f"control:     http://{supervisor.config.control_host}:"
            f"{supervisor.control_port} (/stats, /admin/swap, "
            f"/admin/shutdown)",
            flush=True,
        )
        await supervisor.serve_until_shutdown()

    asyncio.run(_run())
    stats = supervisor.final_stats or {}
    workers = stats.get("workers", {})
    tiers = ", ".join(
        f"{tier}={count}"
        for tier, count in sorted(stats.get("tier_counts", {}).items())
    )
    print(
        f"shutdown:    clean ({stats.get('requests_served', 0)} request(s) "
        f"served, {stats.get('errors', 0)} error(s), "
        f"{workers.get('restarts_total', 0)} worker restart(s))"
    )
    print(f"tiers:       [{tiers or 'none'}]")
    print(f"generation:  {stats.get('generation', supervisor.generation)}")
    return 0


def _cmd_serve_swap(args: argparse.Namespace) -> int:
    """``serve swap``: hot-swap a running service to a new artifact."""
    import asyncio
    from urllib.parse import quote

    from repro.serve import http_request_json

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"repro: error: --connect expects HOST:PORT, "
            f"got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    release_path = os.path.abspath(args.release)

    async def _swap():
        return await http_request_json(
            host, port, "POST", f"/admin/swap?path={quote(release_path)}"
        )

    try:
        status, payload = asyncio.run(_swap())
    except (OSError, ValueError) as exc:
        print(f"repro: error: swap request failed: {exc}", file=sys.stderr)
        return 2
    if status != 200:
        print(
            f"repro: error: swap refused (HTTP {status}): "
            f"{payload.get('error', payload)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"swap:        generation {payload['old_generation']} -> "
        f"{payload['new_generation']} ({payload['path']})"
    )
    if "workers_swapped" in payload:
        print(
            f"workers:     {payload['workers_swapped']} swapped in place, "
            f"{payload['workers_replaced']} replaced"
        )
    else:
        print(
            f"drain:       {payload['inflight_at_flip']} in flight at flip, "
            f"drained={payload['drained']} "
            f"in {payload['drain_seconds']:.3f}s"
        )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import time as _time

    from repro.serve import (
        LoadgenConfig,
        LoadGenerator,
        http_get_json,
        http_request_json,
        run_multiprocess,
    )

    dataset = _resolve_dataset(args)
    users = sorted(dataset.social.users())
    clients = getattr(args, "clients", 1)
    if clients > 1 and not args.connect:
        print(
            "repro: error: --clients > 1 requires --connect (the forked "
            "client processes would starve a self-hosted server's loop)",
            file=sys.stderr,
        )
        return 2

    # One (label, offered_rate, config) row per load run: a single run
    # for the plain bench, one open-loop run per offered rate for the
    # --capacity sweep.  With several client processes each offers its
    # share of the rate, so the union stream matches the labelled rate.
    if args.capacity:
        if args.rates:
            try:
                rates = [
                    float(r) for r in args.rates.split(",") if r.strip()
                ]
            except ValueError:
                print(
                    f"repro: error: --rates expects comma-separated "
                    f"numbers, got {args.rates!r}",
                    file=sys.stderr,
                )
                return 2
        else:
            rates = [args.rate * m for m in (0.25, 0.5, 1.0, 2.0, 4.0)]
        if not rates or any(not 0 < rate < math.inf for rate in rates):
            print(
                "repro: error: --capacity needs at least one offered rate, "
                "each finite and > 0",
                file=sys.stderr,
            )
            return 2
        runs = [
            (
                f"{rate:g}",
                rate,
                LoadgenConfig(
                    requests=args.requests,
                    mode="open",
                    concurrency=args.concurrency,
                    rate=rate / clients,
                    n=args.n,
                    seed=args.seed,
                ),
            )
            for rate in rates
        ]
    else:
        runs = [
            (
                args.mode,
                None,
                LoadgenConfig(
                    requests=args.requests,
                    mode=args.mode,
                    concurrency=args.concurrency,
                    rate=args.rate / clients,
                    n=args.n,
                    seed=args.seed,
                ),
            )
        ]

    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            print(
                f"repro: error: --connect expects HOST:PORT, "
                f"got {args.connect!r}",
                file=sys.stderr,
            )
            return 2

        async def _wait_ready():
            deadline = _time.monotonic() + args.wait_ready
            while True:
                try:
                    status, _ = await http_get_json(host, port, "/health")
                    if status == 200:
                        return
                except (OSError, ValueError):
                    pass
                if _time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"server at {host}:{port} not ready within "
                        f"{args.wait_ready:g}s"
                    )
                await asyncio.sleep(0.1)

        try:
            asyncio.run(_wait_ready())
        except ConnectionError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        reports = []
        for label, rate, config in runs:
            if clients > 1:
                report = run_multiprocess(
                    host, port, users, config, clients=clients
                )
            else:
                report = LoadGenerator(users, config).run(host, port)
            reports.append((label, rate, report))
        if args.shutdown:
            asyncio.run(
                http_request_json(host, port, "POST", "/admin/shutdown")
            )
        target = f"{host}:{port}"
    else:
        release, path = _serve_release(args, dataset)
        server = _serve_build_server(args, dataset, release, path)

        async def _bench_selfhost():
            await server.start()
            out = []
            for label, rate, config in runs:
                report = await LoadGenerator(users, config).run_async(
                    "127.0.0.1", server.port
                )
                out.append((label, rate, report))
            server.request_shutdown()
            await server.serve_until_shutdown()
            return out

        reports = asyncio.run(_bench_selfhost())
        target = "self-hosted"

    if args.capacity:
        print(
            f"capacity:    open-loop sweep, {args.requests} request(s) per "
            f"rate, {clients} client(s), seed {args.seed}, target {target}"
        )
        header = (
            f"{'offered/s':>10}  {'achieved/s':>10}  {'p50 ms':>8}  "
            f"{'p99 ms':>8}  {'errors':>6}  tiers"
        )
        print(header)
        for label, rate, report in reports:
            tiers = ", ".join(
                f"{tier}={count}"
                for tier, count in sorted(report.tier_counts().items())
            )
            print(
                f"{rate:>10g}  {report.qps:>10.1f}  {report.p50_ms:>8.2f}  "
                f"{report.p99_ms:>8.2f}  {report.error_count:>6}  "
                f"[{tiers or 'none'}]"
            )
    else:
        _label, _rate, report = reports[0]
        print(
            f"loadgen:     {args.mode} loop, {args.requests} request(s), "
            f"{clients} client(s), seed {args.seed}, target {target}"
        )
        print(f"result:      {report.summary()}")
        print(f"p50:         {report.p50_ms:.2f} ms")
        print(f"p99:         {report.p99_ms:.2f} ms")
        print(f"qps:         {report.qps:,.1f}")
    if args.expect_tier is not None:
        served = sum(
            report.tier_counts().get(args.expect_tier, 0)
            for _label, _rate, report in reports
        )
        errors = sum(report.error_count for _l, _r, report in reports)
        if served == 0 or errors:
            print(
                f"repro: error: expected tier {args.expect_tier!r} "
                f"(served {served} of it, {errors} error(s))",
                file=sys.stderr,
            )
            return 1
        print(
            f"expect-tier: OK ({served} response(s) from "
            f"{args.expect_tier!r}, 0 errors)"
        )
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "tradeoff": _cmd_tradeoff,
    "degree-effect": _cmd_degree_effect,
    "compare": _cmd_compare,
    "attack": _cmd_attack,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "check-release": _cmd_check_release,
    "batch": _cmd_batch,
    "cache": _cmd_cache,
    "obs": _cmd_obs,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.exceptions.ReproError`) are reported
    as one short stderr line and mapped to a family-specific exit code;
    anything else is a bug and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    command = args.command
    subcommand = getattr(args, f"{command}_command", None)
    if subcommand:
        command = f"{command}.{subcommand}"
    try:
        with _profiled(command, getattr(args, "profile", None)):
            return _COMMANDS[args.command](args)
    except ReproError as exc:
        for family, code in EXIT_CODES:
            if isinstance(exc, family):
                print(f"repro: error: {exc}", file=sys.stderr)
                return code
        raise  # unreachable: ReproError is the last entry


if __name__ == "__main__":
    sys.exit(main())
