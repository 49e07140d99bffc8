"""The paper's experiments: ``stats``, ``tradeoff``, ``degree-effect``,
``compare``, ``report`` and ``analyze``."""

from __future__ import annotations

import argparse
import math

from repro.cli import options
from repro.cli.batch import print_kernel_lines, span_seconds
from repro.datasets.stats import dataset_stats, format_stats_table
from repro.experiments.comparison import format_comparison_table, run_comparison
from repro.experiments.degree_effect import run_degree_effect
from repro.experiments.tradeoff import format_tradeoff_table, run_tradeoff
from repro.similarity.base import get_measure


def add_stats(sub) -> None:
    p_stats = sub.add_parser("stats", help="Table 1-style dataset summary")
    options.add_dataset_arguments(p_stats)
    p_stats.set_defaults(run=_cmd_stats)


def add_tradeoff(sub) -> None:
    p_trade = sub.add_parser("tradeoff", help="Figure 1/2 accuracy-vs-epsilon sweep")
    options.add_dataset_arguments(p_trade)
    options.add_measures(
        p_trade, default=["cn", "aa", "gd", "kz"],
        help="similarity measures (default: cn aa gd kz)",
    )
    options.add_epsilons(
        p_trade, default=[math.inf, 1.0, 0.6, 0.1, 0.05, 0.01],
        help="privacy settings; 'inf' means no noise",
    )
    options.add_ns(p_trade, default=[10, 50, 100])
    options.add_repeats(p_trade, default=5)
    options.add_sample_size(p_trade)
    p_trade.add_argument(
        "--checkpoint",
        default=None,
        help="JSON-lines checkpoint file; completed cells are skipped on "
        "rerun, so a killed sweep resumes where it stopped",
    )
    options.add_cache_dir(
        p_trade, help="persist/reuse similarity kernels in this directory"
    )
    options.add_profile_argument(p_trade)
    p_trade.set_defaults(run=_cmd_tradeoff)


def add_degree_effect(sub) -> None:
    p_degree = sub.add_parser("degree-effect", help="Figure 3 degree analysis")
    options.add_dataset_arguments(p_degree)
    options.add_measure(p_degree)
    options.add_n(p_degree, default=50)
    p_degree.add_argument("--threshold", type=options.nonnegative_int, default=10)
    p_degree.set_defaults(run=_cmd_degree_effect)


def add_compare(sub) -> None:
    p_cmp = sub.add_parser("compare", help="Figure 4 mechanism comparison")
    options.add_dataset_arguments(p_cmp)
    options.add_measures(p_cmp, default=["cn"])
    options.add_epsilons(p_cmp, default=[1.0, 0.1])
    options.add_n(p_cmp, default=50)
    options.add_repeats(p_cmp, default=3)
    options.add_sample_size(p_cmp)
    p_cmp.set_defaults(run=_cmd_compare)


def add_analyze(sub) -> None:
    p_analyze = sub.add_parser(
        "analyze", help="structural analysis of a dataset's social graph"
    )
    options.add_dataset_arguments(p_analyze)
    p_analyze.add_argument("--path-samples", type=options.positive_int, default=30)
    options.add_louvain_runs(p_analyze, default=5)
    p_analyze.set_defaults(run=_cmd_analyze)


def add_report(sub) -> None:
    p_report = sub.add_parser(
        "report", help="regenerate every table and figure as one markdown report"
    )
    p_report.add_argument("--lastfm-scale", type=float, default=0.15)
    p_report.add_argument("--flixster-scale", type=float, default=0.008)
    options.add_repeats(p_report, default=3)
    options.add_seed(p_report)
    p_report.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )
    p_report.set_defaults(run=_cmd_report)


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = options.resolve_dataset(args)
    print(format_stats_table([dataset_stats(dataset)]))
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.cache import SimilarityStore

    dataset = options.resolve_dataset(args)
    measures = [get_measure(name) for name in args.measures]
    store = SimilarityStore(args.cache_dir) if args.cache_dir else None
    cells = run_tradeoff(
        dataset,
        measures,
        epsilons=args.epsilons,
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
    snapshot = obs.get_telemetry().snapshot()
    counters = snapshot.counters
    cell_count = counters.get("engine.cells", 0)
    repeats = counters.get("engine.repeats", 0)
    measure_count = counters.get("engine.measures", 0)
    print(
        f"engine:      {cell_count} cell(s) x {repeats} repeat(s) "
        f"over {measure_count} measure(s) in "
        f"{span_seconds(snapshot, 'engine.evaluate_many'):.2f}s"
    )
    print_kernel_lines(snapshot, "engine.kernel", store)
    return 0


def _cmd_degree_effect(args: argparse.Namespace) -> int:
    dataset = options.resolve_dataset(args)
    result = run_degree_effect(
        dataset,
        get_measure(args.measure),
        n=args.n,
        threshold=args.threshold,
        seed=args.seed,
    )
    threshold = result.threshold
    low = sum(1 for _user, degree, _ndcg in result.points if degree <= threshold)
    groups = [
        (f"degree <= {threshold}", result.low_degree_mean, low),
        (f"degree > {threshold}", result.high_degree_mean, len(result.points) - low),
    ]
    summary = ", ".join(
        f"{label}: {mean:.3f} ({users} users)" if users else f"{label}: no users"
        for label, mean, users in groups
    )
    print(f"dataset: {result.dataset}  measure: {result.measure.upper()}")
    print(f"NDCG@{result.n} (eps=inf): {summary}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = options.resolve_dataset(args)
    measures = [get_measure(name) for name in args.measures]
    cells = run_comparison(
        dataset,
        measures,
        epsilons=args.epsilons,
        n=args.n,
        repeats=args.repeats,
        sample_size=args.sample_size,
        seed=args.seed,
    )
    print(format_comparison_table(cells))
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

    dataset = options.resolve_dataset(args)
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
