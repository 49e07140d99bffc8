"""Recorded observability data: ``obs report`` renders a trace, ``obs
trend`` diffs two BENCH-style summaries."""

from __future__ import annotations

import argparse
import json

from repro.cli import options
from repro.exceptions import ReproError


def add_obs(sub) -> None:
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
    p_obs_report.set_defaults(run=_cmd_obs_report)
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
        type=options.positive_float,
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
    p_obs_trend.set_defaults(run=_cmd_obs_trend)


def _cmd_obs_trend(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        report = obs.compare_summaries(
            args.current, args.baseline, threshold=args.threshold
        )
    except (OSError, ValueError) as exc:
        raise ReproError(str(exc)) from exc
    print(f"current:     {args.current}")
    print(f"baseline:    {args.baseline}")
    print(obs.format_trend(report, threshold=args.threshold))
    if args.strict and report.regressions:
        return 1
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        snapshot, meta = obs.read_trace(args.path)
    except (OSError, ValueError) as exc:
        raise ReproError(str(exc)) from exc
    wall = meta.get("wall_seconds")
    wall = float(wall) if isinstance(wall, (int, float)) else None
    if args.json:
        print(
            json.dumps(
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
