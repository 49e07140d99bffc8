"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

One module per command family registers its commands:

- :mod:`~repro.cli.experiments` — the paper's tables and figures:
  ``stats``, ``tradeoff``, ``degree-effect``, ``compare``, ``report``,
  ``analyze``;
- :mod:`~repro.cli.privacy` — ``attack`` (and ``attack audit``),
  ``validate``, ``check-release``;
- :mod:`~repro.cli.batch` — ``batch`` and ``cache {info,prune,warm}``;
- :mod:`~repro.cli.obs` — ``obs {report,trend}``;
- :mod:`~repro.cli.sweep` — ``sweep {submit,worker,status,reap}``;
- :mod:`~repro.cli.serve` — ``serve {publish,run,swap,bench}``.

Options more than one command takes are defined once, with one
parse-time type, in :mod:`~repro.cli.options`, so a bad value is a usage
error (exit 2) before any work starts.  Each command's parser names the
function that runs it (``set_defaults(run=...)``).

``tradeoff``, ``batch``, and ``cache warm`` run under an active
:mod:`repro.obs` registry and print their work counters from it;
``--profile[=PATH]`` also writes a JSON-lines trace plus a BENCH-style
summary (spans, counters, the privacy ledger) next to it — see
``docs/observability.md``.

All commands operate on the synthetic datasets (``--dataset lastfm`` /
``flixster`` with ``--scale``), or on a real crawl directory via
``--data-dir`` (HetRec two-file layout).

Library failures exit with a short message on stderr and a distinct
code per failure family (see ``EXIT_CODES``) instead of a traceback;
programming errors still propagate with a full traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.cli import batch, experiments, obs, privacy, serve, sweep
from repro.exceptions import (
    DatasetError,
    ExperimentError,
    PrivacyError,
    ReleaseIntegrityError,
    ReproError,
    RetryExhaustedError,
)

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

#: Commands that print their work counters from the registry, so they
#: run under one whether or not ``--profile`` asks for a trace.
_COUNTING_COMMANDS = ("tradeoff", "batch", "cache.warm")


@contextmanager
def _profiled(command: str, trace_path: Optional[str]):
    """Run a CLI command body under an active telemetry registry.

    The counting commands always run under one; the others only when
    ``trace_path`` is given.  The body runs inside a root
    ``cli.<command>`` span.  With a ``trace_path``, on exit (even a
    failing one) the trace and its summary are written and the human
    report printed, so a crashed run still leaves its telemetry behind.
    """
    if not trace_path and command not in _COUNTING_COMMANDS:
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
        if trace_path:
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
    for add_command in (
        experiments.add_stats,
        experiments.add_tradeoff,
        experiments.add_degree_effect,
        experiments.add_compare,
        privacy.add_attack,
        experiments.add_analyze,
        privacy.add_validate,
        experiments.add_report,
        privacy.add_check_release,
        batch.add_batch,
        batch.add_cache,
        obs.add_obs,
        sweep.add_sweep,
        serve.add_serve,
    ):
        add_command(sub)
    return parser


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
            return args.run(args)
    except ReproError as exc:
        for family, code in EXIT_CODES:
            if isinstance(exc, family):
                print(f"repro: error: {exc}", file=sys.stderr)
                return code
        raise  # unreachable: ReproError is the last entry
