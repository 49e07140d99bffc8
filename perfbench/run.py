#!/usr/bin/env python3
"""End-to-end benchmark of the sweep, batch, serve and audit paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Runs one workload (see ``perfbench/workloads.json``) against the
``repro`` package under ``src/`` of the checkout, prints a readable
report and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, measured from a separate,
traced run.  Exits non-zero without a result when the checkout holds no
``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    with open(os.path.join(HERE, "workloads.json")) as handle:
        workloads = json.load(handle)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    harness.pin_threads()

    cfg = workloads[args.workload]
    trace = bool(args.trace)
    if args.workload == "serve":
        import serving

        result = serving.run(cfg, args.seed, args.seconds, trace, ROOT)
    else:
        import offline

        result = offline.run(args.workload, cfg, args.seed, args.seconds, trace)

    declared = _declared_metrics(trace)
    for name, (_value, unit) in result.metrics.items():
        if declared.get(name) != unit:
            print(f"perfbench: undeclared metric {name} [{unit}]", file=sys.stderr)
            return 3
    missing = [name for name in declared if name not in result.metrics]
    if not trace and missing:
        print(f"perfbench: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 3
    # A per-layer metric of a layer this workload never enters reads 0.
    metrics = {name: result.metrics.get(name, (0, unit)) for name, unit in declared.items()}
    result.metrics = metrics
    for line in result.report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(result.to_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
