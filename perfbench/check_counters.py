#!/usr/bin/env python3
"""Check that work counters repeat exactly and that a held-out seed runs clean.

Usage, from the root of a checkout::

    python3 perfbench/check_counters.py --seed 1 --held-out 7 --seconds 15

For each workload this runs ``perfbench/run.py --trace 1`` twice at
``--seed`` and requires every per-layer metric counted in ``count`` units
to be identical across the two runs, except the serve counters that
depend on how concurrent requests interleave with hot swaps (listed in
``RACY``).  It then runs ``--trace 0`` once at ``--held-out`` and
requires a correct result.  Exits 1 on any difference or failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Serve counters whose value depends on which generation a request
#: racing a swap lands in, or on how many requests overlap.
RACY = {"serve.rescache_lookups", "serve.depth_peak"}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "workloads.json")) as handle:
        workloads = args.workloads or list(json.load(handle))

    ok = True
    for workload in workloads:
        first, second = (_run(workload, args.seed, args.seconds, 1) for _ in range(2))
        counts = sorted(
            name for name, metric in first["metrics"].items() if metric["unit"] == "count"
        )
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a == b == 0:
                continue  # a layer this workload never enters
            exact = name not in RACY
            if exact and a != b:
                ok = False
            status = "ok" if a == b else ("DIFFERS" if exact else "differs (racy, not gated)")
            print(f"{workload:6} {name:28} {a!s:>10} {b!s:>10}  {status}")
        held_out = _run(workload, args.held_out, args.seconds, 0)
        clean = held_out["correct"] and first["correct"] and second["correct"]
        ok = ok and clean
        print(
            f"{workload:6} seed {args.seed} traced twice, held-out seed {args.held_out}: "
            f"{'clean' if clean else 'FAILED'} ({held_out['failed']} of "
            f"{held_out['attempted']} failed)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
