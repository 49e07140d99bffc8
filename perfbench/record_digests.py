#!/usr/bin/env python3
"""Record the ``sweep`` cell digests that ``run.py`` checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py 0 1 2 3

Runs ``run_tradeoff`` once per seed with the ``sweep`` workload's
configuration and writes the digest of its cells into
``perfbench/digests.json``.  Rerun it only when a change is meant to
alter the sweep's numbers.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402

harness.pin_threads()

import offline  # noqa: E402


def main(argv) -> int:
    with open(os.path.join(HERE, "workloads.json")) as handle:
        cfg = json.load(handle)["sweep"]
    path = os.path.join(HERE, "digests.json")
    with open(path) as handle:
        digests = json.load(handle)
    for seed in (int(arg) for arg in argv):
        dataset = offline._generate(cfg, cfg["dataset_seed"])
        cells, _draws = offline._sweep_op(cfg, seed, dataset)()
        digests["sweep"][str(seed)] = offline._sweep_summary(cells)["digest"]
        print(f"seed {seed}: {digests['sweep'][str(seed)]}")
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
