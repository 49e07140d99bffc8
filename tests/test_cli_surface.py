"""The CLI's surface: its option inventory, entry points and usage errors.

The inventory pins every (command, flag) pair with its dest and default
(165 pairs over 63 distinct flags), so moving an option's definition
between modules cannot add, drop or change one.  Defaults are parsed
values: ``--epsilons`` defaults are floats, as the command receives them.
"""

import argparse
import math
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

INF = math.inf
DATASET = [
    ("--dataset", "dataset", "lastfm"),
    ("--scale", "scale", 0.2),
    ("--data-dir", "data_dir", None),
    ("--seed", "seed", 0),
]
PROFILE = [("--profile", "profile", None)]
INVENTORY = {
    "stats": DATASET,
    "tradeoff": DATASET + [
        ("--measures", "measures", ["cn", "aa", "gd", "kz"]),
        ("--epsilons", "epsilons", [INF, 1.0, 0.6, 0.1, 0.05, 0.01]),
        ("--ns", "ns", [10, 50, 100]),
        ("--repeats", "repeats", 5),
        ("--sample-size", "sample_size", None),
        ("--checkpoint", "checkpoint", None),
        ("--cache-dir", "cache_dir", None),
    ] + PROFILE,
    "degree-effect": DATASET + [
        ("--measure", "measure", "cn"),
        ("--n", "n", 50),
        ("--threshold", "threshold", 10),
    ],
    "compare": DATASET + [
        ("--measures", "measures", ["cn"]),
        ("--epsilons", "epsilons", [1.0, 0.1]),
        ("--n", "n", 50),
        ("--repeats", "repeats", 3),
        ("--sample-size", "sample_size", None),
    ],
    "attack": DATASET + [
        ("--measure", "measure", "cn"),
        ("--epsilon", "epsilon", 0.5),
        ("--victim", "victim", None),
        ("--top-n", "top_n", 50),
    ],
    "attack audit": DATASET + [
        ("--measures", "measures", ["cn"]),
        ("--eps", "eps", [0.1, 0.5, 1.0, 2.0]),
        ("--target", "target", ["private", "nou", "noe"]),
        ("--trials", "trials", 1000),
        ("--repeats", "repeats", 3),
        ("--louvain-runs", "louvain_runs", 5),
        ("--cache-dir", "cache_dir", None),
        ("--json", "json", None),
        ("--strict", "strict", False),
    ] + PROFILE,
    "analyze": DATASET + [
        ("--path-samples", "path_samples", 30),
        ("--louvain-runs", "louvain_runs", 5),
    ],
    "validate": [
        ("--epsilon", "epsilon", 0.5),
        ("--cluster-size", "cluster_size", 4),
        ("--samples", "samples", 60000),
        ("--seed", "seed", 0),
    ],
    "report": [
        ("--lastfm-scale", "lastfm_scale", 0.15),
        ("--flixster-scale", "flixster_scale", 0.008),
        ("--repeats", "repeats", 3),
        ("--seed", "seed", 0),
        ("--output", "output", None),
    ],
    "check-release": [
        ("--audit", "audit", False),
        ("--samples", "samples", 30000),
        ("--seed", "seed", 0),
    ],
    "batch": DATASET + [
        ("--measure", "measure", "cn"),
        ("--epsilon", "epsilon", 0.5),
        ("--n", "n", 10),
        ("--cache-dir", "cache_dir", None),
    ] + PROFILE,
    "cache info": [
        ("--cache-dir", "cache_dir", None),
    ],
    "cache prune": [
        ("--cache-dir", "cache_dir", None),
        ("--max-bytes", "max_bytes", 0),
    ],
    "cache warm": DATASET + [
        ("--cache-dir", "cache_dir", None),
        ("--measures", "measures", ["cn", "aa", "gd", "kz"]),
    ] + PROFILE,
    "obs report": [
        ("--json", "json", False),
    ],
    "obs trend": [
        ("--threshold", "threshold", 0.25),
        ("--strict", "strict", False),
    ],
    "sweep submit": DATASET + [
        ("--queue", "queue", None),
        ("--measures", "measures", ["cn", "aa", "gd", "kz"]),
        ("--epsilons", "epsilons", [INF, 1.0, 0.6, 0.1, 0.05, 0.01]),
        ("--ns", "ns", [10, 50, 100]),
        ("--repeats", "repeats", 5),
        ("--sample-size", "sample_size", None),
        ("--louvain-runs", "louvain_runs", 10),
        ("--max-attempts", "max_attempts", 3),
    ],
    "sweep worker": [
        ("--queue", "queue", None),
        ("--worker-id", "worker_id", None),
        ("--lease-ttl", "lease_ttl", 30.0),
        ("--max-cells", "max_cells", None),
        ("--max-idle", "max_idle", None),
    ],
    "sweep status": [
        ("--queue", "queue", None),
    ],
    "sweep reap": [
        ("--queue", "queue", None),
    ],
    "serve publish": DATASET + [
        ("--measure", "measure", "cn"),
        ("--epsilon", "epsilon", 0.5),
        ("--release", "release", None),
    ],
    "serve run": DATASET + [
        ("--release", "release", None),
        ("--measure", "measure", "cn"),
        ("--epsilon", "epsilon", 0.5),
        ("--host", "host", "127.0.0.1"),
        ("--port", "port", 0),
        ("--n", "n", 10),
        ("--threads", "threads", 4),
        ("--max-queue", "max_queue", 64),
        ("--cluster-at", "cluster_at", 0.5),
        ("--global-at", "global_at", 0.75),
        ("--max-requests", "max_requests", None),
        ("--deadline-ms", "deadline_ms", None),
        ("--mmap-dir", "mmap_dir", None),
        ("--cache-dir", "cache_dir", None),
        ("--workers", "workers", 1),
        ("--control-port", "control_port", 0),
        ("--response-cache-size", "response_cache_size", 0),
        ("--socket-mode", "socket_mode", "auto"),
    ] + PROFILE,
    "serve swap": [
        ("--connect", "connect", None),
        ("--release", "release", None),
    ],
    "serve bench": DATASET + [
        ("--connect", "connect", None),
        ("--measure", "measure", "cn"),
        ("--epsilon", "epsilon", 0.5),
        ("--requests", "requests", 200),
        ("--mode", "mode", "closed"),
        ("--concurrency", "concurrency", 8),
        ("--rate", "rate", 200.0),
        ("--n", "n", 10),
        ("--threads", "threads", 4),
        ("--expect-tier", "expect_tier", None),
        ("--capacity", "capacity", False),
        ("--rates", "rates", None),
        ("--clients", "clients", 1),
        ("--shutdown", "shutdown", False),
        ("--wait-ready", "wait_ready", 30.0),
    ] + PROFILE,
}


def _options(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, path + (name,))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            for flag in action.option_strings:
                yield " ".join(path), flag, action.dest, action.default


def test_every_option_keeps_its_dest_and_default():
    found = {}
    for command, flag, dest, default in _options(build_parser()):
        found.setdefault(command, []).append((flag, dest, default))
    assert found == INVENTORY
    assert sum(len(rows) for rows in found.values()) == 165
    assert len({row[0] for rows in found.values() for row in rows}) == 63


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_python_m_entry_points(module):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: repro ")
    assert "check-release" in result.stdout


def test_console_script_target_is_importable():
    # pyproject.toml: [project.scripts] repro = "repro.cli:main"
    from importlib import import_module

    assert import_module("repro.cli").main is main


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail any command that gets past its flags."""
    from repro.cli import options
    from repro.core import persistence

    def ran(*_args, **_kwargs):
        raise AssertionError("the command ran past its flag check")

    monkeypatch.setattr(options, "resolve_dataset", ran)
    monkeypatch.setattr(persistence, "inspect_release", ran)
    monkeypatch.setattr(persistence.PublishedRelease, "load", ran)


BAD_FLAGS = [
    (["tradeoff", "--ns", "0"], "--ns"),
    (["tradeoff", "--epsilons", "abc"], "--epsilons"),
    (["compare", "--epsilons", "abc"], "--epsilons"),
    (["compare", "--n", "0"], "--n"),
    (["degree-effect", "--n", "0"], "--n"),
    (["degree-effect", "--threshold", "-5"], "--threshold"),
    (["attack", "--top-n", "0"], "--top-n"),
    (["sweep", "submit", "--queue", "{tmp}/q", "--epsilons", "abc"], "--epsilons"),
    (["sweep", "submit", "--queue", "{tmp}/q", "--ns", "0"], "--ns"),
    (["sweep", "submit", "--queue", "{tmp}/q", "--repeats", "0"], "--repeats"),
    (["validate", "--samples", "0"], "--samples"),
    (["check-release", "{tmp}/r.npz", "--audit", "--samples", "0"], "--samples"),
    (["analyze", "--path-samples", "0"], "--path-samples"),
    (["cache", "prune", "--cache-dir", "{tmp}/d", "--max-bytes", "-5"], "--max-bytes"),
    (["serve", "run", "--release", "{tmp}/r", "--deadline-ms", "nan"], "--deadline-ms"),
    (
        ["serve", "run", "--release", "{tmp}/r", "--response-cache-size", "-1"],
        "--response-cache-size",
    ),
    (["serve", "run", "--release", "{tmp}/r", "--port", "70000"], "--port"),
    (
        ["serve", "run", "--release", "{tmp}/r", "--workers", "2"]
        + ["--control-port", "-3"],
        "--control-port",
    ),
]


@pytest.mark.parametrize(
    "argv, flag",
    BAD_FLAGS,
    ids=[" ".join(arg for arg in argv if "{tmp}" not in arg) for argv, _ in BAD_FLAGS],
)
def test_bad_flag_is_a_usage_error(argv, flag, tmp_path, nothing_runs, capsys):
    # Each of these once died with a traceback, or wrote a queue of cells
    # no worker can run, after building the dataset.
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []
