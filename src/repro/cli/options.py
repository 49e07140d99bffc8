"""The options more than one command takes, each defined once.

Every option here has one parse-time type, so a bad value is a usage
error (exit 2, naming the flag) before any dataset is built, release
loaded or queue written.  Where commands differ, the default,
``required=`` and help text are parameters; the type never is.
"""

from __future__ import annotations

import argparse
import math
from typing import Tuple

from repro.datasets.dataset import SocialRecDataset
from repro.datasets.loader import load_dataset_directory
from repro.datasets.synthetic import SyntheticDatasetSpec
from repro.exceptions import InvalidEpsilonError
from repro.privacy.mechanisms import validate_epsilon
from repro.similarity.base import list_measures


def positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


# Every float check is written so that NaN, which fails every
# comparison, is rejected too.
def positive_float(value: str) -> float:
    parsed = float(value)
    if not 0 < parsed < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return parsed


def nonnegative_float(value: str) -> float:
    parsed = float(value)
    if not 0 <= parsed < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return parsed


def fraction(value: str) -> float:
    parsed = float(value)
    if not 0 < parsed <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return parsed


def epsilon(value: str) -> float:
    """A privacy parameter: a positive number, or ``inf`` for no noise."""
    try:
        return validate_epsilon(float(value))
    except InvalidEpsilonError:
        raise argparse.ArgumentTypeError(f"must be > 0 or inf, got {value}") from None


def measure(value: str) -> str:
    """The name of a registered similarity measure, as given."""
    known = list_measures()
    if value.lower() not in known:
        raise argparse.ArgumentTypeError(
            f"unknown similarity measure {value!r}; known measures: "
            f"{', '.join(known)}"
        )
    return value


def port(value: str) -> int:
    parsed = int(value)
    if not 0 <= parsed <= 65535:
        raise argparse.ArgumentTypeError(f"must be in [0, 65535], got {parsed}")
    return parsed


def host_port(value: str) -> Tuple[str, int]:
    host, _, port_text = value.rpartition(":")
    try:
        return host, port(port_text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expects HOST:PORT, got {value!r}") from None


def _option(flag: str, **fixed):
    """The function that adds ``flag`` to a parser.

    ``fixed`` holds what every command shares, the type above all; a
    command passes what differs (``default``, ``required``, ``help``).
    Passing a fixed setting again is a ``TypeError``.
    """

    def add(parser: argparse.ArgumentParser, **varying) -> None:
        parser.add_argument(flag, **fixed, **varying)

    return add


add_seed = _option("--seed", type=nonnegative_int, default=0)
add_measure = _option("--measure", type=measure, default="cn")
add_measures = _option("--measures", nargs="+", type=measure)
add_epsilon = _option("--epsilon", type=epsilon, default=0.5)
add_epsilons = _option("--epsilons", nargs="+", type=epsilon)
add_n = _option("--n", type=positive_int)
add_ns = _option("--ns", nargs="+", type=positive_int)
add_repeats = _option("--repeats", type=positive_int)
add_sample_size = _option("--sample-size", type=positive_int, default=None)
add_samples = _option("--samples", type=positive_int)
add_louvain_runs = _option("--louvain-runs", type=positive_int)
add_cache_dir = _option("--cache-dir", default=None)
add_queue = _option("--queue", required=True, help="queue directory")
add_release = _option("--release", default=None)
add_threads = _option("--threads", type=positive_int, default=4)
add_connect = _option("--connect", type=host_port, default=None, metavar="HOST:PORT")


def add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
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
    add_seed(parser, help="master seed")


def preset_scale(args: argparse.Namespace) -> float:
    """The synthetic preset's own scale for ``--dataset``/``--scale``.

    For flixster, ``--scale`` is relative to the preset's laptop-sized
    default of 0.1, a tenth of the 137K-user crawl.
    """
    return args.scale if args.dataset == "lastfm" else args.scale * 0.1


def resolve_dataset(args: argparse.Namespace) -> SocialRecDataset:
    """The dataset the dataset-group arguments name."""
    if args.data_dir:
        return load_dataset_directory(args.data_dir)
    if args.dataset == "lastfm":
        spec = SyntheticDatasetSpec.lastfm_like(scale=preset_scale(args))
    else:
        spec = SyntheticDatasetSpec.flixster_like(scale=preset_scale(args))
    return spec.generate(seed=args.seed)


DEFAULT_PROFILE_PATH = "repro-obs.jsonl"


def add_profile_argument(parser: argparse.ArgumentParser) -> None:
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
