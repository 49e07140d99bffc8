"""Privacy checks: ``attack`` (and ``attack audit``), ``validate`` and
``check-release``."""

from __future__ import annotations

import argparse
import math
import sys

from repro.cli import options
from repro.exceptions import PrivacyError
from repro.similarity.base import get_measure


def add_attack(sub) -> None:
    p_attack = sub.add_parser(
        "attack", help="Section 2.3 Sybil attack demo / privacy audit suite"
    )
    options.add_dataset_arguments(p_attack)
    options.add_measure(p_attack)
    options.add_epsilon(p_attack)
    p_attack.add_argument("--victim", type=int, default=None)
    p_attack.add_argument("--top-n", type=options.positive_int, default=50)
    p_attack.set_defaults(run=_cmd_attack)
    attack_sub = p_attack.add_subparsers(dest="attack_command")
    p_audit = attack_sub.add_parser(
        "audit",
        help="red-team audit: empirical epsilon lower bounds vs the ledger",
    )
    options.add_dataset_arguments(p_audit)
    options.add_measures(
        p_audit, default=["cn"], help="similarity measures to audit (default: cn)"
    )
    p_audit.add_argument(
        "--eps", nargs="+", type=options.epsilon, default=[0.1, 0.5, 1.0, 2.0],
        help="epsilon sweep (default: 0.1 0.5 1.0 2.0)",
    )
    p_audit.add_argument(
        "--target", nargs="+", choices=("private", "nou", "noe", "lrm", "gs"),
        default=["private", "nou", "noe"],
        help="mechanisms to attack (default: private nou noe)",
    )
    p_audit.add_argument(
        "--trials", type=options.positive_int, default=1000,
        help="membership trials per world per cell (default: 1000)",
    )
    options.add_repeats(
        p_audit, default=3,
        help="reconstruction releases per private cell (default: 3)",
    )
    options.add_louvain_runs(p_audit, default=5)
    options.add_cache_dir(p_audit, help="persistent similarity-kernel store directory")
    p_audit.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the audit report as JSON to PATH (or stdout with no PATH)",
    )
    p_audit.add_argument(
        "--strict", action="store_true",
        help="fail (privacy exit code) if any cell violates "
        "eps_empirical <= eps_analytical",
    )
    options.add_profile_argument(p_audit)
    p_audit.set_defaults(run=_cmd_attack_audit)


def add_validate(sub) -> None:
    p_validate = sub.add_parser(
        "validate",
        help="empirically estimate the privacy loss of module A_w",
    )
    options.add_epsilon(p_validate)
    p_validate.add_argument("--cluster-size", type=options.positive_int, default=4)
    options.add_samples(p_validate, default=60000)
    options.add_seed(p_validate)
    p_validate.set_defaults(run=_cmd_validate)


def add_check_release(sub) -> None:
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
    options.add_samples(p_check, default=30000)
    options.add_seed(p_check)
    p_check.set_defaults(run=_cmd_check_release)


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks.sybil import run_attack_experiment
    from repro.core.private import PrivateSocialRecommender
    from repro.core.recommender import SocialRecommender

    dataset = options.resolve_dataset(args)
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
    from repro.cache import SimilarityStore

    dataset = options.resolve_dataset(args)
    store = SimilarityStore(args.cache_dir) if args.cache_dir else None
    # Dedupe the grid preserving order (nargs="+" allows repeats); measure
    # names resolve case-insensitively, so a name's first spelling stands.
    measures = {}
    for name in args.measures:
        measures.setdefault(name.lower(), name)
    targets = list(dict.fromkeys(args.target))
    report = run_privacy_audit(
        dataset,
        measures=list(measures.values()),
        epsilons=list(dict.fromkeys(args.eps)),
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


def _audit_module_aw(epsilon, cluster_size, samples, seed, max_weight=1.0):
    """Monte-Carlo privacy-loss estimate of module A_w at ``epsilon``.

    Runs the mechanism on the smallest neighbouring inputs one cluster of
    ``cluster_size`` users admits: one preference edge, and that edge
    plus a second member's (or, for a singleton, no edge at all).
    """
    from repro.community.clustering import Clustering
    from repro.core.cluster_weights import noisy_cluster_item_weights
    from repro.graph.preference_graph import PreferenceGraph
    from repro.privacy.validation import estimate_privacy_loss

    clustering = Clustering([list(range(cluster_size))])
    base = PreferenceGraph()
    base.add_users(range(cluster_size))
    base.add_edge(0, "item")
    neighbour = (
        base.with_edge(cluster_size - 1, "item")
        if cluster_size > 1
        else base.without_edge(0, "item")
    )

    def mechanism(prefs, rng):
        released = noisy_cluster_item_weights(
            prefs, clustering, epsilon, rng=rng, max_weight=max_weight
        )
        return released.weight("item", 0)

    return estimate_privacy_loss(
        mechanism, base, neighbour, samples=samples, seed=seed
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    """Monte-Carlo check that module A_w's release respects its epsilon."""
    estimate = _audit_module_aw(
        args.epsilon, args.cluster_size, args.samples, args.seed
    )
    verdict = "OK" if estimate.is_consistent_with(args.epsilon) else "VIOLATION"
    print(
        f"claimed epsilon: {args.epsilon:g}   cluster size: {args.cluster_size}\n"
        f"empirical lower bound: {estimate.epsilon_lower_bound:.4f} "
        f"({estimate.samples} samples, {estimate.buckets_compared} buckets)\n"
        f"verdict: {verdict}"
    )
    return 0 if verdict == "OK" else 1


def _cmd_check_release(args: argparse.Namespace) -> int:
    """Verify a release artifact: integrity, provenance, optional audit."""
    from repro.core.persistence import PublishedRelease, inspect_release

    provenance = inspect_release(args.path)
    checksum = (
        f"{provenance.checksum[:16]}... (verified)"
        if provenance.checksum_verified
        else "absent (format v1, pre-integrity)"
    )
    epsilon = f"{provenance.epsilon:g}"
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

    # Rerun module A_w at the artifact's claimed epsilon, on a cluster no
    # larger than the release's smallest (capped at 8 users).
    release = PublishedRelease.load(args.path)
    size = max(1, min(min(release.weights.clustering.sizes(), default=1), 8))
    estimate = _audit_module_aw(
        release.epsilon, size, args.samples, args.seed, release.max_weight
    )
    verdict = "OK" if estimate.is_consistent_with(release.epsilon) else "VIOLATION"
    print(
        f"audit:       empirical lower bound "
        f"{estimate.epsilon_lower_bound:.4f} vs claimed {epsilon} "
        f"({estimate.samples} samples) -> {verdict}"
    )
    return 0 if verdict == "OK" else 1
