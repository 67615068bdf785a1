"""Command-line driver: run experiments, verify the oracles, convert ledgers."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._table import field_types
from .accountant import PrivacyLedger
from .mechanisms import dp_ratio_check, flip_probability_mc
from .noise import (
    NoiseSpec,
    RngStream,
    exceedance_probability_mc,
    required_constant_laplace,
    union_flip_bound,
)
from .pipeline import ExperimentConfig, config_from_dict, emit_report, run_experiment
from .sensitivity import brute_force_local, brute_force_smooth, flip_moves, smooth_sensitivity
from .votes import VoteHistogram


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpvote",
        description="Differentially private vote aggregation: run experiments, "
                    "verify the statistical oracles, convert privacy ledgers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer a batch of queries and write a report")
    run.add_argument("--config", help="JSON file with config fields; flags override it")
    types = field_types(ExperimentConfig)
    for f in fields(ExperimentConfig):  # each flag as its field's metadata declares it
        base, _ = types[f.name]
        if base is not tuple:  # the distance grid is set in a config file only
            run.add_argument("--" + f.metadata.get("alias", f.name).replace("_", "-"), dest=f.name,
                             type=base, choices=f.metadata.get("choices"), help=f.metadata.get("help"))
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="run the built-in statistical oracle suites")
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--instances", type=int, default=2000,
                        help="random instances for the sensitivity oracle sweep")
    verify.add_argument("--trials", type=int, default=200_000,
                        help="Monte-Carlo trials per check")
    verify.set_defaults(func=_cmd_verify)

    account = sub.add_parser("account", help="convert an exported ledger to (eps, delta)")
    account.add_argument("--ledger", required=True, help="ledger.csv produced by a run")
    account.add_argument("--delta", type=float, default=1e-5)
    account.add_argument("--eps", type=float, help="also report delta at this eps")
    account.set_defaults(func=_cmd_account)

    return parser


def _cmd_run(args) -> int:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_bytes().decode("utf-8", errors="replace"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: expected a JSON object of config fields")
    for f in fields(ExperimentConfig):  # flags override the file
        value = getattr(args, f.name, None)
        if value is not None:
            raw[f.name] = value
    config = config_from_dict(raw, args.config or "command line")
    report = run_experiment(config)
    print(f"mechanism={config.mechanism} queries={report.query_count} "
          f"seed={config.seed} runtime={report.runtime_seconds:.2f}s")
    if report.mechanism_accuracy_pct is not None:
        print(f"accuracy: clean={report.clean_accuracy_pct:.2f}% "
              f"mechanism={report.mechanism_accuracy_pct:.2f}% "
              f"agreement={report.agreement_pct:.2f}%")
    _print_privacy(report.privacy)
    if config.out_dir:
        paths = emit_report(report, config.out_dir)
        print(f"report written to {paths['summary'].parent}")
    return 0


def _print_privacy(figures) -> None:
    """One line per privacy figure; the same lines for a run and for its ledger."""
    for f in figures:
        eps = "inapplicable" if f.eps is None else f"{f.eps:.6g}"
        print(f"privacy: {f.accounting} eps={eps} delta={f.delta:g} ({f.definition})")


def _verify_sensitivity(seed: int, instances: int) -> bool:
    gen = np.random.default_rng(seed)
    boosts = (0.0, 1.0, 9.0, 100.0)
    betas = (0.5, 1.0, 2.0)
    mismatches = 0
    for i in range(instances):
        num_classes = int(gen.integers(2, 9))
        teachers = int(gen.integers(1, 65))
        counts = gen.multinomial(teachers, gen.dirichlet(np.ones(num_classes)))
        votes = VoteHistogram(counts)
        c = boosts[i % len(boosts)]
        beta = betas[i % len(betas)]
        if brute_force_local(votes, c) != (1.0 + c if flip_moves(votes)[0] <= 1 else 1.0):
            mismatches += 1
        if smooth_sensitivity(votes, c, beta).value != brute_force_smooth(votes, c, beta):
            mismatches += 1
    print(f"sensitivity brute-force: {instances} instances, {mismatches} mismatches "
          f"-> {'PASS' if mismatches == 0 else 'FAIL'}")
    return mismatches == 0


def _verify_flip(seed: int, trials: int) -> bool:
    stream = RngStream(seed, (1,))
    ok = True
    # bounded flip rate at the calibrated constant
    gamma = 0.5
    tau = 1e-3
    votes = VoteHistogram([30] + [2] * 9)
    c = required_constant_laplace(votes.num_classes, tau, gamma)
    spec = NoiseSpec("laplace", gamma=gamma)
    est = flip_probability_mc(votes, c, spec, trials, stream.substream(0))
    flip_ok = est.estimate <= tau + 3.0 * max(est.standard_error, 1e-12)
    ok &= flip_ok
    print(f"flip probability: estimate={est.estimate:.2e} at tolerated {tau:g} "
          f"-> {'PASS' if flip_ok else 'FAIL'}")
    # exceedance stays under the union bound
    for j, (g, thr_tau) in enumerate([(0.5, 0.01), (1.0, 0.02), (2.0, 0.005)]):
        c_j = required_constant_laplace(10, thr_tau, g)
        spec_j = NoiseSpec("laplace", gamma=g)
        est_j = exceedance_probability_mc(spec_j, 10, c_j, trials, stream.substream(10 + j))
        bound = union_flip_bound(10, spec_j, c_j)
        cell_ok = est_j.estimate <= bound + 3.0 * max(est_j.standard_error, 1e-12)
        ok &= cell_ok
        print(f"exceedance vs union bound (gamma={g}): {est_j.estimate:.4f} <= {bound:.4f}+slack "
              f"-> {'PASS' if cell_ok else 'FAIL'}")
    return ok


def _verify_dp_ratio(seed: int, trials: int) -> bool:
    stream = RngStream(seed, (2,))
    gamma = 0.5
    positive = dp_ratio_check(VoteHistogram([6, 3, 3]), 100.0, gamma, 1.0, trials,
                              stream.substream(0))
    pos_ok = positive.max_log_ratio <= 2.0 * gamma + 0.1
    print(f"dp ratio (calibrated): max log-ratio {positive.max_log_ratio:.4f} <= "
          f"{2 * gamma + 0.1:.2f} -> {'PASS' if pos_ok else 'FAIL'}")
    negative = dp_ratio_check(VoteHistogram([5, 4, 3]), 100.0, gamma, 1.0, trials,
                              stream.substream(1), sensitivity=1.0)
    neg_ok = negative.max_log_ratio > 2.0 * gamma + 0.1
    print(f"dp ratio (under-scaled control): max log-ratio {negative.max_log_ratio:.4f} exceeds "
          f"bound -> {'PASS' if neg_ok else 'FAIL'}")
    return pos_ok and neg_ok


def _cmd_verify(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    results = [
        _verify_sensitivity(args.seed, args.instances),
        _verify_flip(args.seed, args.trials),
        _verify_dp_ratio(args.seed, max(args.trials, 100_000)),
    ]
    if all(results):
        print("verify: all oracle suites passed")
        return 0
    print("verify: FAILURES above", file=sys.stderr)
    return 1


def _cmd_account(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {args.delta!r}")
    if args.eps is not None and not 0.0 <= args.eps < math.inf:
        raise ValueError(f"eps must be a finite non-negative number, got {args.eps!r}")
    ledger = PrivacyLedger.load(args.ledger)
    print(f"queries recorded: {ledger.query_count}")
    figures = ledger.figures(args.delta)
    _print_privacy(figures)
    # a paper-moments figure exists exactly when a query is charged a Laplace gamma
    if args.eps is not None and any(f.accounting == "paper-moments" for f in figures):
        print(f"delta_at_eps({args.eps:g}): {ledger.delta_for_eps(args.eps):.6g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
