"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured numbers (run pytest
with -s to see them on success).  Monte-Carlo checks run on pinned streams
so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from dpvote import (
    DEFAULT_ORDERS,
    ExperimentConfig,
    LedgerEntry,
    NoiseSpec,
    PrivacyLedger,
    RngStream,
    VoteHistogram,
    advanced_composition,
    argmax,
    boost,
    brute_force_local,
    brute_force_smooth,
    dp_ratio_check,
    emit_report,
    enumerate_neighbors,
    exceedance_probability_mc,
    flip_moves,
    flip_probability_mc,
    gap,
    noisy_argmax,
    per_query_moment,
    required_constant_laplace,
    run_experiment,
    smooth_sensitivity,
    union_flip_bound,
)

L = 10


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def random_histogram(gen, num_classes, max_teachers, extra_margin=0):
    teachers = int(gen.integers(20, max_teachers + 1))
    counts = gen.multinomial(teachers, gen.dirichlet(np.ones(num_classes)))
    if extra_margin:
        counts[int(np.argmax(counts))] += extra_margin
    elif counts.max() == np.partition(counts, -2)[-2]:
        counts[int(np.argmax(counts))] += 1  # ensure a unique winner
    return VoteHistogram(counts)


def test_01_immutability_zero_flips():
    """Calibrated boost keeps the noisy argmax fixed across 10^8 trials."""
    seed = 20250809
    gen = np.random.default_rng(seed)
    stream = RngStream(seed, (1,))
    start = time.perf_counter()
    total_flips = 0
    total_trials = 0
    for i in range(1000):
        votes = random_histogram(gen, L, 250)
        gamma = 1e-3 if i % 2 == 0 else 1e-6
        c = required_constant_laplace(L, 1e-9, gamma)
        spec = NoiseSpec("laplace", gamma=gamma)
        est = flip_probability_mc(votes, c, spec, 100_000, stream.substream(i))
        total_flips += est.hits
        total_trials += est.trials
    elapsed = time.perf_counter() - start
    ok = total_flips == 0 and elapsed < 60.0
    report("1 (immutability)", ok,
           f"{total_flips} flips in {total_trials:.1e} trials over 1000 histograms, "
           f"gamma in {{1e-3, 1e-6}}, {elapsed:.1f}s")


def test_02_neighbor_immutability():
    """Shared bounded noise gives identical labels on every neighbor of a distance-3 histogram."""
    seed = 20250809
    gen = np.random.default_rng(seed + 2)
    start = time.perf_counter()
    violations = 0
    neighbors_checked = 0
    bound = 50.0
    c = 2 * bound + 2
    for _ in range(500):
        votes = random_histogram(gen, L, 250, extra_margin=4)
        assert gap(votes) > 3
        noise = gen.uniform(-bound, bound, L)
        base = noisy_argmax(boost(votes, c), noise)
        if base != argmax(votes):
            violations += 1
        for w in enumerate_neighbors(votes):
            neighbors_checked += 1
            if noisy_argmax(boost(w, c), noise) != base:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report("2 (neighbor immutability)", ok,
           f"{violations} violations across 500 distance-3 histograms / "
           f"{neighbors_checked} neighbors with shared noise, {elapsed:.1f}s")


def test_03_sensitivity_closed_forms():
    """Closed-form local (from flip_moves) and smooth sensitivity match the exhaustive oracles."""
    seed = 20250809
    gen = np.random.default_rng(seed + 3)
    boosts = (0.0, 1.0, 9.0, 100.0)
    betas = (0.5, 1.0, 2.0)
    mismatches = 0
    for i in range(10_000):
        num_classes = int(gen.integers(2, 9))
        teachers = int(gen.integers(1, 65))
        votes = VoteHistogram(gen.multinomial(teachers, gen.dirichlet(np.ones(num_classes))))
        c = boosts[i % 4]
        beta = betas[i % 3]
        if brute_force_local(votes, c) != (1.0 + c if flip_moves(votes)[0] <= 1 else 1.0):
            mismatches += 1
        if smooth_sensitivity(votes, c, beta).value != brute_force_smooth(votes, c, beta):
            mismatches += 1
    report("3 (sensitivity closed forms)", mismatches == 0,
           f"{mismatches} mismatches on 10000 random instances "
           f"(t<=64, L<=8, c in {boosts}, beta in {betas})")


def test_04_tail_formulas():
    """Empirical exceedance matches L*e^(-gamma*c) and stays under the Gaussian bound."""
    seed = 31
    stream = RngStream(seed, (4,))
    trials = 100_000
    worst_z = 0.0
    idx = 0
    for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
        for tau in (0.001, 0.002, 0.005, 0.01, 0.02):
            c = required_constant_laplace(L, tau, gamma)
            spec = NoiseSpec("laplace", gamma=gamma)
            est = exceedance_probability_mc(spec, L, c, trials, stream.substream(idx))
            idx += 1
            bound = union_flip_bound(L, spec, c)
            se = math.sqrt(bound * (1.0 - bound) / trials)
            worst_z = max(worst_z, abs(est.estimate - bound) / se)
    laplace_ok = worst_z <= 3.0

    gaussian_ok = True
    for i, sigma in enumerate((0.5, 1.0, 2.0, 4.0, 8.0)):
        for j, ratio in enumerate((1.5, 2.0, 2.5, 3.0, 3.5)):
            spec = NoiseSpec("gaussian", sigma=sigma)
            c = ratio * sigma
            est = exceedance_probability_mc(spec, L, c, trials, stream.substream(100 + 5 * i + j))
            if est.estimate > union_flip_bound(L, spec, c):
                gaussian_ok = False
    report("4 (tail formulas)", laplace_ok and gaussian_ok,
           f"laplace 5x5 grid worst |z| = {worst_z:.2f} (<= 3), "
           f"gaussian 5x5 grid under its bound: {gaussian_ok}")


def test_05_accountant_arithmetic():
    """Accountant formulas agree with independent recomputation to 1e-9 relative."""
    failures = []

    def close(a, b, what):
        rel = abs(a - b) / max(abs(b), 1e-300)
        if rel > 1e-9:
            failures.append(f"{what}: {a} vs {b}")

    for gamma in (0.0, 0.01, 0.05, 0.1, 0.5):
        for order in (1, 2, 4, 16, 32):
            close(per_query_moment(gamma, order),
                  2.0 * gamma * gamma * order * order + 2.0 * gamma * gamma * order,
                  f"moment({gamma},{order})")

    adv = advanced_composition(100, 0.01, 1e-5)
    independent = 0.01 * 0.01 * 4 * 100 + math.sqrt(8 * 100 * math.log(1e5)) * 0.01
    close(adv, independent, "advanced composition")
    if abs(adv - 0.999664) > 1e-4:
        failures.append(f"advanced composition {adv} not within 1e-4 of 0.999664")

    def ledger_of(*gammas):
        ledger = PrivacyLedger()
        ledger.record(*(LedgerEntry("lnmax", sensitivity=1.0, gamma=g) for g in gammas))
        return ledger

    for T, gamma in ((1, 0.3), (1000, 0.01), (0, 0.7)):
        close(ledger_of(*[gamma] * T).simple_epsilon(), 2.0 * gamma * T, f"simple({T},{gamma})")

    def scan_delta(curve, eps):
        return min(1.0, min(math.exp(min(a - o * eps, 700.0))
                            for o, a in zip(DEFAULT_ORDERS, curve)))

    def scan_eps(curve, delta):
        return min((a + math.log(1.0 / delta)) / o
                   for o, a in zip(DEFAULT_ORDERS, curve))

    ledgers = [ledger_of(*gammas) for gammas in ((), (0.05,), (0.05, 0.2))]
    for k, ledger in enumerate(ledgers):
        curve = ledger.moment_curve()
        for eps in (0.0, 0.25, 1.0, 4.0):
            close(ledger.delta_for_eps(eps), scan_delta(curve, eps), f"delta_for_eps[{k}]({eps})")
        for delta in (1e-2, 1e-5, 1e-9):
            got = ledger.eps_for_delta(delta)
            close(got, scan_eps(curve, delta), f"eps_for_delta[{k}]({delta})")
            if ledger.delta_for_eps(got) > delta * (1.0 + 1e-9):
                failures.append(f"round trip [{k}] delta={delta}")

    report("5 (accountant arithmetic)", not failures,
           f"advanced composition = {adv:.9f}; "
           f"{len(failures)} disagreements vs independent recomputation"
           + (f": {failures[:3]}" if failures else ""))


def test_06_dp_ratio_oracle():
    """Empirical privacy-loss ratio respects 2*gamma when calibrated, and a deliberately
    under-scaled run on a fragile histogram blows through the bound."""
    gamma = 0.5
    bound = 2 * gamma + 0.1
    positive = dp_ratio_check(VoteHistogram([6, 3, 3]), 100.0, gamma, 1.0,
                              1_000_000, RngStream(606, (0,)))
    negative = dp_ratio_check(VoteHistogram([5, 4, 3]), 100.0, gamma, 1.0,
                              1_000_000, RngStream(606, (1,)), sensitivity=1.0)
    ok = positive.max_log_ratio <= bound and negative.max_log_ratio > bound
    report("6 (dp ratio oracle)", ok,
           f"calibrated max log-ratio {positive.max_log_ratio:.4f} <= {bound}, "
           f"under-scaled control {negative.max_log_ratio:.2f} > {bound}")


@pytest.fixture(scope="module")
def directional_runs():
    start = time.perf_counter()
    nzc_250 = run_experiment(ExperimentConfig(
        mechanism="nzc-laplace", seed=777, queries=9000, num_classes=L,
        teachers=250, boost_constant=1e100, scale=1e10))
    lnmax_250 = run_experiment(ExperimentConfig(
        mechanism="lnmax", seed=777, queries=9000, num_classes=L,
        teachers=250, scale=1e10))
    nzc_5 = run_experiment(ExperimentConfig(
        mechanism="nzc-laplace", seed=778, queries=9000, num_classes=L,
        teachers=5, boost_constant=1e100, scale=1e10))
    return nzc_250, lnmax_250, nzc_5, time.perf_counter() - start


def test_07_directional_reproduction(directional_runs):
    """Boosted aggregation at huge noise keeps every clean label; the unboosted
    baseline at the same noise scale loses accuracy."""
    nzc_250, lnmax_250, nzc_5, elapsed = directional_runs
    nzc_matches_clean = all(r.returned_label == r.clean_label for r in nzc_250.results)
    eps_tiny = nzc_250.eps_simple < 1e-5
    lnmax_lower = lnmax_250.mechanism_accuracy_pct < lnmax_250.clean_accuracy_pct
    small_matches = all(r.returned_label == r.clean_label for r in nzc_5.results)
    ok = nzc_matches_clean and eps_tiny and lnmax_lower and small_matches and elapsed < 120.0
    report("7 (directional reproduction)", ok,
           f"250 teachers: boosted == clean on all 9000 queries ({nzc_matches_clean}), "
           f"eps_simple = {nzc_250.eps_simple:.2e} < 1e-5; "
           f"baseline at same scale {lnmax_250.mechanism_accuracy_pct:.1f}% < "
           f"clean {lnmax_250.clean_accuracy_pct:.1f}%; "
           f"5 teachers boosted == clean ({small_matches}); {elapsed:.1f}s")


def test_08_qualified_fraction_monotone(directional_runs):
    """The qualified-sample curve is non-increasing and covers the default grid."""
    nzc_250, _, nzc_5, _ = directional_runs
    ok = True
    for rep in (nzc_250, nzc_5):
        ns = [n for n, _ in rep.qualified_fractions]
        fracs = [f for _, f in rep.qualified_fractions]
        if ns != [1, 2, 3, 5, 10, 25, 50, 100]:
            ok = False
        if fracs != sorted(fracs, reverse=True):
            ok = False
    big = ", ".join(f"{n}:{f:.3f}" for n, f in nzc_250.qualified_fractions)
    small = ", ".join(f"{n}:{f:.3f}" for n, f in nzc_5.qualified_fractions)
    report("8 (qualified-fraction monotonicity)", ok,
           f"250-teacher curve [{big}]; 5-teacher curve [{small}]")


def test_09_determinism(tmp_path):
    """Identical configs produce byte-identical report and ledger files."""
    config = dict(mechanism="nzc-laplace", seed=909, queries=300, num_classes=L,
                  teachers=50, boost_constant=1e6, gamma=0.01)
    first = emit_report(run_experiment(ExperimentConfig(**config)), tmp_path / "first")
    second = emit_report(run_experiment(ExperimentConfig(**config)), tmp_path / "second")
    same = {key: first[key].read_bytes() == second[key].read_bytes() for key in first}
    report("9 (determinism)", all(same.values()),
           f"byte-identical across reruns: {same}")
