import math
import random
import re
from collections import Counter
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpvote import (
    BLOCK,
    DEFAULT_ORDERS,
    NOISE_KIND,
    ExperimentConfig,
    LedgerEntry,
    PrivacyLedger,
    advanced_composition,
    classical_gaussian_epsilon,
    per_query_moment,
    run_experiment,
)
from dpvote.accountant import _fsum_counted


def ledger_of(*gammas):
    """A ledger with one lnmax entry per gamma."""
    ledger = PrivacyLedger()
    ledger.record(*(LedgerEntry("lnmax", sensitivity=1.0, gamma=g) for g in gammas))
    return ledger


def grid_scan_delta(curve, eps):
    # independent re-implementation of the tail bound, plain python
    best = float("inf")
    for order, alpha in zip(DEFAULT_ORDERS, curve):
        best = min(best, math.exp(min(alpha - order * eps, 700.0)))
    return min(1.0, best)


class TestPerQueryMoment:
    @pytest.mark.parametrize("gamma,order,expected", [
        (0.1, 1, 0.04),
        (0.0, 7, 0.0),
        (0.05, 4, 0.1),
    ])
    def test_examples(self, gamma, order, expected):
        assert per_query_moment(gamma, order) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("order", [0, -3, 1.5])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            per_query_moment(0.1, order)


class TestMomentCurve:
    def test_zero_curve(self):
        ledger = ledger_of()
        assert ledger.orders == DEFAULT_ORDERS
        assert all(a == 0.0 for a in ledger.moment_curve())

    def test_addition_is_pointwise(self):
        combined = ledger_of(0.1, 0.2).moment_curve()
        assert combined[0] == pytest.approx(0.04 + 0.16, rel=1e-12)


class TestCompose:
    def test_identical_entries_compose_exactly(self):
        # dyadic gamma keeps every intermediate float exact
        gamma = 0.125
        ledger = PrivacyLedger()
        for _ in range(7):
            ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=gamma))
        single = [per_query_moment(gamma, o) for o in DEFAULT_ORDERS]
        total = ledger.moment_curve()
        assert all(t == 7 * s for t, s in zip(total, single))

    def test_fsum_keeps_composition_exact_for_generic_gamma(self):
        gamma = 0.1
        ledger = PrivacyLedger()
        for _ in range(1000):
            ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=gamma))
        single = per_query_moment(gamma, 1)
        assert ledger.moment_curve()[0] == 1000 * single

    def test_empty_ledger_is_zero_curve(self):
        assert PrivacyLedger().moment_curve() == (0.0,) * len(DEFAULT_ORDERS)

    def test_two_distinct_entries(self):
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.1))
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.2))
        assert ledger.moment_curve()[0] == pytest.approx(0.20, rel=1e-12)
        assert ledger.query_count == 2


class TestDeltaForEps:
    def test_single_query_grid_scan(self):
        ledger = ledger_of(0.05)
        for eps in (0.25, 1.0, 3.0):
            expected = grid_scan_delta(ledger.moment_curve(), eps)
            assert ledger.delta_for_eps(eps) == pytest.approx(expected, rel=1e-12)

    def test_minimum_location_single_query(self):
        # with gamma=0.05 and eps=1 the quadratic term never dominates on the
        # default grid, so the scan bottoms out at the largest order
        ledger = ledger_of(0.05)
        args = [a - o * 1.0 for o, a in zip(DEFAULT_ORDERS, ledger.moment_curve())]
        assert min(args) == args[-1]
        assert ledger.delta_for_eps(1.0) == pytest.approx(math.exp(args[-1]), rel=1e-12)

    def test_huge_eps_gives_zero(self):
        assert ledger_of(0.05).delta_for_eps(1e6) == 0.0

    def test_zero_curve_zero_eps_gives_one(self):
        assert ledger_of().delta_for_eps(0.0) == 1.0

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            ledger_of().delta_for_eps(-1.0)


class TestEpsForDelta:
    def test_round_trip_bound(self):
        ledger = ledger_of(0.05, 0.05)
        for delta in (1e-3, 1e-5, 1e-8):
            eps = ledger.eps_for_delta(delta)
            assert ledger.delta_for_eps(eps) <= delta * (1 + 1e-12)

    def test_zero_curve_value(self):
        eps = ledger_of().eps_for_delta(1e-5)
        assert eps == pytest.approx(math.log(1e5) / 32, rel=1e-12)
        assert eps == pytest.approx(0.359779, rel=1e-5)

    def test_monotone_in_curve_scaling(self):
        one = ledger_of(0.3)
        two = ledger_of(0.3, 0.3)
        assert two.eps_for_delta(1e-5) >= one.eps_for_delta(1e-5)

    def test_monotone_non_increasing_in_delta(self):
        ledger = ledger_of(0.2)
        values = [ledger.eps_for_delta(d) for d in (1e-8, 1e-5, 1e-2)]
        assert values == sorted(values, reverse=True)

    def test_subnormal_delta_gives_a_finite_eps(self):
        # 1 / 1e-320 overflows to inf; ln(1 / delta) itself is 736.8
        num, den = (1e-320).as_integer_ratio()
        log_inv = math.log(den) - math.log(num)
        eps = ledger_of(0.1).eps_for_delta(1e-320)
        curve = ledger_of(0.1).moment_curve()
        assert eps == pytest.approx(min((a + log_inv) / o for o, a in zip(DEFAULT_ORDERS, curve)),
                                    rel=1e-12)


class TestCompositionFormulas:
    def test_advanced_composition_value(self):
        got = advanced_composition(100, 0.01, 1e-5)
        independent = 0.01 * 0.01 * 4 * 100 + math.sqrt(8 * 100 * math.log(1e5)) * 0.01
        assert got == pytest.approx(independent, rel=1e-12)
        assert got == pytest.approx(0.999705, rel=1e-5)

    def test_advanced_composition_vanishes_with_gamma(self):
        assert advanced_composition(1000, 0.0, 1e-5) == 0.0

    def test_advanced_composition_delta_one(self):
        assert advanced_composition(1, 0.3, 1.0) == pytest.approx(4 * 0.3 * 0.3, rel=1e-12)

    def test_advanced_composition_at_a_subnormal_delta_is_finite(self):
        num, den = (1e-320).as_integer_ratio()  # ln(1 / delta) is 736.8; 1 / delta is inf
        expected = 4 * 20 * 0.01 + 2 * 0.1 * math.sqrt(2 * 20 * (math.log(den) - math.log(num)))
        assert advanced_composition(20, 0.1, 1e-320) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("T,gamma,expected", [
        (1, 0.3, 0.6),
        (0, 0.3, 0.0),
        (1000, 0.01, 20.0),
    ])
    def test_simple_composition(self, T, gamma, expected):
        ledger = PrivacyLedger()
        ledger.record(*[LedgerEntry("lnmax", sensitivity=1.0, gamma=gamma)] * T)
        assert ledger.simple_epsilon() == pytest.approx(expected, rel=1e-12)


class TestClassicalGaussian:
    def test_value(self):
        expected = math.sqrt(2 * math.log(1.25 / 1e-5)) / 5.0
        assert classical_gaussian_epsilon(5.0, 1e-5) == pytest.approx(expected, rel=1e-12)

    def test_inapplicable_when_eps_reaches_one(self):
        assert classical_gaussian_epsilon(1.0, 1e-5) is None


class TestLedgerEntry:
    def test_epsilon_is_twice_gamma(self):
        assert LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25).epsilon == 0.5

    def test_gaussian_entry_has_no_pure_epsilon(self):
        entry = LedgerEntry("nzc-gaussian", sensitivity=2.0, sigma=3.0)
        assert entry.epsilon is None

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            LedgerEntry("lnmax", sensitivity=1.0)
        with pytest.raises(ValueError):
            LedgerEntry("lnmax", sensitivity=1.0, gamma=0.1, sigma=0.1)

    @pytest.mark.parametrize("mechanism", list(NOISE_KIND))
    def test_wrong_parameters_are_refused_naming_the_right_one(self, mechanism):
        param, other = {"lnmax": ("gamma", "sigma"), "nzc-laplace": ("gamma", "sigma"),
                        "nzc-gaussian": ("sigma", "gamma")}[mechanism]
        message = f"a {mechanism} entry carries {param} and no {other}"
        for values in ({}, {other: 1.0}, {param: 1.0, other: 1.0}):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                LedgerEntry(mechanism, sensitivity=1.0, **values)
        with pytest.raises(ValueError, match="^unknown mechanism 'cauchy'; expected one of "
                                             "lnmax, nzc-laplace, nzc-gaussian$"):
            LedgerEntry("cauchy", sensitivity=1.0, **{param: 1.0})

    # an infinite value is refused as ledger.csv would refuse it on load; NaN and
    # negative values keep the range messages they had
    @pytest.mark.parametrize("mechanism, values, message", [
        ("lnmax", dict(gamma=math.inf, sensitivity=1.0), "gamma must be a finite number, got inf"),
        ("nzc-gaussian", dict(sigma=math.inf, sensitivity=1.0),
         "sigma must be a finite number, got inf"),
        ("nzc-laplace", dict(gamma=0.5, sensitivity=math.inf),
         "sensitivity must be a finite number, got inf"),
        ("lnmax", dict(gamma=-math.inf, sensitivity=math.inf), "gamma must be non-negative"),
        ("nzc-gaussian", dict(sigma=math.nan, sensitivity=1.0), "sigma must be positive"),
        ("lnmax", dict(gamma=math.inf, sensitivity=-math.inf), "sensitivity must be positive"),
    ])
    def test_value_that_ledger_csv_cannot_hold_is_refused(self, mechanism, values, message):
        with pytest.raises(ValueError, match=message):
            LedgerEntry(mechanism, **values)


class TestLedgerExport:
    def _ledger(self):
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("nzc-laplace", sensitivity=math.exp(-1), gamma=1 / 3))
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=20.0))
        ledger.record(LedgerEntry("nzc-gaussian", sensitivity=math.exp(-1), sigma=7.0))
        return ledger

    def test_format_has_one_line_per_query(self, tmp_path):
        ledger = self._ledger()
        text = ledger.export_text()
        lines = text.splitlines()
        assert len(lines) == 1 + ledger.query_count
        assert lines[0] == "index,mechanism,gamma,sigma,sensitivity"
        assert lines[1].split(",")[1] == "nzc-laplace"

    def test_floats_in_shortest_round_trip_form(self):
        # repr of each float, with the .0 of an integral value dropped
        assert self._ledger().export_text().splitlines()[1:] == [
            "0,nzc-laplace,0.3333333333333333,,0.36787944117144233",
            "1,lnmax,20,,1",
            "2,nzc-gaussian,,7,0.36787944117144233",
        ]

    def test_round_trip_is_byte_stable(self, tmp_path):
        ledger = self._ledger()
        path = tmp_path / "ledger.csv"
        ledger.export(path)
        loaded = PrivacyLedger.load(path)
        assert loaded.entries == ledger.entries  # every float read back exactly
        assert loaded.figures(1e-5) == ledger.figures(1e-5)
        path2 = tmp_path / "ledger2.csv"
        loaded.export(path2)
        assert path.read_bytes() == path2.read_bytes()


def _per_entry_export(ledger):
    # the per-row formulas, evaluated for every entry with no sharing
    def fmt(value):  # shortest round-trip form, without the .0 of an integral value
        return repr(value).removesuffix(".0")

    lines = ["index,mechanism,gamma,sigma,sensitivity"]
    for i, e in enumerate(ledger.entries):
        lines.append(",".join([str(i), e.mechanism, "" if e.gamma is None else fmt(e.gamma),
                               "" if e.sigma is None else fmt(e.sigma), fmt(e.sensitivity)]))
    return "\n".join(lines) + "\n"


class TestCostPerDistinctGamma:
    """Export and composition work once per gamma, with the per-entry bytes and sums."""

    def _ledger(self):
        # two gammas (the two smooth-sensitivity branches at a fixed noise scale)
        # interleaved with Gaussian entries, as separate objects with equal values
        ledger = PrivacyLedger()
        for i in range(300):
            if i % 7 == 3:
                ledger.record(LedgerEntry("nzc-gaussian", sensitivity=math.exp(-1), sigma=1e3))
            else:
                sens = math.exp(-1) * (1.0 + 9.0 * (i % 3 == 0))
                ledger.record(LedgerEntry("nzc-laplace", sensitivity=sens, gamma=sens / 1e10))
        return ledger

    def test_export_matches_per_entry_formulas(self):
        ledger = self._ledger()
        assert ledger.export_text() == _per_entry_export(ledger)

    def test_export_keeps_the_sign_of_a_zero(self):
        # -0.0 == 0.0, so formatting each distinct value once must not write one for the other
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=-0.0),
                      LedgerEntry("lnmax", sensitivity=1.0, gamma=0.0))
        assert ledger.export_text() == _per_entry_export(ledger)

    def test_composition_matches_per_entry_sums(self):
        ledger = self._ledger()
        gammas = [e.gamma for e in ledger.entries if e.gamma is not None]
        assert len(set(gammas)) == 2
        expected = tuple(math.fsum(per_query_moment(g, o) for g in gammas) for o in ledger.orders)
        assert ledger.moment_curve() == expected
        assert ledger.simple_epsilon() == math.fsum(2.0 * g for g in gammas)

    def test_record_appends_several_entries_in_order(self):
        ledger = PrivacyLedger()
        a = LedgerEntry("lnmax", sensitivity=1.0, gamma=0.5)
        b = LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25)
        ledger.record(a, b, a)
        assert ledger.entries == [a, b, a]
        with pytest.raises(TypeError):
            ledger.record(a, "not an entry")


def _fsum_repeated(counts, term):
    # the reference: fsum over every entry's term, each distinct term repeated once per entry
    return math.fsum(chain.from_iterable(repeat(term(g), n) for g, n in counts.items()))


class TestCountedSum:
    """Composition sums each distinct term once, times its count, to fsum's bits."""

    # +-0, the smallest subnormal, 1/3, and gammas from 1e-12 up to 1e150; those of
    # one ledger lie within three decades, so that every term moves the rounding
    SPECIAL_GAMMAS = (0.0, -0.0, 5e-324, 1 / 3)

    def _counts(self, rng):
        low = rng.uniform(-12.0, 147.0)
        gammas = [rng.choice(self.SPECIAL_GAMMAS) if rng.random() < 0.3
                  else 10.0 ** rng.uniform(low, low + 3.0) for _ in range(rng.randint(1, 6))]
        return Counter({g: rng.randint(1, 3000) for g in gammas})

    def test_matches_repeated_fsum_bit_for_bit_on_mixed_gamma_ledgers(self):
        rng = random.Random(20)
        compared = 0
        for _ in range(500):
            counts = self._counts(rng)
            terms = [lambda g: 2.0 * g] + [
                lambda g, o=o: per_query_moment(g, o) for o in DEFAULT_ORDERS]
            for term in terms:
                # float.hex tells -0.0 from 0.0
                assert _fsum_counted(counts, term).hex() == _fsum_repeated(counts, term).hex()
                compared += 1
        assert compared == 500 * 33

    @pytest.mark.parametrize("counts", [
        {-0.0: 3}, {0.0: 2}, {-0.0: 1, 0.0: 1}, {5e-324: 3000, 0.0: 1}, {}])
    def test_zero_and_subnormal_sums_match_repeated_fsum(self, counts):
        counts = Counter(counts)
        for term in (lambda g: g, lambda g: 2.0 * g, lambda g: -g):
            assert _fsum_counted(counts, term).hex() == _fsum_repeated(counts, term).hex()

    def test_ledger_composition_matches_repeated_fsum(self):
        rng = random.Random(21)
        ledger = PrivacyLedger()
        for g, n in self._counts(rng).items():
            ledger.record(*[LedgerEntry("lnmax", sensitivity=1.0, gamma=g)] * n)
        counts = Counter(e.gamma for e in ledger.entries)
        assert ledger.simple_epsilon().hex() == _fsum_repeated(counts, lambda g: 2.0 * g).hex()
        assert ledger.moment_curve() == tuple(
            _fsum_repeated(counts, lambda g: per_query_moment(g, o)) for o in ledger.orders)

    def test_non_finite_terms_sum_as_fsum_does(self):
        assert _fsum_counted(Counter({1.0: 3, 2.0: 1}), lambda g: math.inf * g) == math.inf
        assert math.isnan(_fsum_counted(Counter({1.0: 2}), lambda g: math.nan))
        assert _fsum_counted(Counter({1.0: 2, 2.0: 5}), lambda g: g if g < 2 else math.inf) \
            == math.inf


class TestOverflowingComposition:
    """A composed sum beyond the float range is inf, as the paper-advanced figure already is."""

    def test_simple_epsilon_that_overflows_is_inf(self):
        # each 2 * gamma is 2e306; a thousand of them exceed the largest float
        assert ledger_of(*[1e306] * 1000).simple_epsilon() == math.inf

    def test_moment_curve_that_overflows_is_inf(self):
        # the order-1 term 4 * gamma^2 is 1e306 here; the order-32 term alone is inf
        ledger = ledger_of(*[5e152] * 1000)
        assert ledger.moment_curve() == (math.inf,) * len(DEFAULT_ORDERS)
        assert [(f.accounting, f.eps) for f in ledger.figures(1e-5)] == [
            ("paper-moments", math.inf), ("paper-simple", 1e156), ("paper-advanced", math.inf)]

    def test_counted_sum_that_overflows_is_inf_with_its_sign(self):
        counts = Counter({1e308: 2})
        assert _fsum_counted(counts, lambda g: g) == math.inf
        assert _fsum_counted(counts, lambda g: -g) == -math.inf


@given(st.floats(0, 2), st.integers(1, 64))
def test_moment_bound_non_negative(gamma, order):
    assert per_query_moment(gamma, order) >= 0.0


@given(st.floats(0.001, 0.999), st.floats(0, 0.5))
def test_delta_for_eps_stays_in_unit_interval(delta, gamma):
    ledger = ledger_of(gamma)
    eps = ledger.eps_for_delta(delta)
    assert eps >= 0.0
    assert 0.0 <= ledger.delta_for_eps(eps) <= 1.0


class TestDistinctCharges:
    """The ledger holds each distinct charge once; every result matches the per-row definition."""

    @pytest.fixture(scope="class")
    def report(self):
        # three blocks, so each block's row indices are offset into the ledger; with scale
        # pinned and c low, both sensitivity levels occur and each is its own gamma
        config = ExperimentConfig(mechanism="nzc-laplace", seed=5, queries=2500, num_classes=4,
                                  teachers=5, boost_constant=2.0, scale=3.0)
        return run_experiment(config)

    def test_run_ledger_holds_one_charge_per_distinct_sensitivity(self, report, monkeypatch):
        calls = []
        record = PrivacyLedger.record
        monkeypatch.setattr(PrivacyLedger, "record", lambda self, *entries, rows=None: (
            calls.append(len(entries)), record(self, *entries, rows=rows))[1])
        ledger = run_experiment(report.config).ledger
        assert calls == [2]  # the run's two charges, from one record call over its 3 blocks
        entries = ledger.entries
        assert ledger.query_count == len(entries) == 2500
        assert [e.sensitivity for e in entries] == report.columns[5]  # each row its own
        assert len({id(e) for e in entries}) == len({e.gamma for e in entries}) == 2

    def test_run_ledger_matches_the_per_row_definitions(self, report):
        ledger = report.ledger
        gammas = Counter(e.gamma for e in ledger.entries)
        assert ledger.export_text() == _per_entry_export(ledger)
        curve = tuple(_fsum_repeated(gammas, lambda g, o=o: per_query_moment(g, o))
                      for o in ledger.orders)
        assert ledger.moment_curve() == curve
        simple = _fsum_repeated(gammas, lambda g: 2.0 * g)
        assert ledger.simple_epsilon().hex() == simple.hex()
        delta = 1e-5
        moments = min((a + math.log(1.0 / delta)) / o for o, a in zip(ledger.orders, curve))
        assert [(f.accounting, f.eps, f.delta) for f in ledger.figures(delta)] == [
            ("paper-moments", moments, delta),
            ("paper-simple", simple, 0.0),
            ("paper-advanced", advanced_composition(2500, max(gammas), delta), delta)]

    def _pair(self, rng):
        # a few distinct charges of both noise kinds, and each row's index into them
        distinct = [LedgerEntry("nzc-laplace", sensitivity=rng.choice([0.5, 1.0, 3.0]),
                                gamma=rng.choice([1e-3, 0.25, 1 / 3, 7.0]))
                    if rng.random() < 0.7 else
                    LedgerEntry("nzc-gaussian", sensitivity=0.5, sigma=rng.choice([2.0, 1e3]))
                    for _ in range(rng.randint(1, 5))]
        rows = [rng.randrange(len(distinct)) for _ in range(rng.randint(1, 400))]
        return distinct, rows

    def test_distinct_form_equals_the_per_row_form(self, tmp_path):
        rng = random.Random(28)
        for _ in range(50):
            per_row, by_charge = PrivacyLedger(), PrivacyLedger()
            for _ in range(rng.randint(1, 3)):  # several record calls, as a run's blocks
                distinct, rows = self._pair(rng)
                per_row.record(*map(distinct.__getitem__, rows))
                by_charge.record(*distinct, rows=np.array(rows))
            assert by_charge.entries == per_row.entries
            assert by_charge.query_count == per_row.query_count
            assert by_charge.figures(1e-6) == per_row.figures(1e-6)
            assert by_charge.export_text() == per_row.export_text() == _per_entry_export(per_row)

    def test_charge_no_row_uses_adds_nothing(self):
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.5),
                      LedgerEntry("lnmax", sensitivity=1.0, gamma=100.0), rows=[0, 0])
        assert ledger.figures(1e-5) == ledger_of(0.5, 0.5).figures(1e-5)
        ledger.record(LedgerEntry("nzc-gaussian", sensitivity=1.0, sigma=1.0), rows=[])
        assert ledger.figures(1e-5) == ledger_of(0.5, 0.5).figures(1e-5)

    def test_distinct_form_keeps_the_sign_of_a_zero(self):
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=-0.0),
                      LedgerEntry("lnmax", sensitivity=1.0, gamma=0.0), rows=[1, 0, 1, 0])
        assert ledger.export_text().splitlines()[1:] == [
            "0,lnmax,0,,1", "1,lnmax,-0,,1", "2,lnmax,0,,1", "3,lnmax,-0,,1"]
        assert ledger.export_text() == _per_entry_export(ledger)

    @pytest.mark.parametrize("rows, message", [
        ([0, 2], "rows must index the 2 entries, got values from 0 to 2"),
        ([-1, 0], "rows must index the 2 entries, got values from -1 to 0"),
        ([[0, 1]], "rows must be a 1-D integer array, got int64 of shape (1, 2)"),
        (0, "rows must be a 1-D integer array, got int64 of shape ()"),
        ([0.0, 1.0], "rows must be a 1-D integer array, got float64 of shape (2,)"),
        ([True, False], "rows must be a 1-D integer array, got bool of shape (2,)"),
        (["0"], "rows must be a 1-D integer array, got <U1 of shape (1,)"),
        ([0, 10**12], "rows must index the 2 entries, got values from 0 to 1000000000000"),
        ([2**63 - 1], "rows must index the 2 entries, "
                      "got values from 9223372036854775807 to 9223372036854775807"),
        (np.array([1, 2**64 - 1], dtype=np.uint64),
         "rows must index the 2 entries, got values from 1 to 18446744073709551615"),
    ])
    def test_malformed_rows_are_one_line_errors(self, rows, message):
        ledger = ledger_of(0.5)
        with pytest.raises(ValueError) as err:
            ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25),
                          LedgerEntry("lnmax", sensitivity=1.0, gamma=0.125), rows=rows)
        assert str(err.value) == message
        assert ledger.entries == ledger_of(0.5).entries  # nothing was recorded

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=np.float64),
                                      np.array([], dtype=np.uint8)])
    def test_empty_rows_record_no_query(self, rows):
        ledger = ledger_of(0.5)
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25), rows=rows)
        assert ledger.query_count == 1
        assert ledger.export_text() == ledger_of(0.5).export_text()
        assert ledger.figures(1e-5) == ledger_of(0.5).figures(1e-5)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.uint64])
    def test_rows_of_any_integer_dtype_index_the_entries(self, dtype):
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25),
                      LedgerEntry("lnmax", sensitivity=1.0, gamma=0.125),
                      rows=np.array([1, 0, 1], dtype=dtype))
        assert [e.gamma for e in ledger.entries] == [0.125, 0.25, 0.125]

    def test_load_shares_one_entry_per_distinct_row(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("index,mechanism,gamma,sigma,sensitivity\n0,lnmax,0.5,,1\n"
                        "1,lnmax,-0,,1\n2,lnmax,0.5,,1\n3,lnmax,0,,1\n4,lnmax,-0,,1\n")
        entries = PrivacyLedger.load(path).entries
        assert len({id(e) for e in entries}) == 3  # -0 and 0 are two rows' texts
        assert entries[0] is entries[2] and entries[1] is entries[4]
        assert PrivacyLedger.load(path).export_text() == path.read_text()


class TestCostPerDistinctCharge:
    """No ledger computation walks the rows again: each works once per distinct charge."""

    def test_large_ledger_is_never_read_row_by_row(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(28)
        ledger, queries = PrivacyLedger(), 10 ** 5
        for start in range(0, queries, BLOCK):  # BLOCK rows a record call, each of two charges
            sens = (math.exp(-1), 3.0 * math.exp(-1))
            charges = [LedgerEntry("nzc-laplace", sensitivity=s, gamma=s / 1e10) for s in sens]
            rows = rng.integers(2, size=min(BLOCK, queries - start)).tolist()
            ledger.record(*map(charges.__getitem__, rows))
        expected = ledger.figures(1e-5)

        def walked(self):
            raise AssertionError("the rows were walked")

        monkeypatch.setattr(PrivacyLedger, "entries", property(walked), raising=False)
        assert ledger.query_count == queries
        assert ledger.figures(1e-5) == expected
        assert len(ledger.moment_curve()) == len(ledger.orders)
        assert ledger.simple_epsilon() > 0.0
        assert ledger.export_text().count("\n") == 1 + queries
        ledger.export(tmp_path / "ledger.csv")
