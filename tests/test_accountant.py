import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpvote import (
    DEFAULT_ORDERS,
    LedgerEntry,
    MomentCurve,
    PrivacyLedger,
    advanced_composition,
    classical_gaussian_epsilon,
    delta_for_eps,
    eps_for_delta,
    per_query_moment,
    simple_composition,
)


def grid_scan_delta(curve, eps):
    # independent re-implementation of the tail bound, plain python
    best = float("inf")
    for order, alpha in zip(curve.orders, curve.alpha):
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
        curve = MomentCurve.zero()
        assert curve.orders == DEFAULT_ORDERS
        assert all(a == 0.0 for a in curve.alpha)

    def test_addition_is_pointwise(self):
        a = MomentCurve.for_laplace(0.1)
        b = MomentCurve.for_laplace(0.2)
        combined = a + b
        assert combined.alpha[0] == pytest.approx(0.04 + 0.16, rel=1e-12)


class TestCompose:
    def test_identical_entries_compose_exactly(self):
        # dyadic gamma keeps every intermediate float exact
        gamma = 0.125
        ledger = PrivacyLedger()
        for _ in range(7):
            ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=gamma))
        single = MomentCurve.for_laplace(gamma)
        total = ledger.moment_curve()
        assert all(t == 7 * s for t, s in zip(total.alpha, single.alpha))

    def test_fsum_keeps_composition_exact_for_generic_gamma(self):
        gamma = 0.1
        ledger = PrivacyLedger()
        for _ in range(1000):
            ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=gamma))
        single = per_query_moment(gamma, 1)
        assert ledger.moment_curve().alpha[0] == 1000 * single

    def test_empty_ledger_is_zero_curve(self):
        assert PrivacyLedger().moment_curve() == MomentCurve.zero()

    def test_two_distinct_entries(self):
        ledger = PrivacyLedger()
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.1))
        ledger.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.2))
        assert ledger.moment_curve().alpha[0] == pytest.approx(0.20, rel=1e-12)
        assert ledger.query_count == 2


class TestDeltaForEps:
    def test_single_query_grid_scan(self):
        curve = MomentCurve.for_laplace(0.05)
        for eps in (0.25, 1.0, 3.0):
            assert delta_for_eps(curve, eps) == pytest.approx(grid_scan_delta(curve, eps), rel=1e-12)

    def test_minimum_location_single_query(self):
        # with gamma=0.05 and eps=1 the quadratic term never dominates on the
        # default grid, so the scan bottoms out at the largest order
        curve = MomentCurve.for_laplace(0.05)
        args = [a - o * 1.0 for o, a in zip(curve.orders, curve.alpha)]
        assert min(args) == args[-1]
        assert delta_for_eps(curve, 1.0) == pytest.approx(math.exp(args[-1]), rel=1e-12)

    def test_huge_eps_gives_zero(self):
        curve = MomentCurve.for_laplace(0.05)
        assert delta_for_eps(curve, 1e6) == 0.0

    def test_zero_curve_zero_eps_gives_one(self):
        assert delta_for_eps(MomentCurve.zero(), 0.0) == 1.0

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            delta_for_eps(MomentCurve.zero(), -1.0)


class TestEpsForDelta:
    def test_round_trip_bound(self):
        curve = MomentCurve.for_laplace(0.05) + MomentCurve.for_laplace(0.05)
        for delta in (1e-3, 1e-5, 1e-8):
            eps = eps_for_delta(curve, delta)
            assert delta_for_eps(curve, eps) <= delta * (1 + 1e-12)

    def test_zero_curve_value(self):
        eps = eps_for_delta(MomentCurve.zero(), 1e-5)
        assert eps == pytest.approx(math.log(1e5) / 32, rel=1e-12)
        assert eps == pytest.approx(0.359779, rel=1e-5)

    def test_monotone_in_curve_scaling(self):
        one = MomentCurve.for_laplace(0.3)
        two = one + one
        assert eps_for_delta(two, 1e-5) >= eps_for_delta(one, 1e-5)

    def test_monotone_non_increasing_in_delta(self):
        curve = MomentCurve.for_laplace(0.2)
        values = [eps_for_delta(curve, d) for d in (1e-8, 1e-5, 1e-2)]
        assert values == sorted(values, reverse=True)


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

    @pytest.mark.parametrize("T,gamma,expected", [
        (1, 0.3, 0.6),
        (0, 0.3, 0.0),
        (1000, 0.01, 20.0),
    ])
    def test_simple_composition(self, T, gamma, expected):
        assert simple_composition(T, gamma) == pytest.approx(expected, rel=1e-12)


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

    def test_twelve_significant_digits(self):
        text = self._ledger().export_text()
        assert "0.333333333333" in text
        assert "0.367879441171" in text

    def test_round_trip_is_byte_stable(self, tmp_path):
        ledger = self._ledger()
        path = tmp_path / "ledger.csv"
        ledger.export(path)
        loaded = PrivacyLedger.load(path)
        assert loaded.query_count == ledger.query_count
        assert [e.mechanism for e in loaded.entries] == [e.mechanism for e in ledger.entries]
        path2 = tmp_path / "ledger2.csv"
        loaded.export(path2)
        assert path.read_bytes() == path2.read_bytes()


def _per_entry_export(ledger):
    # the per-row formulas, evaluated for every entry with no sharing
    fmt = "{:.12g}".format
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
        assert ledger.moment_curve().alpha == expected
        assert ledger.simple_epsilon() == math.fsum(2.0 * g for g in gammas)

    def test_record_appends_several_entries_in_order(self):
        ledger = PrivacyLedger()
        a = LedgerEntry("lnmax", sensitivity=1.0, gamma=0.5)
        b = LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25)
        ledger.record(a, b, a)
        assert ledger.entries == [a, b, a]
        with pytest.raises(TypeError):
            ledger.record(a, "not an entry")


@given(st.floats(0, 2), st.integers(1, 64))
def test_moment_bound_non_negative(gamma, order):
    assert per_query_moment(gamma, order) >= 0.0


@given(st.floats(0.001, 0.999), st.floats(0, 0.5))
def test_delta_for_eps_stays_in_unit_interval(delta, gamma):
    curve = MomentCurve.for_laplace(gamma)
    eps = eps_for_delta(curve, delta)
    assert eps >= 0.0
    assert 0.0 <= delta_for_eps(curve, eps) <= 1.0
