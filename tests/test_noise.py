import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dpvote
from dpvote import (
    NOISE_KIND,
    NoiseSpec,
    RngStream,
    VoteHistogram,
    dp_ratio_check,
    exceedance_probability_mc,
    flip_probability_mc,
    noise,
    required_constant_gaussian,
    required_constant_laplace,
    union_flip_bound,
)

N = 100_000

# each mechanism's noise kind, the parameter it carries and the one it never carries
KINDS = {"lnmax": ("laplace", "gamma", "sigma"), "nzc-laplace": ("laplace", "gamma", "sigma"),
         "nzc-gaussian": ("gaussian", "sigma", "gamma")}


def laplace(scale):
    """Laplace noise of scale ``scale``: unit gamma with sensitivity = scale."""
    return NoiseSpec("laplace", gamma=1.0, sensitivity=scale)


def gaussian(std):
    """Gaussian noise of std ``std``: unit sigma with sensitivity = std."""
    return NoiseSpec("gaussian", sigma=1.0, sensitivity=std)


class TestRngStream:
    def test_same_stream_same_sequence(self):
        a = laplace(2.0).sample(RngStream(42, (3,)), size=16)
        b = laplace(2.0).sample(RngStream(42, (3,)), size=16)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = laplace(2.0).sample(RngStream(42).substream(0), size=16)
        b = laplace(2.0).sample(RngStream(42).substream(1), size=16)
        assert not np.array_equal(a, b)

    def test_substream_extends_path(self):
        s = RngStream(7).substream(1, 2).substream(3)
        assert s.path == (1, 2, 3)

    def test_rejects_negative_path(self):
        with pytest.raises(ValueError):
            RngStream(7, (-1,))


class TestSampleLaplace:
    def test_empirical_median_centered(self):
        x = laplace(3.0).sample(RngStream(1), size=N)
        assert abs(np.median(x)) <= 0.02 * 3.0

    def test_empirical_absolute_mean_is_scale(self):
        x = laplace(3.0).sample(RngStream(2), size=N)
        assert np.mean(np.abs(x)) == pytest.approx(3.0, rel=0.03)

    def test_empirical_tail_at_one_scale(self):
        x = laplace(1.5).sample(RngStream(3), size=N)
        assert np.mean(np.abs(x) >= 1.5) == pytest.approx(math.exp(-1), abs=0.01)

    def test_scalar_draw(self):
        assert isinstance(laplace(1.0).sample(RngStream(4)), float)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            laplace(0.0).sample(RngStream(5))


class TestSampleGaussian:
    def test_empirical_std(self):
        x = gaussian(2.5).sample(RngStream(6), size=N)
        assert np.std(x) == pytest.approx(2.5, rel=0.02)

    def test_empirical_mean(self):
        x = gaussian(2.5).sample(RngStream(7), size=N)
        assert abs(np.mean(x)) <= 0.02 * 2.5

    def test_two_sided_five_percent_quantile(self):
        x = gaussian(1.0).sample(RngStream(8), size=N)
        assert np.mean(np.abs(x) >= 1.96) == pytest.approx(0.05, abs=0.01)


class TestLaplaceTail:
    def test_closed_form_values(self):
        assert NoiseSpec("laplace", gamma=0.5).tail(2.0) == pytest.approx(math.exp(-1), rel=1e-12)
        assert NoiseSpec("laplace", gamma=1.0).tail(math.log(4)) == pytest.approx(0.25, rel=1e-12)

    def test_zero_threshold(self):
        assert NoiseSpec("laplace", gamma=3.0).tail(0.0) == 1.0


class TestGaussianTailBound:
    def test_formula(self):
        assert gaussian(1.0).tail(2.0) == pytest.approx(2 * math.exp(-2), rel=1e-12)

    def test_clamped_at_zero_threshold(self):
        assert gaussian(1.0).tail(0.0) == 1.0

    def test_scale_invariance(self):
        assert gaussian(2.0).tail(4.0) == pytest.approx(gaussian(1.0).tail(2.0), rel=1e-12)


@pytest.mark.parametrize("threshold", [-1.0, math.nan])
def test_tail_refuses_a_negative_or_nan_threshold(threshold):
    for spec in (laplace(1.0), gaussian(1.0)):
        with pytest.raises(ValueError, match=r"^threshold must be non-negative, got "):
            spec.tail(threshold)


class TestUnionFlipBound:
    def test_laplace_inverts_required_constant(self):
        c = required_constant_laplace(10, 1e-6, 0.01)
        spec = NoiseSpec("laplace", gamma=0.01)
        assert union_flip_bound(10, spec, c) == pytest.approx(1e-6, rel=1e-9)

    def test_single_class_reduces_to_tail(self):
        spec = NoiseSpec("laplace", gamma=0.5)
        assert union_flip_bound(1, spec, 2.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_gaussian_inverts_required_constant(self):
        c = required_constant_gaussian(10, 1e-6, 1.0)
        spec = NoiseSpec("gaussian", sigma=1.0)
        assert union_flip_bound(10, spec, c) == pytest.approx(1e-6, rel=1e-9)


class TestRequiredConstants:
    def test_laplace_value(self):
        assert required_constant_laplace(10, 1e-6, 0.01) == pytest.approx(100 * math.log(1e7), rel=1e-12)
        assert required_constant_laplace(10, 1e-6, 0.01) == pytest.approx(1611.8096, rel=1e-6)

    def test_laplace_round_trip(self):
        c0 = 37.5
        tau = 10 * math.exp(-0.2 * c0)
        assert required_constant_laplace(10, tau, 0.2) == pytest.approx(c0, rel=1e-12)

    def test_laplace_unit_case(self):
        assert required_constant_laplace(2, 2 / math.e, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_value(self):
        expected = math.sqrt(2 * math.log(2e7))
        assert required_constant_gaussian(10, 1e-6, 1.0) == pytest.approx(expected, rel=1e-12)
        assert required_constant_gaussian(10, 1e-6, 1.0) == pytest.approx(5.7985, rel=1e-4)

    def test_gaussian_linear_in_sigma(self):
        one = required_constant_gaussian(10, 1e-4, 1.0)
        assert required_constant_gaussian(10, 1e-4, 3.0) == pytest.approx(3 * one, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError):
            required_constant_laplace(10, tau, 1.0)

    @pytest.mark.parametrize("num_classes", [1, 2, 10, 1000])
    @pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e-9, 0.01, 0.5, 0.999])
    def test_closed_forms_bit_for_bit(self, num_classes, tau):
        for p in (1e-3, 0.3, 1.0, 7.5, 1e300):
            assert required_constant_laplace(num_classes, tau, p) == math.log(num_classes / tau) / p
            assert required_constant_gaussian(num_classes, tau, p) == (
                p * math.sqrt(2.0 * math.log(2.0 * num_classes / tau)))

    @pytest.mark.parametrize("constant, param", [(required_constant_laplace, "gamma"),
                                                 (required_constant_gaussian, "sigma")])
    def test_messages_name_the_parameter(self, constant, param):
        for args, message in (((0, 0.5, 1.0), "need at least one class, got 0"),
                              ((10, 1.0, 1.0), "tau must lie in (0, 1), got 1.0"),
                              ((10, 0.5, 0.0), f"{param} must be positive, got 0.0"),
                              ((10, 0.5, math.nan), f"{param} must be positive, got nan")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                constant(*args)


class TestNoiseSpec:
    def test_laplace_scale(self):
        assert NoiseSpec("laplace", gamma=0.5, sensitivity=2.0).scale == 4.0

    def test_gaussian_scale(self):
        assert NoiseSpec("gaussian", sigma=3.0, sensitivity=2.0).scale == 6.0

    @pytest.mark.parametrize("kwargs", [
        dict(kind="laplace"),
        dict(kind="laplace", gamma=0.5, sigma=1.0),
        dict(kind="gaussian"),
        dict(kind="gaussian", sigma=-1.0),
        dict(kind="cauchy", gamma=1.0),
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    @pytest.mark.parametrize("mechanism", list(NOISE_KIND))
    def test_messages_name_the_kind_and_its_parameter(self, mechanism):
        kind, param, other = KINDS[mechanism]
        for kwargs, message in (
                (dict(kind="cauchy", **{param: 1.0}),
                 "noise kind must be 'laplace' or 'gaussian', got 'cauchy'"),
                (dict(kind=kind), f"{kind} noise needs a positive {param}"),
                (dict(kind=kind, **{param: -1.0}), f"{kind} noise needs a positive {param}"),
                (dict(kind=kind, **{other: 1.0}), f"{kind} noise needs a positive {param}"),
                (dict(kind=kind, **{param: 1.0, other: 1.0}),
                 f"{kind} noise takes {param}, not {other}"),
                (dict(kind=kind, **{param: 1.0}, sensitivity=0.0),
                 "sensitivity must be positive, got 0.0")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                NoiseSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="laplace", gamma=0.1, sensitivity=3.6787944117144235e307),
         "laplace noise scale must be finite, got sensitivity 3.6787944117144235e+307 / gamma 0.1"),
        (dict(kind="laplace", gamma=1.0, sensitivity=np.array([[1.0], [np.inf]])),
         "laplace noise scale must be finite, got sensitivity inf / gamma 1.0"),
        (dict(kind="gaussian", sigma=1e300, sensitivity=np.array([[1.0], [1e10]])),
         "gaussian noise scale must be finite, got sensitivity 10000000000.0 * sigma 1e+300"),
        (dict(kind="laplace", gamma=5e-324), "got sensitivity 1.0 / gamma 5e-324"),
    ])
    def test_rejects_a_scale_that_is_not_finite(self, kwargs, message):
        # the calibrated scale overflows to inf, which would drown every count in infinite noise
        with pytest.raises(ValueError) as info:
            NoiseSpec(**kwargs)
        assert str(info.value).endswith(message)


    @pytest.mark.parametrize("kind, param", [("laplace", "gamma"), ("gaussian", "sigma")])
    @pytest.mark.parametrize("sensitivity", [1.0, 0.36787944117144233, 4.0463738528858656, 7e-5])
    def test_a_scalar_sensitivity_draws_the_bits_of_its_column(self, kind, param, sensitivity):
        # a block whose rows share one sensitivity draws at the scalar; it must not move a draw
        rows, classes = 1000, 100
        column = NoiseSpec(kind, sensitivity=np.full((rows, 1), sensitivity), **{param: 0.3})
        scalar = NoiseSpec(kind, sensitivity=sensitivity, **{param: 0.3})
        drawn = [spec.sample(RngStream(41, (7,)), size=(rows, classes))
                 for spec in (column, scalar)]
        assert drawn[0].tobytes() == drawn[1].tobytes()

class TestExceedanceAgainstUnionBound:
    def test_laplace_grid(self):
        stream = RngStream(90)
        cases = [(2, 0.5, 0.02), (5, 1.0, 0.01), (10, 2.0, 0.005), (16, 0.25, 0.01)]
        for i, (num_classes, gamma, tau) in enumerate(cases):
            spec = NoiseSpec("laplace", gamma=gamma)
            c = required_constant_laplace(num_classes, tau, gamma)
            est = exceedance_probability_mc(spec, num_classes, c, N, stream.substream(i))
            bound = union_flip_bound(num_classes, spec, c)
            assert est.estimate <= bound + 3 * est.standard_error

    def test_gaussian_grid(self):
        stream = RngStream(91)
        for i, (num_classes, ratio) in enumerate([(3, 1.5), (10, 2.0), (12, 3.0)]):
            spec = NoiseSpec("gaussian", sigma=2.0)
            c = ratio * spec.scale
            est = exceedance_probability_mc(spec, num_classes, c, N, stream.substream(i))
            assert est.estimate <= union_flip_bound(num_classes, spec, c)

    @pytest.mark.parametrize("threshold", [-1.0, math.nan])
    def test_refuses_a_negative_or_nan_threshold(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must be non-negative, got "):
            exceedance_probability_mc(laplace(1.0), 10, threshold, 100, RngStream(92))


@given(st.floats(0.01, 100), st.floats(0.01, 100))
def test_probability_outputs_in_unit_interval(threshold, gamma):
    assert 0.0 <= NoiseSpec("laplace", gamma=gamma).tail(threshold) <= 1.0
    assert 0.0 <= gaussian(gamma).tail(threshold) <= 1.0
    spec = NoiseSpec("laplace", gamma=gamma)
    assert 0.0 <= union_flip_bound(7, spec, threshold) <= 1.0


class TestMonteCarloBlocks:
    TRIALS = 2_003  # prime, so no block of more than one row divides it
    FLIP_VOTES = VoteHistogram([3, 6, 5, 1, 0, 2, 0, 0, 1, 2])

    def oracle_outputs(self):
        stream = RngStream(70)
        flips = [flip_probability_mc(self.FLIP_VOTES, 1.0, spec, self.TRIALS,
                                     stream.substream(i)).hits
                 for i, spec in enumerate([laplace(2.0), gaussian(2.0)])]
        exceedances = [exceedance_probability_mc(spec, 10, 3.0, self.TRIALS,
                                                 stream.substream(2 + i)).hits
                       for i, spec in enumerate([laplace(1.0), gaussian(1.5)])]
        ratio = dp_ratio_check(VoteHistogram([6, 3, 3]), 100.0, 0.5, 1.0, self.TRIALS,
                               stream.substream(4))
        return flips, exceedances, ratio.neighbor_log_ratios

    def test_block_size_does_not_change_any_oracle(self, monkeypatch):
        # values per block: one row, rows that do not divide the trials, the default, one array
        outputs = {}
        for values in (1, 700, noise._MC_BLOCK, 10 * self.TRIALS + 1):
            monkeypatch.setattr(noise, "_MC_BLOCK", values)
            outputs[values] = self.oracle_outputs()
        (flips, exceedances, _), *_ = outputs.values()
        assert 0 < min(flips + exceedances) and max(flips + exceedances) < self.TRIALS
        assert all(each == outputs[1] for each in outputs.values())

    def test_a_block_is_the_whole_rows_that_fit_and_at_least_one(self):
        rows = [len(block) for block in noise.noise_blocks(laplace(1.0), 10, 50_000,
                                                           RngStream(71))]
        assert rows[0] == noise._MC_BLOCK // 10 and sum(rows) == 50_000
        wide = [block.shape for block in noise.noise_blocks(laplace(1.0), 2 * noise._MC_BLOCK,
                                                            3, RngStream(72))]
        assert wide == [(1, 2 * noise._MC_BLOCK)] * 3

    @pytest.mark.parametrize("sensitivity", [2.5, np.linspace(0.5, 3.0, 40)[:, None]])
    def test_in_place_gaussian_draw_equals_scaled_draw(self, sensitivity):
        spec = NoiseSpec("gaussian", sigma=1.7, sensitivity=sensitivity)
        drawn = spec.sample(RngStream(73), size=(40, 6))
        expected = spec.scale * RngStream(73).generator().standard_normal((40, 6))
        assert drawn.tobytes() == expected.tobytes()
        assert np.array_equal(spec.sample(RngStream(74)),
                              spec.scale * RngStream(74).generator().standard_normal())

    def test_exceedance_peak_memory_stays_under_a_megabyte(self):
        tracemalloc.start()
        try:
            exceedance_probability_mc(laplace(1.0), 10, 3.0, 100_000, RngStream(75))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_only_the_noise_module_compares_noise_kind_names():
    # which noise a kind adds and charges is decided by its NoiseKind record in dpvote.noise;
    # a comparison with a kind name anywhere else is a second copy of that decision
    names = {"laplace", "gaussian"}
    found = []
    for path in sorted(Path(dpvote.__path__[0]).glob("*.py")):
        if path.name == "noise.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(leaf, ast.Constant) and leaf.value in names
                    for operand in (node.left, *node.comparators) for leaf in ast.walk(operand)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"noise kind names compared outside noise.py at {', '.join(found)}"
