import math
import tracemalloc

import numpy as np
import pytest

from dpvote import (
    MechanismBatch,
    NoiseSpec,
    RngStream,
    VoteHistogram,
    argmax,
    boost,
    dp_ratio_check,
    enumerate_neighbors,
    flip_probability_mc,
    gap,
    lnmax,
    noisy_argmax,
    nzc_gaussian,
    nzc_laplace,
    required_constant_gaussian,
    smooth_sensitivity,
    smooth_values,
    top_two,
)
from dpvote import mechanisms, noise

STRONG = VoteHistogram([170, 40, 40])       # wide margin, small smooth branch
SYMMETRIC = VoteHistogram([5, 5])


class TestNoisyArgmax:
    def test_deterministic_core(self):
        assert noisy_argmax([1.0, 3.0, 2.0], [0.0, 0.0, 0.0]) == 1
        assert noisy_argmax([1.0, 3.0, 2.0], [5.0, 0.0, 0.0]) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            noisy_argmax([1.0, 2.0], [0.0])


class TestLnmax:
    def test_small_noise_preserves_winner(self):
        v = VoteHistogram([250] + [0] * 9)
        stream = RngStream(100)
        hits = sum(
            lnmax(v, 20.0, stream.substream(i)).returned_labels[0] == 0
            for i in range(10_000)
        )
        assert hits / 10_000 >= 0.999

    def test_zero_noise_limit_recovers_argmax(self):
        v = VoteHistogram([3, 9, 4])
        out = lnmax(v, 1e12, RngStream(101))
        assert out.returned_labels[0] == argmax(v)

    def test_symmetric_votes_split_evenly(self):
        stream = RngStream(102)
        hits = sum(
            lnmax(SYMMETRIC, 1.0, stream.substream(i)).returned_labels[0] == 0
            for i in range(10_000)
        )
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_row_is_charged_its_gamma_at_sensitivity_one(self):
        out = lnmax(VoteHistogram([5, 1]), 0.25, RngStream(103))
        assert out.parameters.tolist() == [0.25]
        assert out.sensitivities.tolist() == [1.0]

    def test_raw_scale_mode_sets_effective_gamma(self):
        out = lnmax(VoteHistogram([5, 1]), None, RngStream(104), scale=10.0)
        assert out.parameters[0] == pytest.approx(0.1, rel=1e-12)

    def test_rejects_both_gamma_and_scale(self):
        with pytest.raises(ValueError):
            lnmax(VoteHistogram([5, 1]), 0.5, RngStream(105), scale=1.0)

    def test_rejects_infinite_gamma(self):
        with pytest.raises(ValueError, match=r"^lnmax: gamma must be a finite number, got inf$"):
            lnmax(VoteHistogram([5, 1]), math.inf, RngStream(106))


class TestNzcLaplace:
    def test_huge_boost_tiny_gamma_never_flips(self):
        # strong-consensus histograms keep the small smooth branch, so the
        # noise scale stays far below the boost constant
        stream = RngStream(110)
        sens = smooth_sensitivity(STRONG, 1e100, 1.0)
        assert sens.value == pytest.approx(math.exp(-1), rel=1e-12)
        boosted = boost(STRONG, 1e100)
        noise = NoiseSpec("laplace", gamma=1e-10, sensitivity=sens.value).sample(
            stream.generator(), size=(100_000, 3))
        labels = np.argmax(boosted + noise, axis=1)
        assert np.all(labels == argmax(STRONG))

    def test_sensitivity_used_on_wide_margin(self):
        out = nzc_laplace(STRONG, 1e100, 1e-10, 1.0, RngStream(111))
        assert out.sensitivities[0] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_zero_boost_matches_lnmax_with_same_scale(self):
        # with c=0 the boosted counts equal the raw counts and the smooth
        # sensitivity is e^-beta for every histogram, so lnmax (sensitivity 1)
        # at gamma*e^beta consumes the identical noise stream (same scale
        # e^-beta/gamma) and returns the same label
        beta = 1.0
        for i, counts in enumerate([[5, 4, 0], [2, 2, 1], [9, 1, 5], [3, 3, 3]]):
            v = VoteHistogram(counts)
            stream = RngStream(112, (i,))
            a = nzc_laplace(v, 0.0, 0.7, beta, stream)
            b = lnmax(v, 0.7 * math.exp(beta), stream)
            assert a.returned_labels[0] == b.returned_labels[0]

    def test_zero_boost_large_gamma_degenerates_to_argmax(self):
        v = VoteHistogram([3, 9, 4])
        out = nzc_laplace(v, 0.0, 1e12, 1.0, RngStream(113))
        assert out.returned_labels[0] == argmax(v)

    def test_rejects_infinite_gamma(self):
        with pytest.raises(ValueError,
                           match=r"^nzc-laplace: gamma must be a finite number, got inf$"):
            nzc_laplace(STRONG, 10.0, math.inf, 1.0, RngStream(114))


class TestNzcGaussian:
    def test_tiny_sigma_recovers_argmax(self):
        v = VoteHistogram([3, 9, 4])
        out = nzc_gaussian(v, 5.0, 1e-9, 1.0, RngStream(120))
        assert out.returned_labels[0] == argmax(v)

    def test_symmetric_votes_split_evenly(self):
        stream = RngStream(121)
        hits = sum(
            nzc_gaussian(SYMMETRIC, 0.0, 1.0, 1.0, stream.substream(i)).returned_labels[0] == 0
            for i in range(10_000)
        )
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_flip_rate_below_tau_at_required_constant(self):
        tau = 1e-3
        sigma = 2.0
        sens = smooth_sensitivity(STRONG, 0.0, 1.0).value
        c = required_constant_gaussian(STRONG.num_classes, tau, sens * sigma)
        spec = NoiseSpec("gaussian", sigma=sigma, sensitivity=sens)
        est = flip_probability_mc(STRONG, c, spec, 100_000, RngStream(122))
        assert est.estimate <= tau + 3 * max(est.standard_error, 1e-12)

    def test_row_is_charged_its_sigma(self):
        out = nzc_gaussian(STRONG, 10.0, 3.0, 1.0, RngStream(123))
        assert out.parameters.tolist() == [3.0]
        assert out.sensitivities.tolist() == [math.exp(-1.0)]  # far from a flip

    def test_rejects_infinite_sigma(self):
        with pytest.raises(ValueError,
                           match=r"^nzc-gaussian: sigma must be a finite number, got inf$"):
            nzc_gaussian(STRONG, 10.0, math.inf, 1.0, RngStream(124))


class TestBatch:
    """A count matrix goes through the same kernel; a histogram is a batch of one."""

    COUNTS = np.array([[5, 4, 0], [2, 2, 1], [9, 1, 5], [3, 3, 3], [0, 1, 8]])
    CALLS = {
        "lnmax": lambda votes, rng: lnmax(votes, None, rng, scale=2.0),
        "nzc-laplace": lambda votes, rng: nzc_laplace(votes, 3.0, None, 1.0, rng, scale=2.0),
        "nzc-gaussian": lambda votes, rng: nzc_gaussian(votes, 3.0, None, 1.0, rng, scale=2.0),
    }

    @pytest.mark.parametrize("mechanism", sorted(CALLS))
    def test_each_row_answered_alone_equals_the_batch(self, mechanism):
        call = self.CALLS[mechanism]
        batch = call(self.COUNTS, RngStream(130))
        assert isinstance(batch, MechanismBatch)
        assert batch.returned_labels.shape == batch.sensitivities.shape == (5,)
        assert batch.parameters.shape == (5,)
        # the first k rows of the matrix draw the same noise as the whole batch, and a
        # histogram is a batch of one row
        heads = [call(self.COUNTS[:k], RngStream(130)) for k in range(1, 6)]
        one = call(VoteHistogram(self.COUNTS[0]), RngStream(130))
        assert isinstance(one, MechanismBatch)
        for head in (*heads, one):
            k = len(head.returned_labels)
            for column in ("returned_labels", "sensitivities", "parameters"):
                assert getattr(head, column).tolist() == getattr(batch, column)[:k].tolist()

    def test_raw_scale_is_drawn_exactly(self, monkeypatch):
        # at c=1e100 most rows have sensitivity 3.68e99, where sens / (sens / 0.7) != 0.7
        scales = []
        sample = NoiseSpec.sample

        def spy(spec, rng, size=None):
            scales.append(spec.scale)
            return sample(spec, rng, size)

        monkeypatch.setattr(NoiseSpec, "sample", spy)
        nzc_laplace(self.COUNTS, 1e100, None, 1.0, RngStream(134), scale=0.7)
        nzc_gaussian(self.COUNTS, 1e100, None, 1.0, RngStream(134), scale=0.7)
        assert len(scales) == 2
        assert all(np.all(np.asarray(scale) == 0.7) for scale in scales)

    def test_rows_with_one_sensitivity_share_one_parameter(self):
        batch = nzc_laplace(self.COUNTS, 3.0, None, 1.0, RngStream(131), scale=2.0)
        pairs = set(zip(batch.sensitivities.tolist(), batch.parameters.tolist()))
        assert len(pairs) == len(set(batch.sensitivities.tolist())) == 2

    @pytest.mark.parametrize("mechanism", ["nzc-laplace", "nzc-gaussian"])
    def test_boosted_values_and_sensitivities_are_those_of_the_public_functions(
            self, monkeypatch, mechanism):
        # the mechanisms boost the top-two winner of their one check; the values they
        # add noise to are boost's own, and each sensitivity is smooth_values'
        gen = np.random.default_rng(135)
        counts = np.concatenate([self.COUNTS, gen.integers(0, 4, size=(500, 3))])
        counts = counts[counts.sum(axis=1) > 0]
        seen = []
        core = mechanisms.noisy_argmax
        monkeypatch.setattr(mechanisms, "noisy_argmax",
                            lambda values, noise: (seen.append(values), core(values, noise))[1])
        call = nzc_laplace if mechanism == "nzc-laplace" else nzc_gaussian
        for c in (0.0, 3.0, 1e100):
            batch = call(counts, c, None, 1.0, RngStream(136), scale=2.0)
            assert np.array_equal(seen[-1], boost(counts, c))
            assert np.array_equal(batch.sensitivities, smooth_values(counts, c, 1.0))

    def test_rejects_a_malformed_count_matrix(self):
        for bad in (np.array([[1, -1], [2, 0]]), np.array([[0, 0]]), np.array([1, 2]),
                    np.array([[1.0, 2.0]])):
            with pytest.raises(ValueError):
                lnmax(bad, 1.0, RngStream(132))


class TestFlipProbabilityMc:
    def test_zero_noise_limit(self):
        spec = NoiseSpec("laplace", gamma=1e9)
        est = flip_probability_mc(VoteHistogram([7, 3]), 0.0, spec, 5_000, RngStream(130))
        assert est.estimate == 0.0

    def test_symmetric_tie_flips_half_the_time(self):
        spec = NoiseSpec("laplace", gamma=1.0)
        est = flip_probability_mc(SYMMETRIC, 0.0, spec, 50_000, RngStream(131))
        assert est.estimate == pytest.approx(0.5, abs=0.01)

    def test_bounded_by_tau_at_required_constant(self):
        from dpvote import required_constant_laplace

        gamma = 0.5
        tau = 1e-3
        c = required_constant_laplace(10, tau, gamma)
        v = VoteHistogram([30] + [2] * 9)
        spec = NoiseSpec("laplace", gamma=gamma)
        est = flip_probability_mc(v, c, spec, 100_000, RngStream(132))
        assert est.estimate <= tau + 3 * max(est.standard_error, 1e-12)

    def test_rejects_non_positive_trials(self):
        with pytest.raises(ValueError):
            flip_probability_mc(SYMMETRIC, 0.0, NoiseSpec("laplace", gamma=1.0), 0, RngStream(133))


class TestBoundedNoiseImmutability:
    def test_fixed_bounded_noise_cannot_flip_with_large_boost(self):
        gen = np.random.default_rng(140)
        for _ in range(200):
            counts = gen.multinomial(60, gen.dirichlet(np.ones(6)))
            if counts.max() == np.partition(counts, -2)[-2]:
                counts[int(np.argmax(counts))] += 1  # ensure a unique winner
            v = VoteHistogram(counts)
            bound = 25.0
            noise = gen.uniform(-bound, bound, v.num_classes)
            c = 2 * bound + 2  # dominates any bounded perturbation plus the unit margin
            assert noisy_argmax(boost(v, c), noise) == argmax(v)

    def test_distance_three_neighbors_agree_under_shared_noise(self):
        gen = np.random.default_rng(141)
        for _ in range(100):
            counts = gen.multinomial(80, gen.dirichlet(np.ones(5)))
            counts[int(np.argmax(counts))] += 4
            v = VoteHistogram(counts)
            bound = 25.0
            noise = gen.uniform(-bound, bound, v.num_classes)
            c = 2 * bound + 2
            base = noisy_argmax(boost(v, c), noise)
            for w in enumerate_neighbors(v):
                assert noisy_argmax(boost(w, c), noise) == base


class TestDpRatioCheck:
    def test_identity_neighbor_has_zero_ratio(self):
        res = dp_ratio_check(VoteHistogram([6, 3, 3]), 100.0, 0.5, 1.0, 20_000, RngStream(150))
        assert res.neighbor_log_ratios[0] == 0.0

    def test_calibrated_noise_respects_bound(self):
        gamma = 0.5
        res = dp_ratio_check(VoteHistogram([6, 3, 3]), 100.0, gamma, 1.0, 100_000, RngStream(151))
        assert res.max_log_ratio <= 2 * gamma + 0.1

    def test_under_scaled_noise_fails_bound(self):
        gamma = 0.5
        res = dp_ratio_check(VoteHistogram([5, 4, 3]), 100.0, gamma, 1.0, 100_000,
                             RngStream(152), sensitivity=1.0)
        assert res.max_log_ratio > 2 * gamma + 0.1


class TestRowChunks:
    """A labeling block is drawn, added and reduced in row chunks of the Monte-Carlo block
    size; the chunk size changes no label, sensitivity, parameter or top-two column."""

    COUNTS = np.random.default_rng(140).multinomial(30, np.full(12, 1 / 12), size=301)

    def outputs(self):
        counts = self.COUNTS
        batches = [lnmax(counts, 0.5, RngStream(141)),
                   nzc_laplace(counts, 3.0, 0.5, 1.0, RngStream(142)),  # per-row sensitivities
                   nzc_laplace(counts, 3.0, None, 1.0, RngStream(143), scale=2.0),
                   nzc_gaussian(counts, 3.0, 2.0, 1.0, RngStream(144))]
        columns = [(b.returned_labels.tobytes(), b.sensitivities.tobytes(),
                    b.parameters.tobytes()) for b in batches]
        tops = [tuple(column.tolist() for column in top_two(rows))
                for rows in (counts, counts[:0], counts[:1])]
        return columns, tops

    def test_chunk_size_does_not_change_any_mechanism(self, monkeypatch):
        # values per chunk: one row, rows that do not divide the 301 rows, the default, one chunk
        outputs = {}
        for values in (1, 700, noise._MC_BLOCK, self.COUNTS.size + 1):
            monkeypatch.setattr(noise, "_MC_BLOCK", values)
            outputs[values] = self.outputs()
        (columns, tops), *_ = outputs.values()
        # nzc_laplace at gamma draws at a column of two sensitivities
        assert len(set(np.frombuffer(columns[1][1]).tolist())) == 2
        assert tops[1] == ([], [], []) and len(tops[2][0]) == 1
        assert all(each == outputs[1] for each in outputs.values())


def test_lnmax_nzc_and_gap_peak_below_their_count_matrix():
    # the kernel works in row chunks: no temporary is as large as the block
    counts = np.random.default_rng(150).multinomial(25, np.full(100, 0.01), size=1024)
    for call in (lambda: lnmax(counts, 0.1, RngStream(151)), lambda: gap(counts),
                 lambda: nzc_laplace(counts, 3.0, 0.5, 1.0, RngStream(152))):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < counts.nbytes
