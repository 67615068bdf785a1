import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpvote import (
    SensitivityEstimate,
    VoteHistogram,
    argmax,
    brute_force_local,
    brute_force_smooth,
    enumerate_neighbors,
    flip_moves,
    gap,
    smooth_from_moves,
    smooth_sensitivity,
    smooth_values,
    top_two,
    top_two_flip_moves,
)
from dpvote.ensemble import SyntheticTeacherSpec, default_accuracy, synth_votes
from dpvote.noise import RngStream

histograms = st.lists(st.integers(0, 30), min_size=2, max_size=8).filter(lambda c: sum(c) >= 1)
boost_values = st.sampled_from([0.0, 1.0, 9.0, 100.0])


def local_from_flip_moves(votes, c):
    """The closed-form local sensitivity: 1 + c when one vote move changes the argmax."""
    return 1.0 + c if flip_moves(votes)[0] <= 1 else 1.0


class TestLocalSensitivity:
    def test_wide_margin(self):
        assert local_from_flip_moves(VoteHistogram([10, 2, 2]), 5.0) == 1.0

    def test_narrow_margin(self):
        assert local_from_flip_moves(VoteHistogram([5, 4, 0]), 5.0) == 6.0

    def test_zero_boost_collapses_branches(self):
        assert local_from_flip_moves(VoteHistogram([7, 5, 0]), 0.0) == 1.0

    def test_margin_two_protected_by_tie_rule(self):
        # moving a vote from the winner only creates a tie, which the
        # lowest-index rule resolves back to the winner
        assert local_from_flip_moves(VoteHistogram([5, 3]), 3.0) == 1.0
        assert brute_force_local(VoteHistogram([5, 3]), 3.0) == 1.0

    def test_margin_two_flippable_when_runner_up_precedes(self):
        assert local_from_flip_moves(VoteHistogram([3, 5]), 3.0) == 4.0
        assert brute_force_local(VoteHistogram([3, 5]), 3.0) == 4.0


class TestSmoothSensitivity:
    def test_strong_consensus_small_branch(self):
        est = smooth_sensitivity(VoteHistogram([10, 2, 2]), 1e100, 1.0)
        assert est.value == pytest.approx(math.exp(-1), rel=1e-12)

    def test_weak_consensus_large_branch(self):
        est = smooth_sensitivity(VoteHistogram([5, 4, 0]), 9.0, 1.0)
        assert est.value == pytest.approx(10 * math.exp(-1), rel=1e-12)

    def test_gap_three_boundary_takes_large_branch(self):
        est = smooth_sensitivity(VoteHistogram([6, 3, 0]), 9.0, 1.0)
        assert est.value == pytest.approx(10 * math.exp(-1), rel=1e-12)

    def test_gap_four_with_flippable_neighbor(self):
        # [2,6] clears the distance-3 threshold, but its neighbor [3,5] can be
        # flipped by a further move, so the radius-1 scan keeps the big branch
        est = smooth_sensitivity(VoteHistogram([2, 6]), 9.0, 1.0)
        assert est.value == pytest.approx(10 * math.exp(-1), rel=1e-12)
        assert est.value == brute_force_smooth(VoteHistogram([2, 6]), 9.0, 1.0)

    def test_monotone_in_beta(self):
        v = VoteHistogram([5, 4, 0])
        values = [smooth_sensitivity(v, 9.0, b).value for b in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_rejects_non_positive_beta(self):
        with pytest.raises(ValueError):
            smooth_sensitivity(VoteHistogram([5, 4]), 1.0, 0.0)

    @pytest.mark.parametrize("smooth", [smooth_sensitivity, brute_force_smooth])
    def test_rejects_beta_whose_discount_underflows(self, smooth):
        # e^-746 is 0.0, which would make every sensitivity 0
        with pytest.raises(ValueError, match=r"^beta 746\.0 is too large: e\^-beta underflows"):
            smooth(VoteHistogram([5, 4]), 1.0, 746.0)


class TestEnumerateNeighbors:
    def test_two_bins_one_empty(self):
        got = {h.counts for h in enumerate_neighbors(VoteHistogram([2, 0]))}
        assert got == {(2, 0), (1, 1)}

    def test_two_bins_balanced(self):
        got = {h.counts for h in enumerate_neighbors(VoteHistogram([1, 1]))}
        assert got == {(1, 1), (2, 0), (0, 2)}

    def test_count_formula(self):
        # one move per ordered pair of (nonempty source, other destination), plus itself
        neighbors = enumerate_neighbors(VoteHistogram([3, 2, 1]))
        assert len(neighbors) == 7

    @given(histograms)
    def test_every_neighbor_preserves_total(self, counts):
        v = VoteHistogram(counts)
        for w in enumerate_neighbors(v):
            assert sum(w.counts) == sum(v.counts)
            assert max(abs(a - b) for a, b in zip(w.counts, v.counts)) <= 1


class TestBruteForceLocal:
    @pytest.mark.parametrize("counts,c,expected", [
        ([10, 2, 2], 5.0, 1.0),
        ([5, 4, 0], 5.0, 6.0),
        ([2, 2], 3.0, 4.0),  # tied winner relocates the boost under one move
    ])
    def test_examples(self, counts, c, expected):
        assert brute_force_local(VoteHistogram(counts), c) == expected


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(histograms, boost_values)
    def test_local_matches_brute_force(self, counts, c):
        v = VoteHistogram(counts)
        assert local_from_flip_moves(v, c) == brute_force_local(v, c)

    @settings(max_examples=200, deadline=None)
    @given(histograms, boost_values, st.sampled_from([0.5, 1.0, 2.0]))
    def test_smooth_matches_brute_force(self, counts, c, beta):
        v = VoteHistogram(counts)
        assert smooth_sensitivity(v, c, beta).value == brute_force_smooth(v, c, beta)

    def test_seeded_sweep(self):
        gen = np.random.default_rng(20240817)
        for i in range(500):
            num_classes = int(gen.integers(2, 9))
            teachers = int(gen.integers(1, 65))
            v = VoteHistogram(gen.multinomial(teachers, gen.dirichlet(np.ones(num_classes))))
            c = (0.0, 1.0, 9.0, 100.0)[i % 4]
            beta = (0.5, 1.0, 2.0)[i % 3]
            assert local_from_flip_moves(v, c) == brute_force_local(v, c)
            assert smooth_sensitivity(v, c, beta).value == brute_force_smooth(v, c, beta)


class TestDominance:
    @settings(max_examples=200, deadline=None)
    @given(histograms, boost_values, st.sampled_from([0.5, 1.0, 2.0]))
    def test_local_below_global_and_smooth_below_worst_neighbor(self, counts, c, beta):
        v = VoteHistogram(counts)
        assert brute_force_local(v, c) <= 1.0 + c  # the global sensitivity
        assert smooth_sensitivity(v, c, beta).value * math.exp(beta) <= 1.0 + c + 1e-9


class TestNeighborhoodStructure:
    def test_distance_four_neighbors_are_all_distance_two(self):
        gen = np.random.default_rng(66)
        checked = 0
        while checked < 100:
            counts = gen.multinomial(40, gen.dirichlet(np.ones(5)))
            counts[int(np.argmax(counts))] += 5
            v = VoteHistogram(counts)
            if gap(v) <= 4:
                continue
            checked += 1
            for w in enumerate_neighbors(v):
                assert gap(w) > 2

    def test_distance_three_neighbors_keep_argmax_and_margin(self):
        gen = np.random.default_rng(67)
        checked = 0
        while checked < 100:
            counts = gen.multinomial(40, gen.dirichlet(np.ones(5)))
            counts[int(np.argmax(counts))] += 4
            v = VoteHistogram(counts)
            if gap(v) <= 3:
                continue
            checked += 1
            for w in enumerate_neighbors(v):
                assert argmax(w) == argmax(v)
                assert gap(w) >= 2


class TestFlipMoves:
    @pytest.mark.parametrize("counts,expected", [
        ([4, 4, 0], 1),       # tie at the top: the later tied bin needs one move
        ([0, 4, 4], 1),
        ([5, 3], 2),          # margin 2, runner-up after the winner: floor(2/2) + 1
        ([5, 3, 3], 2),
        ([3, 5], 1),          # margin 2, runner-up before the winner: ceil(2/2)
        ([3, 5, 3], 1),       # one rival before and one after; the earlier is closer
        ([6, 3, 0], 2),       # margin 3 after: floor(3/2) + 1
        ([3, 6], 2),          # margin 3 before: ceil(3/2)
        ([7, 3], 3),          # margin 4 after
        ([3, 7], 2),          # margin 4 before
        ([1, 0], 1),          # one vote, after: it moves to the rival
        ([0, 1], 1),          # one vote, before
        ([0, 0, 1, 0], 1),
        ([10, 0, 0], 6),      # five moves only tie, which the winner keeps
    ])
    def test_edge_cases(self, counts, expected):
        assert flip_moves(VoteHistogram(counts)).tolist() == [expected]
        assert flip_moves(np.array([counts, counts])).tolist() == [expected, expected]

    @pytest.mark.parametrize("counts", [[4, 4, 0], [5, 3], [3, 5], [6, 3, 0], [1, 0], [2, 6]])
    def test_zero_boost_constant_collapses_both_branches(self, counts):
        v = VoteHistogram(counts)
        assert local_from_flip_moves(v, 0.0) == 1.0 == brute_force_local(v, 0.0)
        assert smooth_values(v, 0.0, 1.0).tolist() == [math.exp(-1)]
        assert brute_force_smooth(v, 0.0, 1.0) == math.exp(-1)

    def test_batch_matches_brute_force_row_by_row(self):
        # few teachers, so ties and narrow margins (both branches) are common
        gen = np.random.default_rng(20261018)
        for num_classes in range(2, 7):
            teachers = gen.integers(1, 25, size=300)
            counts = np.stack([gen.multinomial(t, gen.dirichlet(np.ones(num_classes)))
                               for t in teachers])
            for c, beta in [(0.0, 1.0), (1.0, 0.5), (9.0, 2.0), (100.0, 1.0)]:
                smooth = smooth_values(counts, c, beta)
                local = np.where(flip_moves(counts) <= 1, 1.0 + c, 1.0)
                for row, s, loc in zip(counts, smooth, local):
                    v = VoteHistogram(row)
                    assert s == brute_force_smooth(v, c, beta), (row, c, beta)
                    assert loc == brute_force_local(v, c), (row, c)

    def test_flip_moves_and_smooth_values_are_one_of_the_two_at_the_rows_gap(self):
        # few votes per bin, so ties at the top and either order of the leading bins are common
        gen = np.random.default_rng(20261020)
        for num_classes in range(2, 7):
            counts = gen.integers(0, 6, size=(2000, num_classes))
            counts = counts[counts.sum(axis=1) > 0]  # a histogram holds a vote
            gaps = gap(counts)
            # a runner-up at index 0 before the winner (at 1), then after it (at -1)
            before, after = (top_two_flip_moves(np.full_like(gaps, w), 0, gaps) for w in (1, -1))
            moves = flip_moves(counts)
            assert np.all((moves == before) | (moves == after))
            assert np.any(moves != before) and np.any(moves != after)
            for c, beta in [(0.0, 1.0), (9.0, 0.5), (1e100, 2.0)]:
                smooth = smooth_values(counts, c, beta)
                assert np.all((smooth == smooth_from_moves(before, c, beta))
                              | (smooth == smooth_from_moves(after, c, beta)))

    def test_top_two_flip_moves_takes_an_object_gap_column(self):
        # queries.csv allows a gap beyond int64, which numpy holds as Python ints
        gaps = np.array([0, 3, 4, 2**70], dtype=object)
        # a runner-up at index 0 before the winner (at 1), then after it (at -1)
        before, after = (top_two_flip_moves(np.full(4, w), 0, gaps) for w in (1, -1))
        assert before.tolist() == [0, 2, 2, 2**69] and after.tolist() == [1, 2, 3, 2**69 + 1]
        assert smooth_from_moves(after, 9.0, 1.0).tolist() == [10 * math.exp(-1)] * 2 + [
            math.exp(-1)] * 2

    def test_scalar_functions_are_a_batch_of_one(self):
        counts = np.array([[5, 3], [3, 5], [9, 1]])
        smooth = smooth_values(counts, 9.0, 1.0)
        for row, value in zip(counts, smooth):
            estimate = smooth_sensitivity(VoteHistogram(row), 9.0, 1.0)
            assert estimate == SensitivityEstimate(value, 1.0)


def margins_flip_moves(counts):
    """The all-rivals formula k* had before the top-two kernel, kept as its oracle."""
    rows = np.arange(len(counts))
    winners = np.argmax(counts, axis=1)
    margins = counts[rows, winners][:, None] - counts
    before = np.arange(counts.shape[1]) < winners[:, None]
    moves = np.where(before, (margins + 1) // 2, margins // 2 + 1)
    moves[rows, winners] = np.iinfo(np.int64).max  # the winner is not its own rival
    return moves.min(axis=1)


def partition_gap(counts):
    """The np.partition gap the top-two kernel replaced, kept as its oracle."""
    part = np.partition(counts, -2, axis=1)
    return part[:, -1] - part[:, -2]


def few_teacher_rows(gen, size, num_classes):
    """``size`` histograms of 1-6 votes each over ``num_classes`` bins: ties are everywhere."""
    teachers = gen.integers(1, 7, size=size)
    votes = gen.integers(0, num_classes, size=(size, 6))
    counts = np.zeros((size, num_classes), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(size), 6), votes.ravel()),
              (np.arange(6) < teachers[:, None]).ravel())
    return counts


def synthetic_block(teachers, num_classes):
    spec = SyntheticTeacherSpec(teachers, num_classes, default_accuracy(teachers))
    truths = np.random.default_rng(teachers).integers(num_classes, size=1000)
    return synth_votes(spec, truths, RngStream(7).substream(1, 0))


class TestTopTwoKernel:
    def assert_matches_the_oracles(self, counts):
        winners, runners, gaps = top_two(counts)
        assert np.array_equal(winners, np.argmax(counts, axis=1))
        assert np.array_equal(gaps, partition_gap(counts))
        masked = np.where(np.arange(counts.shape[1]) == winners[:, None], -1, counts)
        assert np.array_equal(runners, np.argmax(masked, axis=1))
        assert np.array_equal(flip_moves(counts), margins_flip_moves(counts))
        assert np.array_equal(top_two_flip_moves(winners, runners, gaps),
                              margins_flip_moves(counts))
        assert np.array_equal(gap(counts), gaps)

    def test_matches_the_oracles_on_rows_full_of_ties(self):
        gen = np.random.default_rng(20261020)
        for num_classes in range(2, 13):  # 11 x 10 000 rows
            counts = few_teacher_rows(gen, 10_000, num_classes)
            self.assert_matches_the_oracles(counts)
            winners, runners, gaps = top_two(counts)
            assert np.any(gaps == 0) and np.any(runners < winners) and np.any(runners > winners)

    @pytest.mark.parametrize("teachers,num_classes", [(250, 10), (25, 100)])
    def test_matches_the_oracles_on_a_synthetic_block(self, teachers, num_classes):
        self.assert_matches_the_oracles(synthetic_block(teachers, num_classes))

    @pytest.mark.parametrize("counts", [[[0, 3, 3]], np.empty((0, 4), dtype=np.int64)])
    def test_one_row_and_no_row(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        self.assert_matches_the_oracles(counts)
        assert [column.shape for column in top_two(counts)] == [(len(counts),)] * 3
