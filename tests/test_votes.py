import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpvote import VoteHistogram, argmax, boost, count_matrix, gap

histograms = st.lists(st.integers(0, 40), min_size=2, max_size=8).filter(lambda c: sum(c) >= 1)


class TestVoteHistogram:
    def test_basic_fields(self):
        v = VoteHistogram([1, 3, 2])
        assert v.counts == (1, 3, 2)
        assert v.num_classes == 3
        assert sum(v.counts) == 6

    def test_accepts_numpy_input(self):
        v = VoteHistogram(np.array([2, 0, 1]))
        assert v.counts == (2, 0, 1)

    @pytest.mark.parametrize("bad", [[], [5], [1, -1], [0, 0], [1.5, 2]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            VoteHistogram(bad)


class TestArgmax:
    @pytest.mark.parametrize("counts,expected", [
        ([1, 3, 2], 1),
        ([2, 2, 1], 0),  # tie resolves to the lowest index
        ([0, 0, 5, 0], 2),
    ])
    def test_examples(self, counts, expected):
        assert argmax(VoteHistogram(counts)) == expected


class TestGap:
    @pytest.mark.parametrize("counts,expected", [
        ([5, 3, 1], 2),
        ([4, 4, 0], 0),
        ([10, 0], 10),
    ])
    def test_examples(self, counts, expected):
        assert gap(VoteHistogram(counts)) == expected


class TestBoost:
    def test_zero_constant_is_identity(self):
        b = boost(VoteHistogram([1, 3, 2]), 0.0)
        assert b.dtype == np.float64
        assert b.tolist() == [1.0, 3.0, 2.0]

    def test_moderate_constant(self):
        b = boost(VoteHistogram([1, 3, 2]), 100.0)
        assert b.tolist() == [1.0, 103.0, 2.0]

    def test_huge_constant_ties_to_lowest_index(self):
        b = boost(VoteHistogram([2, 2, 1]), 1e100)
        # the boost lands on index 0; at this magnitude its count is absorbed by rounding
        assert b.tolist() == [1e100, 2.0, 1.0]

    def test_rejects_negative_constant(self):
        with pytest.raises(ValueError):
            boost(VoteHistogram([1, 2]), -1.0)


class TestProperties:
    @given(histograms, st.floats(0, 1e6))
    def test_translation_immutability(self, counts, c):
        v = VoteHistogram(counts)
        assert argmax(v) == int(np.argmax(boost(v, c)))

    @given(histograms, st.integers(0, 10_000))
    def test_boost_widens_gap_by_c(self, counts, c):
        v = VoteHistogram(counts)
        if gap(v) == 0:
            return
        values = sorted(boost(v, c).tolist(), reverse=True)
        assert values[0] - values[1] == gap(v) + c



class TestCountMatrix:
    def test_one_histogram_is_one_row(self):
        assert count_matrix(VoteHistogram([1, 3, 2])).tolist() == [[1, 3, 2]]

    def test_sequence_of_histograms(self):
        rows = count_matrix([VoteHistogram([1, 3]), VoteHistogram([4, 0])])
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1, 3], [4, 0]]

    @pytest.mark.parametrize("bad", [
        np.array([1, 3]),             # not 2-D
        np.array([[5], [2]]),         # one class
        np.array([[1, -1]]),          # negative count
        np.array([[1, 2], [0, 0]]),   # a row with no vote
        np.array([[1.0, 2.0]]),       # not integers
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            count_matrix(bad)

    @given(st.lists(histograms.filter(lambda c: len(c) == 4), min_size=1, max_size=6),
           st.floats(0, 1e6))
    def test_batch_rows_equal_the_scalar_results(self, rows, c):
        counts = np.array(rows)
        hists = [VoteHistogram(r) for r in rows]
        assert argmax(counts).tolist() == [argmax(h) for h in hists]
        assert gap(counts).tolist() == [gap(h) for h in hists]
        assert boost(counts, c).tolist() == [boost(h, c).tolist() for h in hists]


class TestInt64Range:
    """A count beyond int64 is refused in one line; a row whose sum would wrap still has votes."""

    def test_uint64_count_beyond_int64_is_refused(self):
        with pytest.raises(ValueError, match=r"^vote counts must lie in the int64 range, "
                                             r"got 9223372036854775808$"):
            argmax(np.array([[2**63, 1]], dtype=np.uint64))

    def test_histogram_count_beyond_int64_is_refused(self):
        with pytest.raises(ValueError, match=r"^vote counts must lie in the int64 range, "
                                             r"got 9223372036854775808$"):
            VoteHistogram([2**63, 1])

    def test_uint64_counts_in_range_are_taken(self):
        counts = count_matrix(np.array([[2**63 - 1, 1], [0, 3]], dtype=np.uint64))
        assert counts.dtype == np.int64
        assert counts.tolist() == [[2**63 - 1, 1], [0, 3]]

    def test_a_row_whose_sum_wraps_has_votes(self):
        counts = np.array([[2**63 - 1, 2**63 - 1]])
        assert count_matrix(counts).tolist() == counts.tolist()
        assert argmax(counts).tolist() == [0] and gap(counts).tolist() == [0]
        assert gap(VoteHistogram([2**63 - 1, 5])) == 2**63 - 6
