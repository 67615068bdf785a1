import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpvote import ensemble
from dpvote import (
    AccuracySummary,
    RngStream,
    SyntheticTeacherSpec,
    VoteHistogram,
    argmax,
    count_matrix,
    default_accuracy,
    ensemble_accuracy,
    gap,
    load_ground_truth,
    load_predictions,
    qualified_fraction,
    synth_votes,
)


class TestSynthVotes:
    def test_perfect_teachers(self):
        spec = SyntheticTeacherSpec(teacher_count=20, num_classes=4, accuracy=1.0)
        v = synth_votes(spec, 2, RngStream(1))
        assert v.counts[2] == 20
        assert sum(v.counts) == 20

    def test_always_wrong_binary(self):
        spec = SyntheticTeacherSpec(teacher_count=15, num_classes=2, accuracy=0.0)
        v = synth_votes(spec, 0, RngStream(2))
        assert v.counts == (0, 15)

    def test_expected_gap_matches_binomial_mean(self):
        # gap mean ~ t * (p - (1-p)/(L-1)) when the ensemble is accurate
        t, L, p = 250, 10, 0.8118
        spec = SyntheticTeacherSpec(teacher_count=t, num_classes=L, accuracy=p)
        stream = RngStream(3)
        gaps = []
        for i in range(1000):
            v = synth_votes(spec, i % L, stream.substream(i))
            top_two = sorted(v.counts, reverse=True)[:2]
            gaps.append(top_two[0] - top_two[1])
        expected = t * (p - (1 - p) / (L - 1))
        assert expected == pytest.approx(197.72, abs=0.01)
        assert np.mean(gaps) == pytest.approx(expected, rel=0.05)

    def test_wrong_labels_cover_all_other_classes(self):
        spec = SyntheticTeacherSpec(teacher_count=5000, num_classes=4, accuracy=0.0)
        v = synth_votes(spec, 1, RngStream(4))
        assert v.counts[1] == 0
        assert all(c > 0 for i, c in enumerate(v.counts) if i != 1)

    def test_rejects_bad_label(self):
        spec = SyntheticTeacherSpec(teacher_count=5, num_classes=3, accuracy=0.5)
        with pytest.raises(ValueError):
            synth_votes(spec, 3, RngStream(5))
        with pytest.raises(ValueError, match="true label -1"):
            synth_votes(spec, np.array([0, -1, 2]), RngStream(5))

    def test_label_array_gives_a_count_matrix(self):
        spec = SyntheticTeacherSpec(teacher_count=30, num_classes=4, accuracy=0.7)
        counts = synth_votes(spec, np.array([0, 3, 1]), RngStream(6))
        assert counts.shape == (3, 4)
        assert counts.sum(axis=1).tolist() == [30, 30, 30]
        # the first rows do not depend on how many rows follow
        head = synth_votes(spec, np.array([0, 3]), RngStream(6))
        assert head.tolist() == counts[:2].tolist()

    def test_multinomial_matches_per_teacher_model_in_distribution(self):
        # per teacher, the truth bin is a Bernoulli(acc) vote, so its count over
        # T teachers has mean T*acc and variance T*acc*(1-acc)
        t, L, acc, n = 250, 10, 0.8118, 20_000
        spec = SyntheticTeacherSpec(teacher_count=t, num_classes=L, accuracy=acc)
        truths = np.arange(n) % L
        hits = synth_votes(spec, truths, RngStream(7))[np.arange(n), truths].astype(np.float64)
        mean, var = t * acc, t * acc * (1.0 - acc)
        assert abs(hits.mean() - mean) <= 4.0 * math.sqrt(var / n)
        sample_var = hits.var(ddof=1)
        fourth = np.mean((hits - hits.mean()) ** 4)
        assert abs(sample_var - var) <= 4.0 * math.sqrt((fourth - sample_var ** 2) / n)


class TestDefaultAccuracy:
    def test_table_values(self):
        assert default_accuracy(250) == 0.8118
        assert default_accuracy(5) == 0.9831

    def test_unknown_count(self):
        with pytest.raises(ValueError):
            default_accuracy(37)


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def write_predictions(table, path):
    """Write ``table`` back out as a query_id,teacher_id,label CSV."""
    lines = ["query_id,teacher_id,label"]
    for qi, q in enumerate(table.query_ids):
        for ti, t in enumerate(table.teacher_ids):
            lines.append(f"{q},{t},{int(table.labels[qi, ti])}")
    _write(path, "\n".join(lines) + "\n")


class TestLoadPredictions:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query_id,teacher_id,label\n0,0,1\n0,1,1\n1,0,0\n1,1,2\n2,0,1\n2,1,1\n")
        table = load_predictions(p, num_classes=3)
        assert table.query_ids == (0, 1, 2)
        assert table.teacher_ids == (0, 1)
        assert table.labels.shape == (3, 2)
        assert table.histograms()[0].counts == (0, 2, 0)

    def test_label_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query_id,teacher_id,label\n0,0,1\n0,1,3\n")
        with pytest.raises(ValueError, match=r"preds\.csv:3"):
            load_predictions(p, num_classes=3)

    def test_duplicate_names_line(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query_id,teacher_id,label\n0,0,1\n0,0,2\n")
        with pytest.raises(ValueError, match=r"preds\.csv:3.*duplicate"):
            load_predictions(p)

    def test_missing_prediction(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query_id,teacher_id,label\n0,0,1\n0,1,1\n1,0,0\n")
        with pytest.raises(ValueError, match="missing prediction for query 1, teacher 1"):
            load_predictions(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query,teacher,label\n0,0,1\n")
        with pytest.raises(ValueError, match=r"preds\.csv:1"):
            load_predictions(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query_id,teacher_id,label\n0,0,1\n0,1,1\n1,0,0\n1,1,2\n")
        table = load_predictions(p, num_classes=3)
        q = tmp_path / "copy.csv"
        write_predictions(table, q)
        again = load_predictions(q, num_classes=3)
        assert again.query_ids == table.query_ids
        assert again.teacher_ids == table.teacher_ids
        assert np.array_equal(again.labels, table.labels)
        assert p.read_bytes() == q.read_bytes()

    def test_histograms_sum_to_teacher_count(self, tmp_path):
        p = tmp_path / "preds.csv"
        rows = ["query_id,teacher_id,label"]
        gen = np.random.default_rng(9)
        for q in range(6):
            for t in range(7):
                rows.append(f"{q},{t},{gen.integers(0, 4)}")
        _write(p, "\n".join(rows) + "\n")
        table = load_predictions(p, num_classes=4)
        for h in table.histograms():
            assert sum(h.counts) == 7
        per_row = [np.bincount(row, minlength=4).tolist() for row in table.labels]
        assert table.counts(slice(None)).tolist() == per_row

    def test_truth_attachment(self, tmp_path):
        p = tmp_path / "preds.csv"
        _write(p, "query_id,teacher_id,label\n0,0,1\n1,0,0\n")
        t = tmp_path / "truth.csv"
        _write(t, "query_id,label\n0,1\n1,0\n")
        table = load_predictions(p, num_classes=2, truth_path=t)
        assert table.truth_labels() == [1, 0]


class TestLoadGroundTruth:
    def test_well_formed(self, tmp_path):
        t = tmp_path / "truth.csv"
        _write(t, "query_id,label\n0,3\n1,1\n")
        assert load_ground_truth(t) == {0: 3, 1: 1}

    def test_duplicate_query(self, tmp_path):
        t = tmp_path / "truth.csv"
        _write(t, "query_id,label\n0,3\n0,1\n")
        with pytest.raises(ValueError, match=r"truth\.csv:3.*duplicate"):
            load_ground_truth(t)


def fraction_from_histograms(votes, n):
    """The definition from the vote counts: the share of rows that are distance-n qualified."""
    counts = count_matrix(votes)
    return int(np.count_nonzero(gap(counts) > n)) / len(counts)


def accuracy_from_histograms(votes, truths, mechanism_labels):
    """The accuracies with the clean plurality recounted from the vote counts."""
    clean = argmax(count_matrix(votes))
    truths, mechanism_labels = np.asarray(truths), np.asarray(mechanism_labels)

    def pct(hits):
        return 100.0 * int(np.count_nonzero(hits)) / len(clean)

    return AccuracySummary(clean_pct=pct(clean == truths),
                           mechanism_pct=pct(mechanism_labels == truths),
                           agreement_pct=pct(clean == mechanism_labels))


def random_count_matrices(seed, cases=300):
    """(count matrix, teacher count) pairs with few teachers, so ties and gaps of 0 are common."""
    gen = np.random.default_rng(seed)
    for _ in range(cases):
        teachers, classes, rows = (int(gen.integers(1, 13)), int(gen.integers(2, 6)),
                                   int(gen.integers(1, 41)))
        yield gen.multinomial(teachers, gen.dirichlet(np.ones(classes)), size=rows), teachers


class TestQualifiedFraction:
    def test_unanimous_set(self):
        gaps = gap([VoteHistogram([12, 0, 0]) for _ in range(4)])
        assert qualified_fraction(gaps, 5) == 1.0

    def test_threshold_at_teacher_count(self):
        gaps = gap([VoteHistogram([12, 0, 0])])
        assert qualified_fraction(gaps, 12) == 0.0

    def test_monotone_non_increasing_in_n(self):
        spec = SyntheticTeacherSpec(teacher_count=250, num_classes=10, accuracy=0.8118)
        stream = RngStream(10)
        gaps = gap([synth_votes(spec, i % 10, stream.substream(i)) for i in range(1000)])
        fracs = [qualified_fraction(gaps, n) for n in (3, 10, 50)]
        assert fracs[0] >= fracs[1] >= fracs[2]

    def test_perfect_teachers_qualify_up_to_t_minus_one(self):
        spec = SyntheticTeacherSpec(teacher_count=9, num_classes=3, accuracy=1.0)
        v = synth_votes(spec, 0, RngStream(11))
        assert gap(v) > sum(v.counts) - 1

    def test_gap_column_matches_the_histogram_definition(self):
        checked = ties = 0
        for counts, teachers in random_count_matrices(seed=21):
            gaps = gap(counts)
            ties += int(np.count_nonzero(gaps == 0))
            for n in range(teachers + 2):  # n = 0 up to beyond the teacher count
                expected = fraction_from_histograms(counts, n)
                assert qualified_fraction(gaps, n) == expected
                assert qualified_fraction(gaps.tolist(), n) == expected  # a queries.csv column
                checked += 1
        assert checked > 2000 and ties > 100

    @pytest.mark.parametrize("gaps, n, message", [
        ([], 1, "at least one gap"),
        (np.array([], dtype=np.int64), 0, "at least one gap"),
        ([3, 0], -1, "non-negative integer"),
        ([3, 0], 1.5, "non-negative integer"),
    ])
    def test_empty_column_or_bad_threshold_is_refused(self, gaps, n, message):
        with pytest.raises(ValueError, match=message):
            qualified_fraction(gaps, n)


class TestEnsembleAccuracy:
    def test_noiseless_mechanism_equals_clean(self):
        hists = [VoteHistogram([5, 1, 0]), VoteHistogram([0, 6, 0]), VoteHistogram([1, 2, 3])]
        truths = [0, 1, 0]
        clean = argmax(hists)
        summary = ensemble_accuracy(clean, truths, clean)
        assert summary.mechanism_pct == summary.clean_pct
        assert summary.agreement_pct == 100.0
        assert summary.clean_pct == pytest.approx(100 * 2 / 3)

    def test_degraded_mechanism_scores_lower(self):
        clean = argmax([VoteHistogram([5, 1]), VoteHistogram([5, 1])])
        summary = ensemble_accuracy(clean, [0, 0], [0, 1])
        assert summary.mechanism_pct == 50.0
        assert summary.clean_pct == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ensemble_accuracy(argmax([VoteHistogram([1, 1])]), [0, 1], [0])

    def test_count_matrix_equals_histogram_list(self):
        hists = [VoteHistogram([5, 1, 0]), VoteHistogram([0, 6, 0]), VoteHistogram([1, 2, 3])]
        counts = np.array([h.counts for h in hists])
        assert ensemble_accuracy(argmax(counts), [0, 1, 0], [0, 2, 2]) == ensemble_accuracy(
            argmax(hists), [0, 1, 0], [0, 2, 2])
        assert qualified_fraction(gap(counts), 3) == qualified_fraction(gap(hists), 3) == 2 / 3

    def test_empty_columns_are_refused(self):
        with pytest.raises(ValueError, match="at least one query"):
            ensemble_accuracy([], [], [])

    def test_label_columns_match_the_histogram_definition(self):
        gen = np.random.default_rng(22)
        for counts, _ in random_count_matrices(seed=23):
            classes = counts.shape[1]
            truths = gen.integers(classes, size=len(counts))
            labels = gen.integers(classes, size=len(counts))
            expected = accuracy_from_histograms(counts, truths, labels)
            assert ensemble_accuracy(argmax(counts), truths, labels) == expected
            assert ensemble_accuracy(argmax(counts).tolist(), truths.tolist(),
                                     labels.tolist()) == expected


PRED = "query_id,teacher_id,label\n"
TRUTH = "query_id,label\n"

# (file text, class count, expected message after "<path>"): every case has one fault
PREDICTION_ERRORS = {
    "header": ("query,teacher,label\n0,0,1\n", None,
               ":1: expected header 'query_id,teacher_id,label'"),
    "empty_file": ("", None, ":1: expected header 'query_id,teacher_id,label'"),
    "too_few_fields": (PRED + "0,0,1\n0,1\n", None, ":3: expected 3 comma-separated fields, got 2"),
    "trailing_comma": (PRED + "0,0,1,\n", None, ":2: expected 3 comma-separated fields, got 4"),
    "every_row_short": (PRED + "0,0\n0,1\n", None, ":2: expected 3 comma-separated fields, got 2"),
    "query_id": (PRED + "0,0,1\nx,1,1\n", None, ":3: query_id must be an integer, got 'x'"),
    "teacher_id": (PRED + "0, y ,1\n", None, ":2: teacher_id must be an integer, got ' y '"),
    "label": (PRED + "0,0,1.0\n", None, ":2: label must be an integer, got '1.0'"),
    "empty_cell": (PRED + "0,,1\n", None, ":2: teacher_id must be an integer, got ''"),
    "negative_label": (PRED + "0,0,1\n0,1,-1\n", 3, ":3: label must be non-negative, got -1"),
    "label_out_of_range": (PRED + "0,0,1\n0,1,3\n", 3, ":3: label 3 out of range [0, 3)"),
    "duplicate": (PRED + "0,0,1\n0,0,2\n", None,
                  ":3: duplicate prediction for query 0, teacher 0 (first seen on line 2)"),
    "duplicate_after_blanks": (PRED + "5,1,1\n\n5,2,0\n  \n5,1,1\n", None,
                               ":6: duplicate prediction for query 5, teacher 1 "
                               "(first seen on line 2)"),
    "duplicate_as_many_rows_as_cells": (PRED + "0,0,1\n0,0,1\n1,1,0\n1,0,0\n", None,
                                        ":3: duplicate prediction for query 0, teacher 0 "
                                        "(first seen on line 2)"),
    "missing": (PRED + "0,0,1\n0,1,1\n1,0,0\n", None,
                ": missing prediction for query 1, teacher 1"),
    "missing_first_in_id_order": (PRED + "7,3,1\n2,9,1\n", None,
                                  ": missing prediction for query 2, teacher 3"),
    "no_predictions": (PRED, None, ": no predictions found"),
    "only_blank_lines": (PRED + "\n \t\n\n", None, ": no predictions found"),
    "line_after_blank_lines": (PRED + "0,0,1\n\n   \n\t\n0,1,x\n", None,
                               ":6: label must be an integer, got 'x'"),
    "crlf": (PRED.replace("\n", "\r\n") + "0,0,1\r\n0,1,x\r\n", None,
             ":3: label must be an integer, got 'x'"),
    "hash_in_cell": (PRED + "0,0,1#2\n", None, ":2: label must be an integer, got '1#2'"),
    "hash_leading_cell": (PRED + "#0,0,1\n", None, ":2: query_id must be an integer, got '#0'"),
}

TRUTH_ERRORS = {
    "header": ("query,label\n0,1\n", None, ":1: expected header 'query_id,label'"),
    "empty_file": ("", None, ":1: expected header 'query_id,label'"),
    "field_count": (TRUTH + "0,1\n1,1,1\n", None, ":3: expected 2 comma-separated fields, got 3"),
    "query_id": (TRUTH + "q,1\n", None, ":2: query_id must be an integer, got 'q'"),
    "label": (TRUTH + "0,1\n1,one\n", None, ":3: label must be an integer, got 'one'"),
    "negative_label": (TRUTH + "0,-2\n", None, ":2: label -2 out of range [0, inf)"),
    "negative_label_with_classes": (TRUTH + "0,-2\n", 4, ":2: label -2 out of range [0, 4)"),
    "label_out_of_range": (TRUTH + "0,1\n1,4\n", 4, ":3: label 4 out of range [0, 4)"),
    "duplicate": (TRUTH + "0,3\n1,1\n0,1\n", None,
                  ":4: duplicate ground truth for query 0 (first seen on line 2)"),
    "line_after_blank_lines": (TRUTH + "\n0,1\n \n1,x\n", None,
                               ":5: label must be an integer, got 'x'"),
    "crlf": (TRUTH.replace("\n", "\r\n") + "0,1\r\n0,2\r\n", None,
             ":3: duplicate ground truth for query 0 (first seen on line 2)"),
    "hash_in_cell": (TRUTH + "0,1 # note\n", None, ":2: label must be an integer, got '1 # note'"),
}


def _error(load, path, text, num_classes):
    _write(path, text)
    with pytest.raises(ValueError) as info:
        load(path, num_classes=num_classes)
    return str(info.value)


@pytest.mark.parametrize("case", sorted(PREDICTION_ERRORS))
def test_prediction_fault_is_its_one_line_error(tmp_path, case):
    text, num_classes, message = PREDICTION_ERRORS[case]
    path = tmp_path / "preds.csv"
    assert _error(load_predictions, path, text, num_classes) == f"{path}{message}"


@pytest.mark.parametrize("case", sorted(TRUTH_ERRORS))
def test_truth_fault_is_its_one_line_error(tmp_path, case):
    text, num_classes, message = TRUTH_ERRORS[case]
    path = tmp_path / "truth.csv"
    assert _error(load_ground_truth, path, text, num_classes) == f"{path}{message}"


# cells that int() accepts but the base-10 int64 grammar does not
GRAMMAR_ERRORS = {
    "label_beyond_int64": (load_predictions, PRED + "0,0,99999999999999999999\n",
                           ":2: label must lie in the int64 range, got '99999999999999999999'"),
    "query_id_beyond_int64": (load_predictions, PRED + "0,0,1\n-9223372036854775809,0,1\n",
                              ":3: query_id must lie in the int64 range, "
                              "got '-9223372036854775809'"),
    "truth_query_id_beyond_int64": (load_ground_truth, TRUTH + " +9223372036854775808 ,1\n",
                                    ":2: query_id must lie in the int64 range, "
                                    "got ' +9223372036854775808 '"),
    "underscore": (load_predictions, PRED + "1_0,0,1\n", ":2: query_id must be an integer, got '1_0'"),
    "non_ascii_digit": (load_ground_truth, TRUTH + "0,\u0663\n",
                        ":2: label must be an integer, got '\u0663'"),
}


@pytest.mark.parametrize("case", sorted(GRAMMAR_ERRORS))
def test_cell_outside_the_int64_grammar_is_a_one_line_error(tmp_path, case):
    load, text, message = GRAMMAR_ERRORS[case]
    path = tmp_path / "in.csv"
    assert _error(load, path, text, None) == f"{path}{message}"


def _loadtxt_with_float_fallback(loadtxt):
    """``loadtxt`` as numpy releases behave that read an integer cell through a float:
    a cell the integer parse rejects is read as a float, truncated, with a DeprecationWarning."""
    def fallback(rows, dtype=float, **kwargs):
        try:
            return loadtxt(rows, dtype=dtype, **kwargs)
        except ValueError:
            values = loadtxt(rows, dtype=float, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return values.astype(dtype)
    return fallback


@pytest.mark.parametrize("cell,message", [
    ("1.5", "label must be an integer, got '1.5'"),
    ("1e3", "label must be an integer, got '1e3'"),
    ("99999999999999999999", "label must lie in the int64 range, got '99999999999999999999'"),
])
def test_float_fallback_of_older_numpy_is_a_one_line_error(tmp_path, monkeypatch, cell, message):
    fallback = _loadtxt_with_float_fallback(np.loadtxt)
    with pytest.warns(DeprecationWarning):  # the emulation accepts the cell on its own
        assert fallback(["0,0,1.5"], dtype=np.int64, delimiter=",").tolist() == [0, 0, 1]
    monkeypatch.setattr(np, "loadtxt", fallback)
    path = tmp_path / "preds.csv"
    assert _error(load_predictions, path, PRED + f"0,0,{cell}\n", None) == f"{path}:2: {message}"


@pytest.mark.parametrize("row", [0, 1, 373, 748, 749])
def test_fault_deep_in_a_large_file_names_its_line(tmp_path, row):
    rows = [f"{q},{t},1" for q in range(30) for t in range(25)]
    rows[row] = rows[row][:-1] + "x"
    p = tmp_path / "preds.csv"
    assert _error(load_predictions, p, PRED + "\n".join(rows) + "\n", None) == (
        f"{p}:{row + 2}: label must be an integer, got 'x'")


def test_cells_take_a_sign_and_surrounding_spaces(tmp_path):
    p = tmp_path / "preds.csv"
    _write(p, " query_id,teacher_id,label \r\n+3 , -1,\t2\r\n\r\n 003,7, +0 \r\n")
    table = load_predictions(p)
    assert table.query_ids == (3,)
    assert table.teacher_ids == (-1, 7)
    assert table.labels.tolist() == [[2, 0]]
    assert table.num_classes == 3
    t = tmp_path / "truth.csv"
    _write(t, "query_id,label\n -9223372036854775808 , +1\n\n9223372036854775807,0\n")
    assert load_ground_truth(t) == {-2**63: 1, 2**63 - 1: 0}


# bytes outside printable ASCII, tab, LF and CR, which str.splitlines and numpy's
# reader of a path treat differently; each outcome is the one of the line-by-line reader
BYTE_GRAMMAR = {
    "file_separator": (PRED + "0\x1c,0,1\n", ":2: expected 3 comma-separated fields, got 1"),
    "form_feed_breaks_a_line": (PRED + "0,0,1\x0c0,1,1\n", ((0,), (0, 1), [[1, 1]])),
    "cr_line_ends": (PRED + "0,0,1\r0,1,1\r", ((0,), (0, 1), [[1, 1]])),
    "nul_in_cell": (PRED + "0,0,1\x00\n", ":2: label must be an integer, got '1\\x00'"),
    "unit_separator_is_whitespace": (PRED + "0\x1f,0,1\n", ((0,), (0,), [[1]])),
    "only_empty_lines": (PRED + "\n\n\n", ": no predictions found"),
    "header_in_spaces_with_crlf": (" " + PRED.replace("\n", " \r\n") + "0,0,1\r\n0,1,1\r\n",
                                   ((0,), (0, 1), [[1, 1]])),
}


@pytest.mark.parametrize("case", sorted(BYTE_GRAMMAR))
def test_bytes_outside_a_plain_file_keep_the_line_grammar(tmp_path, case):
    text, expected = BYTE_GRAMMAR[case]
    path = tmp_path / "preds.csv"
    if isinstance(expected, str):
        assert _error(load_predictions, path, text, None) == f"{path}{expected}"
        return
    _write(path, text)
    table = load_predictions(path)
    assert (table.query_ids, table.teacher_ids, table.labels.tolist()) == expected


def _reader_calls(monkeypatch, lines=True):
    """Record what each ``_loadtxt`` call reads: the file's path (numpy's one pass over it)
    or a list of its lines; with ``lines`` False the line-by-line reader raises."""
    calls = []
    loadtxt = ensemble._loadtxt

    def spy(rows, **kwargs):
        calls.append(rows)
        if isinstance(rows, list) and not lines:
            raise AssertionError("the line-by-line reader ran")
        return loadtxt(rows, **kwargs)

    monkeypatch.setattr(ensemble, "_loadtxt", spy)
    return calls


def _bench_shaped(queries, teachers, query_id=str, teacher_id=str):
    """A plain predictions file written as the benchmark writes one, and its labels."""
    labels = np.random.default_rng(31).integers(100, size=(queries, teachers))
    rows = [f"{query_id(q)},{teacher_id(t)},{labels[q, t]}"
            for q in range(queries) for t in range(teachers)]
    return PRED + "\n".join(rows) + "\n", labels


@pytest.mark.parametrize("query_id,teacher_id", [
    (str, str),
    (lambda q: str(-1000003 * q - 7), lambda t: str(-t if t % 2 else 98765 + t)),
])
def test_plain_file_is_one_numpy_pass_over_its_path(tmp_path, monkeypatch, query_id,
                                                    teacher_id):
    text, labels = _bench_shaped(40, 25, query_id, teacher_id)
    preds, truth = tmp_path / "preds.csv", tmp_path / "truth.csv"
    _write(preds, text)
    _write(truth, TRUTH + "".join(f"{query_id(q)},{q % 100}\n" for q in range(40)))
    calls = _reader_calls(monkeypatch, lines=False)
    table = load_predictions(preds, num_classes=100, truth_path=truth)
    assert calls == [preds, truth]
    order = np.argsort([int(query_id(q)) for q in range(40)])
    columns = np.argsort([int(teacher_id(t)) for t in range(25)])
    assert table.labels.tolist() == labels[order][:, columns].tolist()
    assert table.teacher_ids == tuple(sorted(int(teacher_id(t)) for t in range(25)))
    assert table.truth_labels() == [int(q) % 100 for q in order]


@pytest.mark.parametrize("edit,read_as_lines", [
    (lambda text: text.replace(PRED, PRED + "\n"), [False]),  # numpy skips an empty line
    (lambda text: text.replace("\n", "\n \n", 2), [False, True]),  # but not a blank one
    (lambda text: text.replace("\n", "\r\n"), [True]),  # the header line ends in CR LF
    (lambda text: text + "\x0c", [True]),  # a byte outside the plain set
])
def test_either_reader_loads_the_same_table(tmp_path, monkeypatch, edit, read_as_lines):
    text, labels = _bench_shaped(40, 25)
    path = tmp_path / "preds.csv"
    _write(path, edit(text))
    calls = _reader_calls(monkeypatch)
    assert load_predictions(path).labels.tolist() == labels.tolist()
    assert [isinstance(rows, list) for rows in calls] == read_as_lines


@st.composite
def prediction_tables(draw):
    """(query ids, teacher ids, {(query, teacher): label}, row order) of a complete table."""
    ids = st.integers(-2**63, 2**63 - 1)
    query_ids = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    teacher_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    cells = [(q, t) for q in query_ids for t in teacher_ids]
    labels = draw(st.lists(st.integers(0, 11), min_size=len(cells), max_size=len(cells)))
    order = draw(st.permutations(range(len(cells))))
    return query_ids, teacher_ids, dict(zip(cells, labels)), order


@settings(max_examples=60, deadline=None)
@given(prediction_tables())
def test_load_matches_a_dict_reference_in_any_row_order(tmp_path_factory, table):
    query_ids, teacher_ids, cells, order = table
    keys = list(cells)
    p = tmp_path_factory.mktemp("preds") / "preds.csv"
    _write(p, PRED + "".join("{},{},{}\n".format(*keys[i], cells[keys[i]]) for i in order))
    loaded = load_predictions(p, num_classes=12)
    assert loaded.query_ids == tuple(sorted(query_ids))
    assert loaded.teacher_ids == tuple(sorted(teacher_ids))
    reference = np.array([[cells[q, t] for t in loaded.teacher_ids] for q in loaded.query_ids])
    assert np.array_equal(loaded.labels, reference)
    counts = np.zeros((len(query_ids), 12), dtype=np.int64)
    row = {q: i for i, q in enumerate(loaded.query_ids)}
    np.add.at(counts, ([row[q] for q, _ in keys], list(cells.values())), 1)
    assert np.array_equal(loaded.counts(slice(None)), counts)
