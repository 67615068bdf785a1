import math

import numpy as np
import pytest

from dpvote import (
    RngStream,
    SyntheticTeacherSpec,
    VoteHistogram,
    argmax,
    default_accuracy,
    ensemble_accuracy,
    is_distance_n,
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
        assert v.teacher_count == 20

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
            assert h.teacher_count == 7
        per_row = [np.bincount(row, minlength=4).tolist() for row in table.labels]
        assert table.counts().tolist() == per_row

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


class TestQualifiedFraction:
    def test_unanimous_set(self):
        hists = [VoteHistogram([12, 0, 0]) for _ in range(4)]
        assert qualified_fraction(hists, 5) == 1.0

    def test_threshold_at_teacher_count(self):
        hists = [VoteHistogram([12, 0, 0])]
        assert qualified_fraction(hists, 12) == 0.0

    def test_monotone_non_increasing_in_n(self):
        spec = SyntheticTeacherSpec(teacher_count=250, num_classes=10, accuracy=0.8118)
        stream = RngStream(10)
        hists = [synth_votes(spec, i % 10, stream.substream(i)) for i in range(1000)]
        fracs = [qualified_fraction(hists, n) for n in (3, 10, 50)]
        assert fracs[0] >= fracs[1] >= fracs[2]

    def test_perfect_teachers_qualify_up_to_t_minus_one(self):
        spec = SyntheticTeacherSpec(teacher_count=9, num_classes=3, accuracy=1.0)
        v = synth_votes(spec, 0, RngStream(11))
        assert is_distance_n(v, v.teacher_count - 1)


class TestEnsembleAccuracy:
    def test_noiseless_mechanism_equals_clean(self):
        hists = [VoteHistogram([5, 1, 0]), VoteHistogram([0, 6, 0]), VoteHistogram([1, 2, 3])]
        truths = [0, 1, 0]
        labels = [argmax(h) for h in hists]
        summary = ensemble_accuracy(hists, truths, labels)
        assert summary.mechanism_pct == summary.clean_pct
        assert summary.agreement_pct == 100.0
        assert summary.clean_pct == pytest.approx(100 * 2 / 3)

    def test_degraded_mechanism_scores_lower(self):
        hists = [VoteHistogram([5, 1]), VoteHistogram([5, 1])]
        summary = ensemble_accuracy(hists, [0, 0], [0, 1])
        assert summary.mechanism_pct == 50.0
        assert summary.clean_pct == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ensemble_accuracy([VoteHistogram([1, 1])], [0, 1], [0])

    def test_count_matrix_equals_histogram_list(self):
        hists = [VoteHistogram([5, 1, 0]), VoteHistogram([0, 6, 0]), VoteHistogram([1, 2, 3])]
        counts = np.array([h.counts for h in hists])
        assert ensemble_accuracy(counts, [0, 1, 0], [0, 2, 2]) == ensemble_accuracy(
            hists, [0, 1, 0], [0, 2, 2])
        assert qualified_fraction(counts, 3) == qualified_fraction(hists, 3) == 2 / 3
