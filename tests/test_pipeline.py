import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpvote import (
    BLOCK,
    MECHANISMS,
    ExperimentConfig,
    NoiseSpec,
    PrivacyLedger,
    QueryResult,
    classical_gaussian_epsilon,
    config_from_dict,
    emit_report,
    read_report,
    required_constant_laplace,
    run_experiment,
)
from dpvote import mechanisms, pipeline
from dpvote.cli import main


def small_config(**overrides):
    base = dict(
        mechanism="nzc-laplace",
        seed=2024,
        queries=120,
        num_classes=10,
        teachers=50,
        boost_constant=1e6,
        gamma=0.01,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="ensemble source"):
            ExperimentConfig(mechanism="lnmax", seed=1, queries=5, gamma=1.0).validate()
        with pytest.raises(ValueError, match="ensemble source"):
            ExperimentConfig(mechanism="lnmax", seed=1, queries=5, gamma=1.0,
                             teachers=5, predictions="x.csv").validate()

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            ExperimentConfig(mechanism="argmax", seed=1, queries=5, teachers=5).validate()

    def test_noise_parameter_required(self):
        with pytest.raises(ValueError, match="gamma or scale"):
            small_config(gamma=None).validate()
        with pytest.raises(ValueError, match="sigma"):
            small_config(mechanism="nzc-gaussian", gamma=None).validate()

    def test_gaussian_accepts_sigma(self):
        small_config(mechanism="nzc-gaussian", gamma=None, sigma=2.0).validate()

    @pytest.mark.parametrize("mechanism, setting, message", [
        ("lnmax", {"gamma": -1.0}, "lnmax: gamma must be positive, got -1.0"),
        ("nzc-gaussian", {"sigma": 0.0}, "nzc-gaussian: sigma must be positive, got 0.0"),
        ("nzc-laplace", {"scale": -2.0}, "nzc-laplace: scale must be positive, got -2.0"),
    ])
    def test_noise_setting_not_positive_is_refused_without_a_query(self, mechanism, setting,
                                                                   message):
        # no query reaches the mechanism, so only the config can refuse it
        raw = {"mechanism": mechanism, "seed": 1, "teachers": 5, "queries": 0, **setting}
        with pytest.raises(ValueError) as info:
            config_from_dict(raw)
        assert str(info.value) == f"config: {message}"

    @pytest.mark.parametrize("accuracy", [-0.1, 1.5])
    def test_teacher_accuracy_outside_unit_interval(self, accuracy):
        with pytest.raises(ValueError, match=r"teacher_accuracy must lie in \[0, 1\]"):
            small_config(teacher_accuracy=accuracy).validate()

    def test_teacher_count_beyond_int64_is_refused(self):
        # numpy draws each query's votes as int64 counts of the teachers
        small_config(teachers=2**63 - 1, queries=0).validate()
        with pytest.raises(ValueError) as info:
            small_config(teachers=2**63).validate()
        assert str(info.value) == f"teachers must be below 2**63, got {2**63}"


class TestRunExperiment:
    def test_zero_queries_empty_report(self):
        report = run_experiment(small_config(queries=0))
        assert report.query_count == 0
        assert report.results == ()
        assert report.privacy == ()  # an empty ledger yields no figure
        assert report.eps_simple is None
        assert report.ledger.query_count == 0

    def test_query_count_matches_ledger_and_records(self):
        report = run_experiment(small_config())
        assert report.query_count == 120
        assert len(report.results) == 120
        assert report.ledger.query_count == 120

    def test_immutable_regime_matches_clean_labels(self):
        # boost far above the required constant for tau=1e-9 at this noise scale
        config = small_config()
        sens = math.exp(-config.beta)
        effective_gamma = config.gamma / sens
        assert config.boost_constant >= required_constant_laplace(10, 1e-9, effective_gamma)
        report = run_experiment(config)
        assert all(r.returned_label == r.clean_label for r in report.results)
        assert report.agreement_pct == 100.0

    def test_simple_epsilon_is_sum_of_entries(self):
        report = run_experiment(small_config(queries=40))
        expected = sum(e.epsilon for e in report.ledger.entries)
        assert report.eps_simple == pytest.approx(expected, rel=1e-12)

    def test_gaussian_run_reports_classical_bound(self):
        report = run_experiment(small_config(
            mechanism="nzc-gaussian", gamma=None, sigma=1e6, queries=30, delta=1e-4))
        (figure,) = report.privacy
        assert (figure.accounting, figure.delta) == ("classical-gaussian", 1e-4)
        per_query = classical_gaussian_epsilon(1e6, 1e-4 / 30)
        assert figure.eps == pytest.approx(30 * per_query, rel=1e-12)

    def test_gaussian_bound_inapplicable_at_small_sigma(self):
        report = run_experiment(small_config(
            mechanism="nzc-gaussian", gamma=None, sigma=1.0, queries=10))
        assert [(f.accounting, f.eps) for f in report.privacy] == [("classical-gaussian", None)]

    def test_lnmax_run(self):
        report = run_experiment(small_config(mechanism="lnmax", gamma=20.0, queries=60))
        assert report.eps_simple == pytest.approx(2 * 20.0 * 60, rel=1e-12)
        assert report.clean_accuracy_pct is not None

    def test_lnmax_reports_all_composed_budgets(self):
        # baseline at gamma=20 over 100 queries: every composition route is
        # reported honestly, and accuracy never beats the noiseless plurality
        report = run_experiment(ExperimentConfig(
            mechanism="lnmax", seed=404, queries=100, num_classes=10,
            teachers=250, gamma=20.0))
        eps = {f.accounting: f.eps for f in report.privacy}
        assert list(eps) == ["paper-moments", "paper-simple", "paper-advanced"]
        assert eps["paper-simple"] == pytest.approx(2 * 20.0 * 100, rel=1e-12)
        assert eps["paper-advanced"] > 0
        assert eps["paper-moments"] > 0
        assert report.mechanism_accuracy_pct <= report.clean_accuracy_pct

    def test_seed_changes_labels(self):
        noisy = small_config(mechanism="lnmax", gamma=None, scale=50.0, queries=200)
        a = run_experiment(noisy)
        b = run_experiment(ExperimentConfig(**{**noisy.__dict__, "seed": noisy.seed + 1}))
        assert [r.returned_label for r in a.results] != [r.returned_label for r in b.results]

    def test_prediction_file_source(self, tmp_path):
        preds = tmp_path / "preds.csv"
        rows = ["query_id,teacher_id,label"]
        for q in range(8):
            for t in range(5):
                rows.append(f"{q},{t},{(q + (t == 0)) % 3}")
        preds.write_text("\n".join(rows) + "\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("query_id,label\n" + "\n".join(f"{q},{q % 3}" for q in range(8)) + "\n",
                         encoding="utf-8")
        config = ExperimentConfig(
            mechanism="nzc-laplace", seed=5, num_classes=3,
            predictions=str(preds), truth=str(truth),
            boost_constant=1e6, gamma=0.1,
        )
        report = run_experiment(config)
        assert report.query_count == 8
        assert report.clean_accuracy_pct == 100.0

    def test_query_budget_caps_file_source(self, tmp_path):
        preds = tmp_path / "preds.csv"
        rows = ["query_id,teacher_id,label"]
        for q in range(6):
            rows.append(f"{q},0,1")
        preds.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = ExperimentConfig(mechanism="lnmax", seed=5, num_classes=3,
                                  predictions=str(preds), queries=4, gamma=1.0)
        assert run_experiment(config).query_count == 4
        over = ExperimentConfig(mechanism="lnmax", seed=5, num_classes=3,
                                predictions=str(preds), queries=9, gamma=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            run_experiment(over)


    # 3 x 10**17 int64 counts are 2.4e18 bytes, beyond any address space a process can have
    def test_count_matrix_too_large_to_allocate_is_one_line_error(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("query_id,teacher_id,label\n" + "".join(
            f"{q},{t},{q}\n" for q in range(3) for t in range(2)))
        for config in (small_config(queries=3, num_classes=10**17),
                       ExperimentConfig(mechanism="lnmax", seed=1, num_classes=10**17,
                                        predictions=str(preds), gamma=0.1)):
            with pytest.raises(ValueError) as info:
                run_experiment(config)
            assert str(info.value).startswith("the vote counts do not fit in memory: ")
            assert "\n" not in str(info.value)

    def test_run_partitions_the_count_matrix_at_most_once(self, monkeypatch):
        # one gap column fills queries.csv and gives every qualified fraction
        calls = []
        partition = np.partition
        monkeypatch.setattr(np, "partition", lambda *args, **kwargs: (
            calls.append(args[0].shape), partition(*args, **kwargs))[1])
        report = run_experiment(small_config(queries=1000, teachers=250, boost_constant=1e100))
        assert len(report.qualified_fractions) == 8
        assert len(calls) <= 1

    def test_run_without_truth_reports_only_the_agreement(self, tmp_path):
        preds = tmp_path / "preds.csv"
        rows = [f"{q},{t},{(q + (t == 0)) % 3}" for q in range(8) for t in range(5)]
        preds.write_text("query_id,teacher_id,label\n" + "\n".join(rows) + "\n")
        report = run_experiment(ExperimentConfig(mechanism="lnmax", seed=5, num_classes=3,
                                                 predictions=str(preds), gamma=0.1))
        assert (report.clean_accuracy_pct, report.mechanism_accuracy_pct) == (None, None)
        clean = [r.clean_label for r in report.results]
        agree = sum(r.returned_label == c for r, c in zip(report.results, clean))
        assert report.agreement_pct == 100.0 * agree / 8
        assert report.qualified_fractions[:2] == ((1, 1.0), (2, 1.0))  # every gap is 3
        paths = emit_report(report, tmp_path / "first")
        again = emit_report(read_report(tmp_path / "first"), tmp_path / "second")
        assert paths["summary"].read_bytes() == again["summary"].read_bytes()


class TestBlockStreams:
    PREFIX, LONG = 50, 1100  # the long run crosses a block boundary

    @pytest.mark.parametrize("mechanism,noise", [
        ("lnmax", dict(scale=3.0)),
        ("nzc-laplace", dict(boost_constant=2.0, scale=3.0)),
        ("nzc-gaussian", dict(boost_constant=2.0, scale=3.0)),
    ])
    def test_first_queries_do_not_depend_on_the_budget(self, mechanism, noise):
        assert self.PREFIX < BLOCK < self.LONG
        config = dict(mechanism=mechanism, seed=31, num_classes=4, teachers=5, **noise)
        short = run_experiment(ExperimentConfig(queries=self.PREFIX, **config))
        long = run_experiment(ExperimentConfig(queries=self.LONG, **config))
        assert short.results == long.results[: self.PREFIX]
        assert short.ledger.entries == long.ledger.entries[: self.PREFIX]
        # noise this large moves labels, so the comparison above has teeth
        assert any(r.returned_label != r.clean_label for r in short.results)

    def test_second_block_differs_from_the_first(self):
        report = run_experiment(small_config(queries=2 * BLOCK))
        first = [(r.truth_label, r.clean_label, r.gap) for r in report.results[:BLOCK]]
        second = [(r.truth_label, r.clean_label, r.gap) for r in report.results[BLOCK:]]
        assert first != second


def rewrite(path, change):
    """Write ``path`` with its lines as ``change(lines)`` returns them."""
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")


def set_cells(path, cells):
    """Write ``path`` with each (line, cell index) of ``cells`` set to its text; line 1 is
    the header."""
    def change(lines):
        for (line, cell), value in cells.items():
            row = lines[line - 1].split(",")
            row[cell] = value
            lines[line - 1] = ",".join(row)
        return lines

    rewrite(path, change)


def edit_summary(path, mutate):
    """Write summary.json as ``mutate`` returns it, laid out as emit_report writes it."""
    path.write_text(json.dumps(mutate(json.loads(path.read_text())), indent=2) + "\n")


def forge_row(paths, row, sensitivity, gamma=None, epsilon=None):
    """Give query ``row`` another sensitivity in both tables (and another gamma and epsilon)."""
    for name, cells in (("ledger", {4: sensitivity, 2: gamma}),
                        ("queries", {5: sensitivity, 6: epsilon})):
        set_cells(paths[name], {(row + 2, cell): value for cell, value in cells.items()
                                if value is not None})


def restate_privacy(paths):
    """Write summary.json's privacy figures as the edited ledger.csv gives them."""
    figures = PrivacyLedger.load(paths["ledger"]).figures(1e-5)
    edit_summary(paths["summary"], lambda summary: {**summary, "privacy": [
        {**vars(f), "eps": float(f"{f.eps:.12g}")} for f in figures]})


def forge_gamma_in_a_scale_run(paths):
    # every gamma, every epsilon and the summary's privacy figures agree with each other,
    # but a scale run charges each row sensitivity / scale
    for name, cell, value in (("ledger", 2, "0.5"), ("queries", 6, "1")):
        set_cells(paths[name], {(line, cell): value for line in (2, 3, 4)})
    restate_privacy(paths)


def forge_a_sensitivity_the_gap_rules_out(paths):
    # every file agrees with every other, but a gap of 25 votes gives e^-beta, not 4
    forge_row(paths, 0, "4", gamma="2", epsilon="4")
    restate_privacy(paths)


def forge_the_other_sensitivity_at_a_gap_of_four(row):
    # at a gap of 4 the flip distance is 2 or 3, by which of the two leading bins comes first
    def edit(paths):
        low, high = math.exp(-1.0), 11.0 * math.exp(-1.0)
        cell = paths["queries"].read_text().splitlines()[row + 1].split(",")[5]
        forge_row(paths, row, repr(high if float(cell) == low else low))

    return edit


def cells(name, edits):
    return lambda paths: set_cells(paths[name], edits)


def summary_edit(mutate):
    return lambda paths: edit_summary(paths["summary"], mutate)


def set_privacy(index, key, value):
    def mutate(summary):
        summary["privacy"][index][key] = value
        return summary

    return summary_edit(mutate)


def without(key):
    return summary_edit(lambda summary: {k: v for k, v in summary.items() if k != key})


def first_difference(expected: str, found: str) -> tuple[int, str, str]:
    """(line number, expected line, found line) of the first line where two texts differ,
    each line with its end; a text that has ended reads ''."""
    pairs = zip_longest(expected.splitlines(keepends=True), found.splitlines(keepends=True),
                        fillvalue="")
    return next((n, *pair) for n, pair in enumerate(pairs, start=1) if pair[0] != pair[1])


def shown(line: str) -> str:
    width = pipeline.SHOWN_WIDTH
    return repr(line if len(line) <= width else line[:width] + "...")


GAUSSIAN = {"mechanism": "nzc-gaussian", "gamma": None, "sigma": 2.0}
GAP_25 = {"seed": 3, "teachers": 25, "boost_constant": 10.0}  # query 0 has a gap of 25
GAP_4 = {"seed": 2, "teachers": 10, "teacher_accuracy": 0.5, "queries": 12,
         "boost_constant": 10.0, "gamma": 0.5}  # queries 0 and 11 have a gap of 4
SHAPE = 'expected an object with a qualified_fractions list of {n, fraction} objects'


class TestEmitAndRead:
    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(queries=80)
        paths_a = emit_report(run_experiment(config), tmp_path / "a")
        paths_b = emit_report(run_experiment(config), tmp_path / "b")
        for key in ("summary", "queries", "ledger"):
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_round_trip_preserves_emitted_bytes(self, tmp_path):
        report = run_experiment(small_config(queries=40))
        paths = emit_report(report, tmp_path / "first")
        parsed = read_report(tmp_path / "first")
        again = emit_report(parsed, tmp_path / "second")
        for key in ("summary", "queries", "ledger"):
            assert paths[key].read_bytes() == again[key].read_bytes()

    def test_round_trip_keeps_an_eps_that_overflowed(self, tmp_path):
        report = run_experiment(small_config(mechanism="lnmax", gamma=1e200, queries=3))
        assert math.inf in [f.eps for f in report.privacy]
        paths = emit_report(report, tmp_path / "first")
        parsed = read_report(tmp_path / "first")
        assert parsed.privacy == report.privacy
        again = emit_report(parsed, tmp_path / "second")
        assert paths["summary"].read_bytes() == again["summary"].read_bytes()

    def test_zero_query_report_round_trips_an_empty_privacy_list(self, tmp_path):
        paths = emit_report(run_experiment(small_config(queries=0)), tmp_path / "first")
        assert json.loads(paths["summary"].read_text())["privacy"] == []
        parsed = read_report(tmp_path / "first")
        assert parsed.privacy == ()
        again = emit_report(parsed, tmp_path / "second")
        assert paths["summary"].read_bytes() == again["summary"].read_bytes()

    def test_round_trip_recovers_fields(self, tmp_path):
        # off-default values, so a config field the writer or reader drops shows up
        report = run_experiment(small_config(
            queries=25, num_classes=7, teacher_accuracy=0.75, beta=0.5,
            delta=1e-4, distance_grid=(0, 3), out_dir=str(tmp_path / "r")))
        emit_report(report, tmp_path / "r")
        parsed = read_report(tmp_path / "r")
        assert parsed.config == replace(report.config, out_dir=None)
        assert parsed.query_count == report.query_count
        assert parsed.agreement_pct == pytest.approx(report.agreement_pct, rel=1e-9)
        assert [r.query_id for r in parsed.results] == [r.query_id for r in report.results]
        assert [r.returned_label for r in parsed.results] == [
            r.returned_label for r in report.results]

    # (config overrides of a 3-query run, edit of its report files, the file refused)
    @pytest.mark.parametrize("overrides, edit, name", [
        pytest.param({}, lambda paths: rewrite(paths["queries"], lambda lines: [
            *lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]]), "queries", id="short_row"),
        pytest.param({}, cells("queries", {(3, 1): "x"}), "queries", id="label_not_an_int"),
        pytest.param({}, lambda paths: rewrite(paths["queries"], lambda lines: [
            *lines[:2], "", "", *lines[2:], ""]), "queries", id="queries_blank_lines"),
        pytest.param({}, lambda paths: rewrite(paths["ledger"], lambda lines: [
            *lines[:2], "", "", *lines[2:], ""]), "ledger", id="ledger_blank_lines"),
        # a table cell
        pytest.param({}, cells("queries", {(1, 0): "id"}), "queries", id="queries_header"),
        pytest.param({}, cells("ledger", {(1, 0): "id"}), "ledger", id="ledger_header"),
        pytest.param({}, cells("queries", {(3, 0): "x"}), "queries", id="query_id"),
        pytest.param({}, cells("ledger", {(3, 0): "2"}), "ledger", id="ledger_index"),
        pytest.param({}, cells("queries", {(4, 2): "1,1"}), "queries", id="queries_extra_cell"),
        pytest.param({}, cells("ledger", {(4, 3): ","}), "ledger", id="ledger_extra_cell"),
        pytest.param({}, cells("queries", {(2, 5): "nan"}), "queries", id="queries_nan"),
        pytest.param({}, cells("ledger", {(2, 4): "nan"}), "ledger", id="ledger_nan"),
        pytest.param({}, cells("queries", {(2, 1): " +1_0"}), "queries", id="int_spelling"),
        pytest.param({}, cells("queries", {(2, 5): " 1_0.5"}), "queries", id="float_spelling"),
        pytest.param({}, cells("queries", {(3, 1): "10"}), "queries", id="returned_label_10"),
        pytest.param({}, cells("queries", {(3, 2): "-1"}), "queries", id="clean_label_-1"),
        pytest.param({}, cells("queries", {(3, 3): "10"}), "queries", id="truth_label_10"),
        # a query row that disagrees with its ledger row
        pytest.param({}, cells("queries", {(2, 5): "123"}), "queries", id="query_sensitivity"),
        pytest.param({}, cells("queries", {(2, 6): ""}), "queries", id="query_epsilon_empty"),
        pytest.param(GAUSSIAN, cells("queries", {(2, 6): "9"}), "queries",
                     id="gaussian_query_epsilon"),
        pytest.param({}, lambda paths: rewrite(paths["ledger"], lambda lines: [
            *lines, f"3,{lines[-1].split(',', 1)[1]}"]), "ledger", id="ledger_extra_row"),
        # a ledger row that disagrees with the config
        pytest.param({}, cells("ledger", {(3, 1): "lnmax", (3, 4): "1"}), "ledger",
                     id="ledger_mechanism"),
        pytest.param({}, cells("ledger", {(3, 2): "0.5"}), "ledger", id="ledger_gamma"),
        pytest.param(GAUSSIAN, cells("ledger", {(3, 3): "3"}), "ledger", id="ledger_sigma"),
        pytest.param({"gamma": None, "scale": 2.0}, forge_gamma_in_a_scale_run, "summary",
                     id="gamma_forged_in_a_scale_run"),
        pytest.param({**GAP_25, "gamma": None, "scale": 2.0},
                     forge_a_sensitivity_the_gap_rules_out, "summary",
                     id="sensitivity_the_gap_rules_out"),
        pytest.param({"mechanism": "lnmax", "gamma": 0.5},
                     lambda paths: forge_row(paths, 1, "0.5"), "queries",
                     id="lnmax_sensitivity_not_one"),
        pytest.param(GAP_4, forge_the_other_sensitivity_at_a_gap_of_four(0), "queries",
                     id="gap_of_four_row_0_other_sensitivity"),
        pytest.param(GAP_4, forge_the_other_sensitivity_at_a_gap_of_four(11), "queries",
                     id="gap_of_four_row_11_other_sensitivity"),
        pytest.param(GAP_4, lambda paths: forge_row(paths, 0, "4"), "queries",
                     id="gap_of_four_neither_sensitivity"),
        pytest.param({**GAP_25, "gamma": 0.5, "distance_grid": ()},
                     cells("queries", {(2, 4): str(2**70)}), "queries", id="gap_beyond_int64"),
        pytest.param({**GAP_25, "gamma": 0.5, "distance_grid": ()},
                     lambda paths: (set_cells(paths["queries"], {(2, 4): str(2**70)}),
                                    forge_row(paths, 0, repr(11.0 * math.exp(-1.0)))),
                     "queries", id="gap_beyond_int64_and_its_sensitivity"),
        # summary.json
        *[pytest.param({}, without(key), "summary", id=f"missing_{key}")
          for key in ("clean_accuracy_pct", "mechanism_accuracy_pct", "agreement_pct",
                      "privacy")],
        pytest.param({}, summary_edit(lambda summary: {**summary, "privacy": None}), "summary",
                     id="privacy_null"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "privacy": {
            "eps_simple": 0.1}}), "summary", id="privacy_object"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "privacy": [
            {"accounting": "paper-simple"}]}), "summary", id="privacy_record_missing_key"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "privacy": [
            {**summary["privacy"][0], "alpha": 1.0}]}), "summary",
            id="privacy_record_extra_key"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "privacy": [
            *summary["privacy"], {}]}), "summary", id="privacy_extra_record"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "clean_accuracy_pct": "x"}),
                     "summary", id="accuracy_string"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "agreement_pct": True}),
                     "summary", id="accuracy_bool"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "qualified_fractions": [
            {"n": 1, "fraction": None}]}), "summary", id="fraction_null"),
        pytest.param({}, set_privacy(0, "eps", "abc"), "summary", id="eps_string"),
        pytest.param({}, set_privacy(0, "eps", math.nan), "summary", id="eps_nan"),
        pytest.param({}, set_privacy(0, "delta", None), "summary", id="delta_null"),
        pytest.param({}, set_privacy(0, "accounting", 3), "summary", id="accounting_int"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "beta": 1}), "summary",
                     id="float_field_int"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "note": 1}), "summary",
                     id="unknown_key"),
        # a summary figure that the query columns or the ledger contradict
        pytest.param({}, summary_edit(lambda summary: {**summary, "agreement_pct": 12}),
                     "summary", id="agreement_12"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "agreement_pct": 100}),
                     "summary", id="agreement_100_as_an_int"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "clean_accuracy_pct": 33}),
                     "summary", id="clean_accuracy_33"),
        pytest.param({}, summary_edit(lambda summary: {
            **summary, "mechanism_accuracy_pct": None}), "summary",
            id="mechanism_accuracy_null"),
        pytest.param({}, summary_edit(lambda summary: {**summary, "qualified_fractions": [
            {**summary["qualified_fractions"][0], "fraction": 0.5},
            *summary["qualified_fractions"][1:]]}), "summary", id="fraction_0.5"),
        pytest.param({}, set_privacy(1, "eps", 9), "summary", id="paper_simple_eps"),
        pytest.param({}, set_privacy(0, "eps", None), "summary", id="paper_moments_eps_null"),
        pytest.param({}, set_privacy(0, "delta", 1e-4), "summary", id="paper_moments_delta"),
        pytest.param({}, set_privacy(2, "definition", "advanced composition"), "summary",
                     id="paper_advanced_definition"),
        pytest.param({}, set_privacy(2, "accounting", "paper-simple"), "summary",
                     id="paper_advanced_accounting"),
        # query columns that contradict the summary
        pytest.param({"distance_grid": (0, 5, 25)},
                     cells("queries", {(line, 4): "0" for line in (2, 3, 4)}), "queries",
                     id="gap_column"),
        pytest.param({"distance_grid": (0, 5, 25)}, cells("queries", {(2, 3): ""}), "queries",
                     id="truth_on_some_rows"),
        pytest.param({"distance_grid": (0, 5, 25)},
                     cells("queries", {(line, 3): "" for line in (2, 3, 4)}), "queries",
                     id="truth_on_no_row"),
        pytest.param({"distance_grid": (0, 5, 25)}, cells("queries", {(2, 6): "0.5"}),
                     "queries", id="query_epsilon"),
    ])
    def test_edited_report_is_refused_at_its_first_differing_line(self, tmp_path, overrides,
                                                                 edit, name):
        # the run that read_report makes writes what the first one wrote, so the refused
        # line is the first that the edit changed
        paths = emit_report(run_experiment(small_config(**{"queries": 3, **overrides})),
                            tmp_path / "r")
        written = paths[name].read_text()
        edit(paths)
        line, expected, found = first_difference(written, paths[name].read_text())
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths[name]}:{line}: expected {shown(expected)}, "
                                   f"found {shown(found)}")

    # (summary.json key, edited value, the line read_report refuses, the re-run's text of it)
    @pytest.mark.parametrize("key, value, line, expected", [
        # beta sets no gamma and no figure of a gamma run, but the run's noise scale
        ("beta", 2.0, 17, '  "mechanism_accuracy_pct": 33.3333333333,\n'),
    ])
    def test_edited_config_is_refused_where_its_run_differs(self, tmp_path, key, value, line,
                                                           expected):
        paths = emit_report(run_experiment(small_config(queries=3, **GAP_25)), tmp_path / "r")
        edit_summary(paths["summary"], lambda summary: {**summary, key: value})
        found = paths["summary"].read_text().splitlines(keepends=True)[line - 1]
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['summary']}:{line}: expected {shown(expected)}, "
                                   f"found {shown(found)}")

    def test_row_count_other_than_query_count_is_refused_before_the_run(self, tmp_path,
                                                                         monkeypatch):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        rewrite(paths["queries"], lambda lines: lines[:3])
        monkeypatch.setattr(pipeline, "run_experiment", lambda config: pytest.fail("ran"))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['queries']}: 2 rows, but query_count is 3"

    def test_query_count_beyond_the_file_starts_no_run(self, tmp_path, monkeypatch):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        edit_summary(paths["summary"], lambda summary: {**summary, "query_count": 10**20})
        monkeypatch.setattr(pipeline, "run_experiment", lambda config: pytest.fail("ran"))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['queries']}: 3 rows, but query_count is {10**20}"

    @pytest.mark.parametrize("overrides", [
        {}, {"mechanism": "nzc-gaussian", "gamma": None, "sigma": 2.0}, {"queries": 0}])
    def test_results_are_the_rows_of_the_columns(self, tmp_path, overrides):
        report = run_experiment(small_config(**{"queries": 30, **overrides}))
        emit_report(report, tmp_path / "r")
        for each in (report, read_report(tmp_path / "r")):
            assert [len(column) for column in each.columns] == [each.query_count] * 7
            assert each.results == tuple(map(QueryResult, *each.columns))

    @pytest.mark.parametrize("mechanism, parameter", [
        ("nzc-laplace", {"gamma": 0.1234567890123456}),
        ("nzc-gaussian", {"gamma": None, "sigma": 2.718281828459045}),
    ])
    def test_parameter_of_more_than_12_digits_round_trips(self, tmp_path, mechanism, parameter):
        # summary.json keeps config floats as given, so the ledger rows match them exactly
        report = run_experiment(small_config(mechanism=mechanism, queries=5, **parameter))
        paths = emit_report(report, tmp_path / "first")
        (name, value), = ((k, v) for k, v in parameter.items() if v is not None)
        assert json.loads(paths["summary"].read_text())[name] == value
        again = emit_report(read_report(tmp_path / "first"), tmp_path / "second")
        for key in ("summary", "queries", "ledger"):
            assert paths[key].read_bytes() == again[key].read_bytes()

    def test_round_trip_keeps_a_query_epsilon_that_overflowed(self, tmp_path):
        # a query's epsilon = 2 * gamma is inf for gamma above about 9e307, yet gamma is finite
        report = run_experiment(small_config(mechanism="lnmax", gamma=1e308, queries=3))
        assert [r.epsilon for r in report.results] == [math.inf] * 3
        paths = emit_report(report, tmp_path / "first")
        again = emit_report(read_report(tmp_path / "first"), tmp_path / "second")
        for key in ("summary", "queries", "ledger"):
            assert paths[key].read_bytes() == again[key].read_bytes()

    @pytest.mark.parametrize("name", ["summary", "queries", "ledger"])
    def test_missing_report_file_is_one_line_error_naming_it(self, tmp_path, name):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        paths[name].unlink()
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths[name]}: No such file or directory"

    def test_malformed_summary_is_one_line_error_naming_the_file(self, tmp_path):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        paths["summary"].write_text("{not json")
        with pytest.raises(ValueError, match=r"summary\.json: not valid JSON") as info:
            read_report(tmp_path / "r")
        assert "\n" not in str(info.value)

    SUMMARY_KEYS = [
        "mechanism", "seed", "num_classes", "query_count", "teachers", "teacher_accuracy",
        "predictions", "truth", "boost_constant", "gamma", "sigma", "scale", "beta", "delta",
        "clean_accuracy_pct", "mechanism_accuracy_pct", "agreement_pct",
        "qualified_fractions", "privacy",
    ]

    # the keys the config is parsed from; the test above refuses a missing figure
    @pytest.mark.parametrize("key", SUMMARY_KEYS[:14] + ["qualified_fractions"])
    def test_summary_missing_config_key_is_rejected_with_its_name(self, tmp_path, key):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        assert list(json.loads(paths["summary"].read_text())) == self.SUMMARY_KEYS
        edit_summary(paths["summary"], lambda summary: {k: v for k, v in summary.items()
                                                        if k != key})
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['summary']}: missing key '{key}'"

    @pytest.mark.parametrize("mutate", [
        lambda summary: [],
        lambda summary: {**summary, "qualified_fractions": 5},
    ], ids=["list", "qualified_fractions_int"])
    def test_summary_of_wrong_shape_is_one_line_error_naming_the_file(self, tmp_path, mutate):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        edit_summary(paths["summary"], mutate)
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['summary']}: {SHAPE}"

    @pytest.mark.parametrize("mutate,message", [
        (lambda summary: {**summary, "seed": "x"}, "config field seed must be an integer, got 'x'"),
        (lambda summary: {**summary, "teacher_accuracy": 5.0},
         "teacher_accuracy must lie in [0, 1], got 5.0"),
        (lambda summary: {**summary, "beta": 1000.0},
         "beta 1000.0 is too large: e^-beta underflows to 0, which leaves no sensitivity to "
         "scale the noise to"),
        (lambda summary: {**summary, "teachers": 2**63},
         f"teachers must be below 2**63, got {2**63}"),
    ], ids=["seed_string", "teacher_accuracy_above_one", "beta_that_discounts_to_zero",
            "teachers_beyond_int64"])
    def test_summary_config_that_does_not_validate_is_one_line_error_naming_the_file(
            self, tmp_path, mutate, message):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        edit_summary(paths["summary"], mutate)
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['summary']}: {message}"

    def test_teacher_accuracy_in_a_prediction_file_summary_is_one_line_error(self, tmp_path):
        # a replay's summary says null; an accuracy there was never any teacher's
        preds = tmp_path / "preds.csv"
        preds.write_text("query_id,teacher_id,label\n" + "\n".join(
            f"{q},{t},{(q + (t == 0)) % 3}" for q in range(4) for t in range(5)) + "\n")
        paths = emit_report(run_experiment(ExperimentConfig(
            mechanism="lnmax", seed=1, num_classes=3, predictions=str(preds), gamma=0.5)),
            tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        assert summary["teacher_accuracy"] is None
        read_report(tmp_path / "r")
        edit_summary(paths["summary"], lambda summary: {**summary, "teacher_accuracy": 0.5})
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['summary']}: prediction-file runs have no synthetic "
                                   "teachers; they take no teacher_accuracy")

    @staticmethod
    def replay(directory):
        """A replay report in ``directory``, the working directory, whose summary.json names
        its prediction CSV by the relative path preds.csv; every label is the plurality's."""
        Path("preds.csv").write_text("query_id,teacher_id,label\n" + "\n".join(
            f"{q},{t},{(q + (t == 0)) % 3}" for q in range(4) for t in range(5)) + "\n")
        config = ExperimentConfig(mechanism="lnmax", seed=1, num_classes=3,
                                  predictions="preds.csv", gamma=50.0, distance_grid=())
        return emit_report(run_experiment(config), directory)

    def test_replay_without_its_prediction_file_is_one_line_naming_the_summary(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        paths = self.replay("r")
        read_report("r")
        Path("preds.csv").unlink()
        with pytest.raises(ValueError) as info:
            read_report("r")
        message = str(info.value)
        assert message.startswith(f"{paths['summary']}: ") and "preds.csv" in message
        assert "\n" not in message

    def test_prediction_file_edited_after_the_run_is_refused_at_a_queries_line(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        paths = self.replay("r")
        written = paths["queries"].read_text()
        # query 2 gets votes 3, 2 for its two leading labels: the same plurality, a gap of 1
        rewrite(Path("preds.csv"), lambda lines: [*lines[:12], "2,1,0", *lines[13:]])
        with pytest.raises(ValueError) as info:
            read_report("r")
        found = written.splitlines(keepends=True)[3]
        assert found.split(",")[4] == "3"
        assert str(info.value) == (f"{paths['queries']}:4: expected "
                                   f"{shown(found.replace(',3,', ',1,', 1))}, found {shown(found)}")

    def test_qualified_table_has_one_row_per_grid_entry(self, tmp_path):
        report = run_experiment(small_config(queries=30))
        paths = emit_report(report, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        assert [row["n"] for row in summary["qualified_fractions"]] == [1, 2, 3, 5, 10, 25, 50, 100]

    def test_runtime_not_in_emitted_files(self, tmp_path):
        report = run_experiment(small_config(queries=10))
        paths = emit_report(report, tmp_path / "r")
        assert "runtime" not in paths["summary"].read_text()


REPORT_FILES = ("summary.json", "queries.csv", "ledger.csv")


def _report_bytes(out):
    return {name: (out / name).read_bytes() for name in REPORT_FILES}


class TestFreshReportFiles:
    """emit_report writes each file anew in place of the one there, rather than truncating it."""

    def test_a_short_report_over_a_long_one_leaves_no_stale_tail(self, tmp_path):
        emit_report(run_experiment(small_config(queries=1000)), tmp_path / "r")
        short = run_experiment(small_config(queries=3))
        emit_report(short, tmp_path / "r")
        emit_report(short, tmp_path / "empty")
        assert _report_bytes(tmp_path / "r") == _report_bytes(tmp_path / "empty")

    @pytest.mark.parametrize("name", REPORT_FILES)
    def test_a_symlinked_report_file_becomes_a_regular_file(self, tmp_path, name):
        target = tmp_path / "target"
        target.write_text("kept\n", encoding="utf-8")
        (tmp_path / "r").mkdir()
        (tmp_path / "r" / name).symlink_to(target)
        report = run_experiment(small_config(queries=3))
        emit_report(report, tmp_path / "r")
        emit_report(report, tmp_path / "empty")
        assert not (tmp_path / "r" / name).is_symlink()
        assert target.read_text(encoding="utf-8") == "kept\n"
        assert _report_bytes(tmp_path / "r") == _report_bytes(tmp_path / "empty")

    @pytest.mark.parametrize("name", REPORT_FILES)
    def test_a_hard_linked_report_file_leaves_its_other_name_the_old_bytes(self, tmp_path, name):
        emit_report(run_experiment(small_config(queries=5)), tmp_path / "r")
        old = (tmp_path / "r" / name).read_bytes()
        os.link(tmp_path / "r" / name, tmp_path / "other")
        emit_report(run_experiment(small_config(queries=3, seed=7)), tmp_path / "r")
        assert (tmp_path / "other").read_bytes() == old
        assert (tmp_path / "r" / name).read_bytes() != old

    def test_a_directory_in_place_of_a_report_file_is_one_line_error(self, tmp_path, capsys):
        (tmp_path / "d" / "queries.csv").mkdir(parents=True)
        code = main(["run", "--mechanism", "lnmax", "--teachers", "5", "--queries", "3",
                     "--gamma", "0.1", "--seed", "1", "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "queries.csv" in err
        assert "Traceback" not in err


class TestTracedNames:
    """Each name the benchmark's span tracer patches on the labeling path is still called
    through that name; a name that is defined but no longer called would time as 0."""

    NAMES = [(pipeline, "argmax"), (pipeline, "gap"), (mechanisms, "noisy_argmax"),
             (NoiseSpec, "sample"), (PrivacyLedger, "export")]

    def _uncalled(self, monkeypatch, config, out, names):
        """The names of ``names`` that one run_experiment + emit_report does not call."""
        calls = Counter()
        for owner, name in names:
            def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        emit_report(run_experiment(config), out)
        return [name for _, name in names if not calls[name]]

    def test_boosted_synthetic_run(self, monkeypatch, tmp_path):
        config = small_config(queries=1000, teachers=250, boost_constant=1e100, gamma=None,
                              scale=1e10)
        assert self._uncalled(monkeypatch, config, tmp_path / "r",
                              self.NAMES + [(mechanisms, "boost")]) == []

    def test_baseline_replay_run(self, monkeypatch, tmp_path):
        preds, truth = tmp_path / "preds.csv", tmp_path / "truth.csv"
        preds.write_text("query_id,teacher_id,label\n" + "".join(
            f"{q},{t},{(q + t) % 4}\n" for q in range(20) for t in range(5)), encoding="utf-8")
        truth.write_text("query_id,label\n" + "".join(f"{q},{q % 4}\n" for q in range(20)),
                         encoding="utf-8")
        config = ExperimentConfig(mechanism="lnmax", seed=3, num_classes=4, gamma=0.1,
                                  predictions=str(preds), truth=str(truth))
        assert self._uncalled(monkeypatch, config, tmp_path / "r", self.NAMES) == []


@st.composite
def report_configs(draw):
    """Small synthetic runs of every mechanism, calibrated by parameter or by raw scale."""
    mechanism = draw(st.sampled_from(MECHANISMS))
    param = "gamma" if mechanism != "nzc-gaussian" else "sigma"
    noise = {draw(st.sampled_from([param, "scale"])): draw(st.floats(0.01, 100))}
    return ExperimentConfig(
        mechanism=mechanism, seed=draw(st.integers(0, 2**32)), queries=draw(st.integers(0, 5)),
        num_classes=draw(st.integers(2, 4)), teachers=draw(st.integers(1, 7)),
        teacher_accuracy=draw(st.floats(0, 1)),
        boost_constant=0.0 if mechanism == "lnmax" else draw(st.sampled_from([0.0, 3.0, 1e100])),
        beta=draw(st.floats(0.1, 3)), delta=draw(st.floats(1e-9, 0.5)),
        distance_grid=tuple(draw(st.lists(st.integers(0, 8), max_size=3))), **noise)


def _leaves(value, path=()):
    """The path of every scalar in a JSON value."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(item, path + (key,))
    else:
        yield path


def _variants(value) -> list:
    """JSON values near ``value``: the same number as another JSON type, a neighbour, a typo."""
    if isinstance(value, bool) or value is None:
        return [0, "x"]
    if isinstance(value, int):
        return [float(value), value + 1, -value]
    if isinstance(value, float):
        near = [value * 2, float(f"{value:.3g}"), -value]
        return near + [int(value)] if math.isfinite(value) and value == int(value) else near
    return [value + "x", value[:-1]]


def _cell_variants(cell: str) -> list:
    """Table cell texts near ``cell``: a digit more or less, a sign, another spelling."""
    return [cell + "0", cell[:-1], "-" + cell, cell + ".0", f"{cell}1", "0" + cell]


class TestEditedReport:
    """read_report runs the report's config again, so any edit either is refused or is
    what that run writes."""

    CELLS = st.one_of(st.sampled_from(["", "0", "1", "-0", "2", "x", "nan", "inf", "1e-05"]),
                      st.integers(-2, 10**20).map(str),
                      st.floats(allow_nan=False).map(repr))
    VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 10**20),
                       st.floats(allow_nan=True), st.text(max_size=3))

    @staticmethod
    def edits(text: str, key: str, data) -> list[str]:
        """The file text with one drawn cell (a JSON scalar of summary.json) edited, each way."""
        if key == "summary":
            summary = json.loads(text)
            *parents, leaf = data.draw(st.sampled_from(list(_leaves(summary))))
            holder = summary
            for part in parents:
                holder = holder[part]
            original, edited = holder[leaf], []
            for value in _variants(original) + [data.draw(TestEditedReport.VALUES)]:
                holder[leaf] = value
                edited.append(json.dumps(summary, indent=2) + "\n")
            holder[leaf] = original
            return edited
        lines = text.splitlines()
        line = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[line].split(",")
        cell = data.draw(st.integers(0, len(cells) - 1))
        edited = []
        for value in _cell_variants(cells[cell]) + [data.draw(TestEditedReport.CELLS)]:
            row = ",".join(cells[:cell] + [value] + cells[cell + 1:])
            edited.append("\n".join(lines[:line] + [row] + lines[line + 1:]) + "\n")
        return edited

    @settings(max_examples=150, deadline=None)
    @given(config=report_configs(), data=st.data())
    def test_single_edit_is_refused_in_one_line_or_emitted_as_edited(self, config, data):
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp, "first"), Path(tmp, "again")
            paths = emit_report(run_experiment(config), first)
            written = {key: path.read_bytes() for key, path in paths.items()}
            emitted = emit_report(read_report(first), again)
            assert {key: path.read_bytes() for key, path in emitted.items()} == written

            key = data.draw(st.sampled_from(sorted(paths)))
            original = paths[key].read_text()
            for text in self.edits(original, key, data):
                paths[key].write_text(text)
                try:
                    report = read_report(first)
                except ValueError as exc:
                    message = str(exc)
                    assert "\n" not in message
                    assert message.startswith(str(first))
                    continue
                emitted = emit_report(report, again)
                assert {k: path.read_text() for k, path in emitted.items()} == {
                    k: path.read_text() for k, path in paths.items()}
