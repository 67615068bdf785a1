import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import replace
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

    def test_short_query_row_is_rejected_with_its_line(self, tmp_path):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        lines = paths["queries"].read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        paths["queries"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"queries.csv:3: expected 7 fields, got 6"):
            read_report(tmp_path / "r")

    def test_bad_query_cell_is_rejected_with_its_line_and_column(self, tmp_path):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        lines = paths["queries"].read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "x"
        lines[2] = ",".join(cells)
        paths["queries"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        message = str(info.value)
        assert "\n" not in message
        assert message.endswith("queries.csv:3: returned_label must be an integer, got 'x'")

    @pytest.mark.parametrize("name", ["queries", "ledger"])
    def test_empty_table_lines_are_skipped(self, tmp_path, name):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "first")
        text = paths[name].read_text()
        lines = text.splitlines()
        paths[name].write_text("\n".join(lines[:2] + ["", ""] + lines[2:] + [""]) + "\n")
        again = emit_report(read_report(tmp_path / "first"), tmp_path / "second")
        assert again[name].read_text() == text

    # (file, line, cell index, new cell text, error after the file's path)
    @pytest.mark.parametrize("name, line, cell, value, message", [
        ("queries", 1, 0, "id", ":1: expected the header 'query_id,returned_label,clean_label,"
                                "truth_label,gap,sensitivity,epsilon'"),
        ("ledger", 1, 0, "id", ":1: expected the header 'index,mechanism,gamma,sigma,sensitivity'"),
        ("queries", 3, 0, "x", ":3: query_id must be 1, got 'x'"),
        ("ledger", 3, 0, "2", ":3: index must be 1, got '2'"),
        ("queries", 4, 2, "1,1", ":4: expected 7 fields, got 8"),
        ("ledger", 4, 3, ",", ":4: expected 5 fields, got 6"),
        ("queries", 2, 5, "nan", ":2: sensitivity must be a number, got 'nan'"),
        ("ledger", 2, 4, "nan", ":2: sensitivity must be a finite number, got 'nan'"),
        ("queries", 2, 1, " +1_0", ":2: returned_label must be an integer, got ' +1_0'"),
        ("queries", 2, 5, " 1_0.5", ":2: sensitivity must be a number, got ' 1_0.5'"),
        ("queries", 3, 1, "10", ":3: returned_label must lie in [0, 10), got 10"),
        ("queries", 3, 2, "-1", ":3: clean_label must lie in [0, 10), got -1"),
        ("queries", 3, 3, "10", ":3: truth_label must lie in [0, 10), got 10"),
    ])
    def test_table_fault_is_one_line_error_naming_its_line(self, tmp_path, name, line, cell,
                                                           value, message):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        lines = paths[name].read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[cell] = value
        lines[line - 1] = ",".join(cells)
        paths[name].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths[name]}{message}"

    # (config overrides, cell index in row 0 of queries.csv, new cell text, error after its path)
    @pytest.mark.parametrize("overrides, cell, value, message", [
        ({}, 5, "123", ":2: sensitivity 123.0 differs from the {sensitivity!r} of ledger.csv row 0"),
        ({}, 6, "", ":2: epsilon None differs from the 0.02 of ledger.csv row 0"),
        ({"mechanism": "nzc-gaussian", "gamma": None, "sigma": 2.0}, 6, "9",
         ":2: epsilon 9.0 differs from the None of ledger.csv row 0"),
    ])
    def test_query_row_that_disagrees_with_its_ledger_row_is_one_line_error(
            self, tmp_path, overrides, cell, value, message):
        paths = emit_report(run_experiment(small_config(queries=3, **overrides)), tmp_path / "r")
        lines = paths["queries"].read_text().splitlines()
        cells = lines[1].split(",")
        cells[cell] = value
        lines[1] = ",".join(cells)
        paths["queries"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        sensitivity = PrivacyLedger.load(paths["ledger"]).entries[0].sensitivity
        assert str(info.value) == f"{paths['queries']}{message.format(sensitivity=sensitivity)}"

    @pytest.mark.parametrize("name, rows", [("queries", 2), ("ledger", 4)])
    def test_row_count_other_than_query_count_is_one_line_error(self, tmp_path, name, rows):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        lines = paths[name].read_text().splitlines()
        lines = lines[:rows + 1] if rows < 3 else lines + [f"3,{lines[-1].split(',', 1)[1]}"]
        paths[name].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths[name]}: {rows} rows, but query_count is 3"

    @pytest.mark.parametrize("overrides", [
        {}, {"mechanism": "nzc-gaussian", "gamma": None, "sigma": 2.0}, {"queries": 0}])
    def test_results_are_the_rows_of_the_columns(self, tmp_path, overrides):
        report = run_experiment(small_config(**{"queries": 30, **overrides}))
        emit_report(report, tmp_path / "r")
        for each in (report, read_report(tmp_path / "r")):
            assert [len(column) for column in each.columns] == [each.query_count] * 7
            assert each.results == tuple(map(QueryResult, *each.columns))

    # (config overrides, ledger.csv row 1 as edited, error after the ledger's path)
    @pytest.mark.parametrize("overrides, row, message", [
        ({}, "1,lnmax,0.01,,1", ":3: mechanism 'lnmax' differs from the config's 'nzc-laplace'"),
        ({}, "1,nzc-laplace,0.5,,{sensitivity}",
         ":3: gamma 0.5 differs from the config's 0.01 at sensitivity {sensitivity}"),
        ({"mechanism": "nzc-gaussian", "gamma": None, "sigma": 2.0},
         "1,nzc-gaussian,,3,{sensitivity}",
         ":3: sigma 3.0 differs from the config's 2.0 at sensitivity {sensitivity}"),
    ], ids=["mechanism", "gamma", "sigma"])
    def test_ledger_row_that_disagrees_with_the_config_is_one_line_error(
            self, tmp_path, overrides, row, message):
        paths = emit_report(run_experiment(small_config(queries=3, **overrides)), tmp_path / "r")
        lines = paths["ledger"].read_text().splitlines()
        cell = lines[2].rsplit(",", 1)[1]
        lines[2] = row.format(sensitivity=cell)
        paths["ledger"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['ledger']}{message.format(sensitivity=float(cell))}"

    def test_ledger_forged_to_another_gamma_in_a_scale_run_is_one_line_error(self, tmp_path):
        # every gamma, every epsilon and the summary's privacy figures agree with each other,
        # but a scale run charges each row sensitivity / scale
        report = run_experiment(small_config(gamma=None, scale=2.0, queries=3))
        paths = emit_report(report, tmp_path / "r")
        for name, cell, value in (("ledger", 2, "0.5"), ("queries", 6, "1")):
            header, *rows = paths[name].read_text().splitlines()
            rows = [",".join([*row.split(",")[:cell], value, *row.split(",")[cell + 1:]])
                    for row in rows]
            paths[name].write_text("\n".join([header, *rows]) + "\n")
        summary = json.loads(paths["summary"].read_text())
        summary["privacy"] = [{**vars(f), "eps": float(f"{f.eps:.12g}")}
                              for f in PrivacyLedger.load(paths["ledger"]).figures(1e-5)]
        paths["summary"].write_text(json.dumps(summary, indent=2) + "\n")
        sensitivity = report.ledger.entries[0].sensitivity
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['ledger']}:2: gamma 0.5 differs from the config's "
                                   f"{sensitivity / 2.0!r} at sensitivity {sensitivity!r}")

    @staticmethod
    def forge_row(paths, row, sensitivity, gamma=None, epsilon=None):
        """Give query ``row`` another sensitivity in both tables (and another gamma and epsilon)."""
        for name, cells in (("ledger", {4: sensitivity, 2: gamma}),
                            ("queries", {5: sensitivity, 6: epsilon})):
            lines = paths[name].read_text().splitlines()
            row_cells = lines[row + 1].split(",")
            for cell, value in cells.items():
                if value is not None:
                    row_cells[cell] = value
            lines[row + 1] = ",".join(row_cells)
            paths[name].write_text("\n".join(lines) + "\n")

    def test_ledger_sensitivity_that_the_gap_rules_out_is_one_line_error(self, tmp_path):
        # every file agrees with every other, but a gap of 25 votes gives e^-beta, not 4
        report = run_experiment(small_config(seed=3, teachers=25, queries=3, boost_constant=10.0,
                                             gamma=None, scale=2.0))
        assert report.columns[4][0] == 25
        paths = emit_report(report, tmp_path / "r")
        self.forge_row(paths, 0, "4", gamma="2", epsilon="4")
        summary = json.loads(paths["summary"].read_text())
        summary["privacy"] = [{**vars(f), "eps": float(f"{f.eps:.12g}")}
                              for f in PrivacyLedger.load(paths["ledger"]).figures(1e-5)]
        paths["summary"].write_text(json.dumps(summary, indent=2) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['ledger']}:2: sensitivity 4.0 differs from the "
                                   f"config's {math.exp(-1.0)!r} at gap 25")

    def test_lnmax_ledger_sensitivity_other_than_one_is_one_line_error(self, tmp_path):
        report = run_experiment(small_config(mechanism="lnmax", gamma=0.5, queries=3))
        paths = emit_report(report, tmp_path / "r")
        self.forge_row(paths, 1, "0.5")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['ledger']}:3: sensitivity 0.5 differs from the "
                                   f"config's 1.0 at gap {report.columns[4][1]}")

    @pytest.mark.parametrize("beta, message", [
        (2.0, f"ledger.csv:2: sensitivity {math.exp(-1.0)!r} differs from the config's "
              f"{math.exp(-2.0)!r} at gap 25"),
        (1000.0, "summary.json: beta 1000.0 is too large: e^-beta underflows to 0, "
                 "which leaves no sensitivity to scale the noise to"),
    ])
    def test_beta_that_the_ledger_contradicts_is_one_line_error(self, tmp_path, beta, message):
        # beta sets no gamma and no figure of a gamma run; only the sensitivities show it
        report = run_experiment(small_config(seed=3, teachers=25, queries=3, boost_constant=10.0))
        paths = emit_report(report, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        paths["summary"].write_text(json.dumps({**summary, "beta": beta}, indent=2) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{tmp_path / 'r'}/{message}"

    @pytest.mark.parametrize("row", [0, 11])
    def test_gap_of_four_loads_at_either_sensitivity(self, tmp_path, row):
        # at a gap of 4 the flip distance is 2 or 3, by which of the two leading bins comes first
        report = run_experiment(small_config(seed=2, teachers=10, teacher_accuracy=0.5,
                                             queries=12, boost_constant=10.0, gamma=0.5))
        low, high = math.exp(-1.0), 11.0 * math.exp(-1.0)
        assert report.columns[4][row] == 4 and report.columns[5][0] == low
        assert report.columns[5][11] == high
        paths = emit_report(report, tmp_path / "r")
        other = high if report.columns[5][row] == low else low
        self.forge_row(paths, row, repr(other))
        loaded = read_report(tmp_path / "r")
        assert loaded.columns[5][row] == other
        assert loaded.ledger.entries[row].sensitivity == other

    def test_sensitivity_at_a_gap_of_four_that_neither_value_gives_names_both(self, tmp_path):
        report = run_experiment(small_config(seed=2, teachers=10, teacher_accuracy=0.5,
                                             queries=12, boost_constant=10.0, gamma=0.5))
        assert report.columns[4][0] == 4
        paths = emit_report(report, tmp_path / "r")
        self.forge_row(paths, 0, "4")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['ledger']}:2: sensitivity 4.0 differs from the "
                                   f"config's {11.0 * math.exp(-1.0)!r} or {math.exp(-1.0)!r} "
                                   "at gap 4")

    def test_gap_beyond_int64_is_checked_as_any_other(self, tmp_path):
        # such a gap column is object dtype; with no distance grid no figure reads it
        report = run_experiment(small_config(seed=3, teachers=25, queries=3, boost_constant=10.0,
                                             gamma=0.5, distance_grid=()))
        assert report.columns[4][0] == 25
        paths = emit_report(report, tmp_path / "r")
        lines = paths["queries"].read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = str(2**70)
        lines[1] = ",".join(cells)
        paths["queries"].write_text("\n".join(lines) + "\n")
        assert read_report(tmp_path / "r").columns[4][0] == 2**70
        self.forge_row(paths, 0, repr(11.0 * math.exp(-1.0)))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['ledger']}:2: sensitivity {11.0 * math.exp(-1.0)!r} "
                                   f"differs from the config's {math.exp(-1.0)!r} at gap {2**70}")

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

    @pytest.mark.parametrize("key", SUMMARY_KEYS)
    def test_summary_missing_key_is_rejected_with_its_name(self, tmp_path, key):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        assert list(summary) == self.SUMMARY_KEYS
        del summary[key]
        paths["summary"].write_text(json.dumps(summary))
        with pytest.raises(ValueError, match=rf"summary.json: missing key '{key}'"):
            read_report(tmp_path / "r")

    # (edit, name in the error, the edited part as it reads in the error)
    @pytest.mark.parametrize("mutate, name, stated", [
        (lambda summary: [], None, None),
        (lambda summary: {**summary, "qualified_fractions": 5}, None, None),
        (lambda summary: {**summary, "privacy": None}, "privacy", "null"),
        (lambda summary: {**summary, "privacy": {"eps_simple": 0.1}}, "privacy",
         '{"eps_simple": 0.1}'),
        (lambda summary: {**summary, "privacy": [{"accounting": "paper-simple"}]},
         "privacy paper-moments", '{"accounting": "paper-simple"}'),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "alpha": 1.0}]},
         "privacy paper-moments", None),
        (lambda summary: {**summary, "privacy": summary["privacy"] + [{}]}, "privacy", "{}"),
    ], ids=["list", "qualified_fractions_int", "privacy_null", "privacy_object",
            "privacy_record_missing_key", "privacy_record_extra_key", "privacy_extra_record"])
    def test_summary_of_wrong_shape_is_one_line_error_naming_the_file(
            self, tmp_path, mutate, name, stated):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        paths["summary"].write_text(json.dumps(mutate(summary)))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        message = str(info.value)
        assert "\n" not in message
        if name is None:  # a shape that leaves no config to derive the report from
            assert message.startswith(f"{paths['summary']}: expected an object")
        else:
            assert message.startswith(f"{paths['summary']}: {name} is {stated or ''}")
            assert ", but ledger.csv gives " in message

    # a privacy record as it reads in an error: the first record of the run below, edited
    FIRST_FIGURE = ('{{"accounting": {accounting}, "definition": "moments accountant: '
                    '2*gamma^2*l*(l+1) per query at orders 1..32, tail bound (paper; Abadi et al. '
                    '2016)", "eps": {eps}, "delta": {delta}}}')

    @pytest.mark.parametrize("mutate,message", [
        (lambda summary: {**summary, "clean_accuracy_pct": "x"},
         'clean_accuracy_pct is "x", but queries.csv gives 100.0'),
        (lambda summary: {**summary, "agreement_pct": True},
         "agreement_pct is true, but queries.csv gives 100.0"),
        (lambda summary: {**summary, "qualified_fractions": [{"n": 1, "fraction": None}]},
         'qualified_fractions is [{"n": 1, "fraction": null}], but queries.csv gives '
         '[{"n": 1, "fraction": 1.0}]'),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "eps": "abc"}]},
         "privacy paper-moments is " + FIRST_FIGURE.format(
             accounting='"paper-moments"', eps='"abc"', delta=1e-05) + ", but ledger.csv gives "
         + FIRST_FIGURE.format(accounting='"paper-moments"', eps=0.37957892078, delta=1e-05)),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "eps": math.nan}]},
         "privacy paper-moments is " + FIRST_FIGURE.format(
             accounting='"paper-moments"', eps="NaN", delta=1e-05) + ", but ledger.csv gives "
         + FIRST_FIGURE.format(accounting='"paper-moments"', eps=0.37957892078, delta=1e-05)),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "delta": None}]},
         "privacy paper-moments is " + FIRST_FIGURE.format(
             accounting='"paper-moments"', eps=0.37957892078, delta="null")
         + ", but ledger.csv gives "
         + FIRST_FIGURE.format(accounting='"paper-moments"', eps=0.37957892078, delta=1e-05)),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "accounting": 3}]},
         "privacy paper-moments is " + FIRST_FIGURE.format(
             accounting=3, eps=0.37957892078, delta=1e-05) + ", but ledger.csv gives "
         + FIRST_FIGURE.format(accounting='"paper-moments"', eps=0.37957892078, delta=1e-05)),
        (lambda summary: {**summary, "seed": "x"}, "config field seed must be an integer, got 'x'"),
        (lambda summary: {**summary, "teacher_accuracy": 5.0},
         "teacher_accuracy must lie in [0, 1], got 5.0"),
        (lambda summary: {**summary, "beta": 1}, "beta is 1, but the config gives 1.0"),
        (lambda summary: {**summary, "note": 1}, "unknown key 'note'"),
    ], ids=["accuracy_string", "accuracy_bool", "fraction_null", "eps_string", "eps_nan",
          "delta_null", "accounting_int", "seed_string", "teacher_accuracy_above_one",
          "float_field_int", "unknown_key"])
    def test_summary_value_of_wrong_type_is_one_line_error_naming_the_file(
            self, tmp_path, mutate, message):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        paths["summary"].write_text(json.dumps(mutate(summary)))
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
        paths["summary"].write_text(json.dumps({**summary, "teacher_accuracy": 0.5}, indent=2))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['summary']}: prediction-file runs have no synthetic "
                                   "teachers; they take no teacher_accuracy")

    @pytest.mark.parametrize("key, value", [
        ("agreement_pct", 12),
        ("agreement_pct", 100),  # JSON types count: the columns give 100.0
        ("clean_accuracy_pct", 33),
        ("mechanism_accuracy_pct", None),
        ("qualified_fractions", 0.5),
    ])
    def test_summary_figure_that_the_query_columns_contradict_is_one_line_error(
            self, tmp_path, key, value):
        report = run_experiment(small_config(queries=3))
        assert report.agreement_pct == 100.0
        paths = emit_report(report, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        edited = json.loads(paths["summary"].read_text())
        if key == "qualified_fractions":
            edited[key][0]["fraction"] = value
        else:
            edited[key] = value
        paths["summary"].write_text(json.dumps(edited))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == (f"{paths['summary']}: {key} is {json.dumps(edited[key])}, "
                                   f"but queries.csv gives {json.dumps(summary[key])}")

    # (privacy record index, field, edited value)
    @pytest.mark.parametrize("index, field, value", [
        (1, "eps", 9),  # paper-simple: the ledger gives 3 queries at 2 * 0.01
        (0, "eps", None),
        (0, "delta", 1e-4),
        (2, "definition", "advanced composition"),
        (2, "accounting", "paper-simple"),
    ])
    def test_summary_privacy_figure_that_the_ledger_contradicts_is_one_line_error(
            self, tmp_path, index, field, value):
        report = run_experiment(small_config(queries=3))
        assert report.eps_simple == 0.06
        paths = emit_report(report, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        edited = json.loads(paths["summary"].read_text())
        edited["privacy"][index][field] = value
        paths["summary"].write_text(json.dumps(edited))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        derived = summary["privacy"][index]
        assert str(info.value) == (
            f"{paths['summary']}: privacy {derived['accounting']} is "
            f"{json.dumps(edited['privacy'][index])}, but ledger.csv gives {json.dumps(derived)}")

    # (cell index in queries.csv, new text of that cell on the given rows, error after the path)
    @pytest.mark.parametrize("cell, value, rows, message", [
        (4, "0", [0, 1, 2], 'summary.json: qualified_fractions is [{"n": 0, "fraction": 1.0}, '
                            '{"n": 5, "fraction": 1.0}, {"n": 25, "fraction": 1.0}], but '
                            'queries.csv gives [{"n": 0, "fraction": 0.0}, {"n": 5, "fraction": '
                            '0.0}, {"n": 25, "fraction": 0.0}]'),
        (3, "", [0], "queries.csv: truth_label is set on 2 of 3 rows; set it on every row or none"),
        (3, "", [0, 1, 2], "summary.json: clean_accuracy_pct is 100.0, but queries.csv gives null"),
        (6, "0.5", [0], "queries.csv:2: epsilon 0.5 differs from the 0.02 of ledger.csv row 0"),
    ], ids=["gap", "truth_on_some_rows", "truth_on_no_row", "epsilon"])
    def test_query_columns_that_contradict_the_summary_are_one_line_error(
            self, tmp_path, cell, value, rows, message):
        report = run_experiment(small_config(queries=3, distance_grid=(0, 5, 25)))
        assert report.clean_accuracy_pct == 100.0
        assert report.qualified_fractions == ((0, 1.0), (5, 1.0), (25, 1.0))
        paths = emit_report(report, tmp_path / "r")
        lines = paths["queries"].read_text().splitlines()
        for row in rows:
            cells = lines[row + 1].split(",")
            cells[cell] = value
            lines[row + 1] = ",".join(cells)
        paths["queries"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{tmp_path / 'r'}/{message}"

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
    """read_report derives every figure, so any edit either is refused or is what loads."""

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
