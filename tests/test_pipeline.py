import json
import math
from dataclasses import replace

import pytest

from dpvote import (
    BLOCK,
    ExperimentConfig,
    classical_gaussian_epsilon,
    emit_report,
    read_report,
    required_constant_laplace,
    run_experiment,
)


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

    @pytest.mark.parametrize("mutate", [
        lambda summary: [],
        lambda summary: {**summary, "qualified_fractions": 5},
        lambda summary: {**summary, "privacy": None},
        lambda summary: {**summary, "privacy": {"eps_simple": 0.1}},
        lambda summary: {**summary, "privacy": [{"accounting": "paper-simple"}]},
        lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "alpha": 1.0}]},
    ], ids=["list", "qualified_fractions_int", "privacy_null", "privacy_object",
            "privacy_record_missing_key", "privacy_record_extra_key"])
    def test_summary_of_wrong_shape_is_one_line_error_naming_the_file(self, tmp_path, mutate):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        paths["summary"].write_text(json.dumps(mutate(summary)))
        with pytest.raises(ValueError, match=r"summary\.json: expected an object") as info:
            read_report(tmp_path / "r")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("mutate,message", [
        (lambda summary: {**summary, "clean_accuracy_pct": "x"},
         "clean_accuracy_pct must be a finite number or null, got 'x'"),
        (lambda summary: {**summary, "agreement_pct": True},
         "agreement_pct must be a finite number or null, got True"),
        (lambda summary: {**summary, "qualified_fractions": [{"n": 1, "fraction": None}]},
         "qualified fraction must be a finite number, got None"),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "eps": "abc"}]},
         "privacy eps must be a number or null, got 'abc'"),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "eps": math.nan}]},
         "privacy eps must be a number or null, got nan"),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "delta": None}]},
         "privacy delta must be a number, got None"),
        (lambda summary: {**summary, "privacy": [{**summary["privacy"][0], "accounting": 3}]},
         "privacy accounting must be a string, got 3"),
        (lambda summary: {**summary, "seed": "x"}, "config field seed must be an integer, got 'x'"),
    ], ids=["accuracy_string", "accuracy_bool", "fraction_null", "eps_string", "eps_nan",
          "delta_null", "accounting_int", "seed_string"])
    def test_summary_value_of_wrong_type_is_one_line_error_naming_the_file(
            self, tmp_path, mutate, message):
        paths = emit_report(run_experiment(small_config(queries=3)), tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        paths["summary"].write_text(json.dumps(mutate(summary)))
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "r")
        assert str(info.value) == f"{paths['summary']}: {message}"

    def test_qualified_table_has_one_row_per_grid_entry(self, tmp_path):
        report = run_experiment(small_config(queries=30))
        paths = emit_report(report, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        assert [row["n"] for row in summary["qualified_fractions"]] == [1, 2, 3, 5, 10, 25, 50, 100]

    def test_runtime_not_in_emitted_files(self, tmp_path):
        report = run_experiment(small_config(queries=10))
        paths = emit_report(report, tmp_path / "r")
        assert "runtime" not in paths["summary"].read_text()
