import argparse
import json
from dataclasses import fields

import pytest

from dpvote import (
    ExperimentConfig,
    LedgerEntry,
    PrivacyLedger,
    advanced_composition,
    classical_gaussian_epsilon,
)
from dpvote.cli import _build_parser, main


def run_cli(args):
    return main(args)


class TestRunCommand:
    def test_happy_path_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code = run_cli([
            "run", "--mechanism", "nzc-laplace", "--teachers", "50",
            "--classes", "10", "--queries", "40", "--c", "1e6",
            "--gamma", "0.01", "--seed", "9", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "queries.csv").exists()
        assert (out_dir / "ledger.csv").exists()
        captured = capsys.readouterr()
        assert "accuracy:" in captured.out

    def test_subnormal_delta_gives_finite_figures(self, tmp_path, capsys):
        out_dir = tmp_path / "X"
        assert run_cli(["run", "--mechanism", "nzc-laplace", "--teachers", "5", "--queries",
                        "20", "--c", "10", "--gamma", "0.1", "--seed", "1", "--delta", "1e-320",
                        "--out", str(out_dir)]) == 0
        privacy = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("privacy:")]
        assert len(privacy) == 3 and not any("eps=inf" in line for line in privacy)

        def refuse(constant):
            raise ValueError(f"summary.json holds {constant}, which is not JSON")

        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=refuse)
        assert all(0.0 <= f["eps"] < 1e3 for f in summary["privacy"])

    def test_validation_failure_is_nonzero(self, tmp_path, capsys):
        code = run_cli([
            "run", "--mechanism", "nzc-laplace", "--teachers", "50",
            "--queries", "5", "--seed", "1",  # no gamma or scale
        ])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_unknown_teacher_count_needs_accuracy(self, capsys):
        code = run_cli([
            "run", "--mechanism", "lnmax", "--teachers", "37",
            "--queries", "5", "--gamma", "1.0", "--seed", "1",
        ])
        assert code != 0
        assert "accuracy" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "mechanism": "nzc-laplace", "teachers": 50, "queries": 10,
            "c": 1e6, "gamma": 0.01, "seed": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = run_cli(["run", "--config", str(config_path),
                        "--queries", "20", "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["query_count"] == 20  # flag overrode the file

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mechanism": "lnmax", "nope": 1}), encoding="utf-8")
        code = run_cli(["run", "--config", str(config_path)])
        assert code != 0
        assert "unknown config field" in capsys.readouterr().err


    _BASE = {"mechanism": "lnmax", "teachers": 5, "queries": 3, "gamma": 1.0, "seed": 1}

    @pytest.mark.parametrize("overrides, flags, field", [
        ({"teachers": "5"}, [], "teachers"),
        ({"gamma": "1.0"}, [], "gamma"),
        ({"queries": 2.5}, [], "queries"),
        ({"teachers": True}, [], "teachers"),
        ({"seed": 1.0}, [], "seed"),
        ({"beta": float("nan")}, [], "beta"),
        ({"distance_grid": [1, 2.5]}, [], "distance_grid"),
        ({"mechanism": "nzc-laplace"}, ["--c", "inf"], "boost_constant"),
        ({"gamma": None}, ["--scale", "inf"], "scale"),
        ({}, ["--seed", "-1"], "seed"),
        ({"sigma": 3.0}, [], "sigma"),
        ({"mechanism": "nzc-gaussian", "sigma": 1.0}, [], "gamma"),
        # a noise setting that is not positive, refused although no query would use it
        ({"queries": 0}, ["--gamma", "-1"], "gamma"),
        ({"mechanism": "nzc-gaussian", "gamma": None, "queries": 0}, ["--sigma", "0"], "sigma"),
        ({"gamma": None, "queries": 0}, ["--scale", "-2"], "scale"),
        ({"truth": "missing.csv"}, [], "truth"),  # a synthetic run draws its own truth labels
    ])
    def test_bad_config_value_is_one_line_error(self, tmp_path, capsys, overrides, flags, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**self._BASE, **overrides}), encoding="utf-8")
        code = run_cli(["run", "--config", str(config_path), *flags])
        err = capsys.readouterr().err
        assert code != 0
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err

    def test_teacher_accuracy_on_a_prediction_file_is_one_line_error(self, tmp_path, capsys):
        # a prediction file's teachers have no set accuracy; the run would drop the value
        preds = tmp_path / "p.csv"
        preds.write_text("query_id,teacher_id,label\n0,0,1\n0,1,0\n1,0,1\n1,1,1\n")
        out_dir = tmp_path / "X"
        code = run_cli(["run", "--mechanism", "lnmax", "--predictions", str(preds), "--classes", "2",
                        "--teacher-accuracy", "0.3", "--gamma", "0.5", "--seed", "1",
                        "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: command line: prediction-file runs have no synthetic teachers; "
            "they take no teacher_accuracy\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("mechanism, flag, message", [
        ("lnmax", "--sigma", "lnmax takes no sigma; its noise is set by gamma or scale"),
        ("nzc-gaussian", "--gamma", "nzc-gaussian takes no gamma; its noise is set by sigma or scale"),
    ])
    def test_parameter_of_the_other_noise_kind_is_named(self, capsys, mechanism, flag, message):
        code = run_cli(["run", "--mechanism", mechanism, "--teachers", "5", "--queries", "3",
                        flag, "1", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: command line: {message}\n"

    @pytest.mark.parametrize("mechanism, flags, message", [
        ("nzc-laplace", ["--c", "1e100", "--scale", "1e-300"],
         "scale 1e-300 at sensitivity 3.6787944117144233e+99 gives gamma inf"),
        ("nzc-gaussian", ["--c", "1e100", "--scale", "1e-300"],
         "scale 1e-300 at sensitivity 3.6787944117144233e+99 gives sigma 0.0"),
    ])
    def test_effective_parameter_out_of_range_is_one_line_error(self, tmp_path, capsys,
                                                                mechanism, flags, message):
        # sensitivity / scale overflows to an infinite gamma, and scale / sensitivity
        # underflows to a zero sigma; the ledger can hold neither
        out_dir = tmp_path / "r"
        code = run_cli(["run", "--mechanism", mechanism, "--teachers", "5", "--queries", "3",
                        *flags, "--seed", "1", "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {mechanism}: {message}; it must be finite and positive\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("mechanism, flags, message", [
        ("nzc-laplace", ["--c", "1e308", "--gamma", "0.1"],
         "laplace noise scale must be finite, got sensitivity 3.6787944117144235e+307 / gamma 0.1"),
        ("nzc-gaussian", ["--c", "1e100", "--sigma", "1e300"],
         "gaussian noise scale must be finite, got sensitivity 3.6787944117144233e+99 * sigma 1e+300"),
    ])
    def test_calibrated_scale_that_overflows_is_one_line_error(self, tmp_path, capsys,
                                                              mechanism, flags, message):
        # sensitivity / gamma (or * sigma) is inf: the noise would decide every label
        out_dir = tmp_path / "r"
        code = run_cli(["run", "--mechanism", mechanism, "--teachers", "5", "--queries", "20",
                        *flags, "--seed", "1", "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("mechanism, flags", [
        ("nzc-laplace", ["--gamma", "0.5", "--beta", "1e300", "--c", "10"]),
        ("nzc-gaussian", ["--sigma", "0.5", "--beta", "800"]),
        ("nzc-gaussian", ["--scale", "1", "--beta", "800"]),
    ])
    def test_beta_that_discounts_to_zero_is_one_line_error(self, tmp_path, capsys,
                                                          mechanism, flags):
        # e^-beta is 0.0 above beta ~745, which would leave every sensitivity at 0
        out_dir = tmp_path / "r"
        code = run_cli(["run", "--mechanism", mechanism, "--teachers", "5", "--queries", "3",
                        *flags, "--seed", "1", "--out", str(out_dir)])
        beta = float(flags[flags.index("--beta") + 1])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: beta {beta!r} is too large: e^-beta underflows to 0, "
            "which leaves no sensitivity to scale the noise to\n")
        assert not out_dir.exists()

    def test_teacher_count_beyond_int64_is_one_line_error(self, capsys):
        code = run_cli(["run", "--mechanism", "lnmax", "--seed", "1", "--teachers",
                        "10000000000000000000", "--teacher-accuracy", "0.8", "--queries", "3",
                        "--gamma", "0.1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("teachers must be below 2**63, got 10000000000000000000\n")

    @pytest.mark.parametrize("classes", ["4000000000000000000", "10000000000000000000"])
    def test_class_count_beyond_int64_on_a_prediction_file_is_one_line_error(
            self, tmp_path, capsys, classes):
        preds = tmp_path / "p.csv"
        preds.write_text("query_id,teacher_id,label\n0,0,1\n1,0,2\n2,0,0\n", encoding="utf-8")
        code = run_cli(["run", "--mechanism", "lnmax", "--predictions", str(preds),
                        "--classes", classes, "--gamma", "0.1", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: 3 queries x {classes} classes make a count matrix beyond the int64 range\n")

    @pytest.mark.parametrize("queries, printed", [("0", False), ("3", True)])
    def test_gaussian_inapplicable_line_needs_an_answered_query(self, capsys, queries, printed):
        code = run_cli(["run", "--mechanism", "nzc-gaussian", "--teachers", "5",
                        "--queries", queries, "--sigma", "1", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert ("privacy: classical-gaussian eps=inapplicable" in out) == printed

    def test_config_file_float_fields_accept_integers_and_grid_list(self, tmp_path):
        config_path = tmp_path / "config.json"
        config = {**self._BASE, "gamma": 1, "distance_grid": [0, 4]}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run_cli(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["gamma"] == 1.0
        assert [row["n"] for row in summary["qualified_fractions"]] == [0, 4]

    def test_every_config_field_but_the_grid_has_a_run_flag(self):
        # the parser is built from ExperimentConfig's fields; this keeps a skipped field in view
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for action in subparsers.choices["run"]._actions}
        missing = {f.name for f in fields(ExperimentConfig)} - {"distance_grid"} - dests
        assert not missing

    # option -> (dest, type, choices, help) of every run option, so a dropped or retyped flag
    # fails; argparse leaves a value as the string given when type is None, so that pins as str
    RUN_OPTIONS = {
        "--config": ("config", str, None, "JSON file with config fields; flags override it"),
        "--mechanism": ("mechanism", str, ("lnmax", "nzc-laplace", "nzc-gaussian"), None),
        "--teachers": ("teachers", int, None, "synthetic ensemble size"),
        "--teacher-accuracy": ("teacher_accuracy", float, None, None),
        "--classes": ("num_classes", int, None, None),
        "--queries": ("queries", int, None, None),
        "--c": ("boost_constant", float, None, "boost constant added to the top bin"),
        "--gamma": ("gamma", float, None, "Laplace inverse-scale privacy parameter"),
        "--sigma": ("sigma", float, None, "Gaussian std multiplier"),
        "--scale": ("scale", float, None, "raw noise scale (alternative to gamma/sigma)"),
        "--beta": ("beta", float, None, None),
        "--delta": ("delta", float, None, None),
        "--seed": ("seed", int, None, None),
        "--predictions": ("predictions", str, None, "CSV of query_id,teacher_id,label"),
        "--truth": ("truth", str, None, "CSV of query_id,label"),
        "--out": ("out_dir", str, None, "report directory"),
    }

    def test_run_options_are_pinned(self):
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {option: (action.dest, action.type or str, action.choices, action.help)
                   for action in subparsers.choices["run"]._actions if action.dest != "help"
                   for option in action.option_strings}
        assert options == self.RUN_OPTIONS

    # each value differs from the base's and the default, so a flag that is not applied shows
    SYNTHETIC = {"mechanism": "nzc-laplace", "teachers": 5, "queries": 6, "seed": 1}

    @pytest.mark.parametrize("base, key, flag, value", [
        ({**SYNTHETIC, "gamma": 0.5}, "mechanism", "--mechanism", "lnmax"),
        ({**SYNTHETIC, "gamma": 0.5}, "seed", "--seed", 4),
        ({**SYNTHETIC, "gamma": 0.5}, "num_classes", "--classes", 3),
        ({**SYNTHETIC, "gamma": 0.5}, "classes", "--classes", 3),
        ({**SYNTHETIC, "gamma": 0.5}, "queries", "--queries", 9),
        ({**SYNTHETIC, "gamma": 0.5}, "teachers", "--teachers", 250),
        ({**SYNTHETIC, "gamma": 0.5}, "teacher_accuracy", "--teacher-accuracy", 0.75),
        ({"mechanism": "lnmax", "num_classes": 3, "gamma": 0.5, "seed": 1},
         "predictions", "--predictions", "../preds.csv"),
        ({"mechanism": "lnmax", "num_classes": 3, "gamma": 0.5, "seed": 1,
          "predictions": "../preds.csv"}, "truth", "--truth", "../truth.csv"),
        ({**SYNTHETIC, "gamma": 0.5}, "boost_constant", "--c", 10.0),
        ({**SYNTHETIC, "gamma": 0.5}, "c", "--c", 10.0),
        ({**SYNTHETIC, "gamma": 0.5}, "gamma", "--gamma", 0.25),
        ({**SYNTHETIC, "mechanism": "nzc-gaussian"}, "sigma", "--sigma", 2.0),
        (SYNTHETIC, "scale", "--scale", 3.0),
        ({**SYNTHETIC, "gamma": 0.5}, "beta", "--beta", 0.5),
        ({**SYNTHETIC, "gamma": 0.5}, "delta", "--delta", 0.001),
        ({**SYNTHETIC, "gamma": 0.5}, "out_dir", "--out", "report"),
        ({**SYNTHETIC, "gamma": 0.5}, "out", "--out", "report"),
    ])
    def test_flag_and_config_key_give_the_same_summary(self, tmp_path, monkeypatch,
                                                       base, key, flag, value):
        (tmp_path / "preds.csv").write_text("query_id,teacher_id,label\n" + "\n".join(
            f"{q},{t},{(q + t) % 3}" for q in range(4) for t in range(3)) + "\n")
        (tmp_path / "truth.csv").write_text("query_id,label\n0,0\n1,1\n2,2\n3,0\n")
        out = [] if key in ("out", "out_dir") else ["--out", "report"]

        def summary(cwd, config, flags):  # each run in its own directory, paths relative to it
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            (cwd / "run.json").write_text(json.dumps(config))
            assert run_cli(["run", "--config", "run.json", *flags, *out]) == 0
            return (cwd / "report" / "summary.json").read_bytes()

        assert (summary(tmp_path / "key", {**base, key: value}, [])
                == summary(tmp_path / "flag", base, [flag, str(value)]))


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code = run_cli(["verify", "--seed", "7", "--instances", "300", "--trials", "50000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sensitivity brute-force" in out
        assert "dp ratio" in out
        assert out.count("PASS") >= 5

    def test_zero_instances_is_one_line_error(self, capsys):
        code = run_cli(["verify", "--instances", "0", "--trials", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --instances must be at least 1, got 0\n"

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--trials", "-5"], "--trials must be at least 1, got -5"),
        (["--seed", "-1"], "--seed must be non-negative, got -1"),
    ])
    def test_bad_trials_or_seed_is_one_line_error_before_any_suite(self, capsys, flags, message):
        code = run_cli(["verify", "--instances", "5", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestAccountCommand:
    def test_converts_exported_ledger(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert run_cli([
            "run", "--mechanism", "lnmax", "--teachers", "50",
            "--queries", "25", "--gamma", "0.05", "--seed", "4",
            "--out", str(out_dir),
        ]) == 0
        capsys.readouterr()
        code = run_cli(["account", "--ledger", str(out_dir / "ledger.csv"),
                        "--delta", "1e-5", "--eps", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "queries recorded: 25" in out
        assert "privacy: paper-simple eps=2.5 delta=0 (" in out
        assert "delta_at_eps" in out

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_one_line_error(self, tmp_path, capsys, eps):
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--mechanism", "lnmax", "--teachers", "5", "--queries", "3",
                        "--gamma", "0.5", "--seed", "4", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        code = run_cli(["account", "--ledger", str(out_dir / "ledger.csv"), "--eps", eps])
        captured = capsys.readouterr()
        assert code == 1
        assert "delta_at_eps" not in captured.out
        assert captured.err == f"error: eps must be a finite non-negative number, got {float(eps)!r}\n"

    def test_composed_sum_that_overflows_prints_inf(self, tmp_path, capsys):
        # 1000 moment terms of 1e306 each overflow the float range at order 1
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--mechanism", "lnmax", "--teachers", "5", "--queries", "1000",
                        "--gamma", "5e152", "--seed", "1", "--out", str(out_dir)]) == 0
        run_lines = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("privacy: ")]
        assert [line.split(" (")[0] for line in run_lines] == [
            "privacy: paper-moments eps=inf delta=1e-05",
            "privacy: paper-simple eps=1e+156 delta=0",
            "privacy: paper-advanced eps=inf delta=1e-05"]
        assert run_cli(["account", "--ledger", str(out_dir / "ledger.csv"), "--eps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["queries recorded: 1000", *run_lines, "delta_at_eps(1): 1"]

    def test_missing_ledger_is_error(self, tmp_path, capsys):
        code = run_cli(["account", "--ledger", str(tmp_path / "nope.csv")])
        assert code != 0

    @pytest.mark.parametrize("line, cell, value, expected", [
        (2, 2, "abc", "ledger.csv:2: gamma must be a finite number, got 'abc'"),
        (3, 2, "inf", "ledger.csv:3: gamma must be a finite number, got 'inf'"),
        (2, 2, " 0.5", "ledger.csv:2: gamma must be a finite number, got ' 0.5'"),
        (1, 4, "sensitivity,epsilon,alpha_1",
         "ledger.csv:1: expected the header 'index,mechanism,gamma,sigma,sensitivity'"),
        (2, 1, "magic", "ledger.csv:2: unknown mechanism 'magic'"),
        (2, 1, "nzc-gaussian", "ledger.csv:2: a nzc-gaussian entry carries sigma and no gamma"),
        (3, 0, "x", "ledger.csv:3: index must be 1, got 'x'"),
    ])
    def test_bad_ledger_cell_is_one_line_error(self, tmp_path, capsys, line, cell, value, expected):
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--mechanism", "lnmax", "--teachers", "5", "--queries", "3",
                        "--gamma", "0.5", "--seed", "4", "--out", str(out_dir)]) == 0
        ledger = out_dir / "ledger.csv"
        lines = ledger.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[cell] = value
        lines[line - 1] = ",".join(cells)
        ledger.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["account", "--ledger", str(ledger)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert expected in err

    @pytest.fixture
    def gaussian_ledger(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--mechanism", "nzc-gaussian", "--teachers", "5", "--queries",
                        "1", "--sigma", "1e6", "--seed", "4", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        return out_dir / "ledger.csv"

    @pytest.mark.parametrize("flags, expected", [
        (["--eps", "nan", "--delta", "2"], "delta must lie in (0, 1), got 2.0"),
        (["--delta", "0"], "delta must lie in (0, 1), got 0.0"),
        (["--eps", "nan"], "eps must be a finite non-negative number, got nan"),
        (["--eps", "-1"], "eps must be a finite non-negative number, got -1.0"),
    ])
    def test_flags_are_checked_on_a_gaussian_ledger(self, gaussian_ledger, capsys, flags,
                                                     expected):
        code = run_cli(["account", "--ledger", str(gaussian_ledger), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {expected}\n"

    def test_delta_is_checked_on_an_empty_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text("index,mechanism,gamma,sigma,sensitivity\n")
        assert run_cli(["account", "--ledger", str(ledger)]) == 0
        assert capsys.readouterr().out == "queries recorded: 0\n"
        code = run_cli(["account", "--ledger", str(ledger), "--delta", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: delta must lie in (0, 1), got 5.0\n"

    def test_mixed_kind_ledger_gets_every_figure(self, tmp_path, capsys):
        # a run never writes both noise kinds into one ledger, but account accepts the file
        ledger = tmp_path / "ledger.csv"
        ledger.write_text("index,mechanism,gamma,sigma,sensitivity\n"
                          "0,lnmax,0.5,,1\n1,nzc-gaussian,,1000000,0.5\n2,nzc-laplace,0.25,,0.5\n")
        code = run_cli(["account", "--ledger", str(ledger), "--delta", "1e-4", "--eps", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        figures = PrivacyLedger.load(ledger).figures(1e-4)
        laplace = PrivacyLedger()  # the Laplace rows alone
        laplace.record(LedgerEntry("lnmax", sensitivity=1.0, gamma=0.5),
                       LedgerEntry("lnmax", sensitivity=1.0, gamma=0.25))
        assert [f.accounting for f in figures] == [
            "paper-moments", "paper-simple", "paper-advanced", "classical-gaussian"]
        assert [f.eps for f in figures] == [
            laplace.eps_for_delta(1e-4),
            1.5, advanced_composition(2, 0.5, 1e-4),
            classical_gaussian_epsilon(1e6, 1e-4)]  # one Gaussian entry: delta is not split
        assert lines[0] == "queries recorded: 3"
        assert lines[1:5] == [
            f"privacy: {f.accounting} eps={f.eps:.6g} delta={f.delta:g} ({f.definition})"
            for f in figures]
        assert lines[5].startswith("delta_at_eps(1): ")


def test_argparse_rejects_unknown_mechanism():
    with pytest.raises(SystemExit):
        main(["run", "--mechanism", "magic", "--seed", "1"])
