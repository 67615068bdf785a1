import json

import pytest

from dpvote import (MomentCurve, PrivacyLedger, advanced_composition, classical_gaussian_epsilon,
                    eps_for_delta)
from dpvote.cli import main


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
    ])
    def test_bad_config_value_is_one_line_error(self, tmp_path, capsys, overrides, flags, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**self._BASE, **overrides}), encoding="utf-8")
        code = run_cli(["run", "--config", str(config_path), *flags])
        err = capsys.readouterr().err
        assert code != 0
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("mechanism, flags, message", [
        ("nzc-laplace", ["--c", "1e100", "--scale", "1e-300"],
         "scale 1e-300 at sensitivity 3.6787944117144233e+99 gives gamma inf"),
        ("nzc-gaussian", ["--c", "1e100", "--scale", "1e-300"],
         "std 1e-300 at sensitivity 3.6787944117144233e+99 gives sigma 0.0"),
        ("nzc-gaussian", ["--beta", "800", "--scale", "1"],
         "std 1.0 at sensitivity 0.0 gives sigma inf"),
    ])
    def test_effective_parameter_out_of_range_is_one_line_error(self, tmp_path, capsys,
                                                                mechanism, flags, message):
        # sensitivity / scale overflows to an infinite gamma, scale / sensitivity underflows
        # to a zero sigma, and exp(-beta) underflows to a zero sensitivity, so the scale is
        # divided by zero; the ledger can hold none of them
        out_dir = tmp_path / "r"
        code = run_cli(["run", "--mechanism", mechanism, "--teachers", "5", "--queries", "3",
                        *flags, "--seed", "1", "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {mechanism}: {message}; it must be finite and positive\n")
        assert not out_dir.exists()

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

    def test_missing_ledger_is_error(self, tmp_path, capsys):
        code = run_cli(["account", "--ledger", str(tmp_path / "nope.csv")])
        assert code != 0

    @pytest.mark.parametrize("line, cell, value, expected", [
        (2, 2, "abc", "ledger.csv:2: gamma must be a finite number, got 'abc'"),
        (3, 2, "inf", "ledger.csv:3: gamma must be a finite number, got 'inf'"),
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
        assert [f.accounting for f in figures] == [
            "paper-moments", "paper-simple", "paper-advanced", "classical-gaussian"]
        assert [f.eps for f in figures] == [
            eps_for_delta(MomentCurve.for_laplace(0.5) + MomentCurve.for_laplace(0.25), 1e-4),
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
