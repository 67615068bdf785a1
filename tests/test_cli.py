import json

import pytest

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

    @pytest.mark.parametrize("queries, printed", [("0", False), ("3", True)])
    def test_gaussian_inapplicable_line_needs_an_answered_query(self, capsys, queries, printed):
        code = run_cli(["run", "--mechanism", "nzc-gaussian", "--teachers", "5",
                        "--queries", queries, "--sigma", "1", "--seed", "1"])
        assert code == 0
        assert ("gaussian bound inapplicable" in capsys.readouterr().out) == printed

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
        assert "eps_simple: 2.5" in out
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
         "ledger.csv:1: expected the ledger header 'index,mechanism,gamma,sigma,sensitivity'"),
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


def test_argparse_rejects_unknown_mechanism():
    with pytest.raises(SystemExit):
        main(["run", "--mechanism", "magic", "--seed", "1"])
