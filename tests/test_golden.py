"""Golden report bytes: small runs whose emitted files are pinned by sha256.

Each mechanism runs once with its privacy parameter (gamma or sigma) and once
with a raw noise scale (``scale``, which nzc-gaussian takes as its std), 50
queries over 10 synthetic teachers.  Two more runs replay a seeded prediction
CSV and truth CSV.  The noise is large enough that labels differ from the
plurality, so a change in calibration or noise draws moves a hash.  A change
that is meant to move report bytes re-blesses these tables in the same commit
and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from dpvote import ExperimentConfig, PrivacyLedger, emit_report, read_report, run_experiment
from dpvote.cli import main

RUNS = {
    "lnmax-gamma": dict(mechanism="lnmax", gamma=0.2),
    "lnmax-scale": dict(mechanism="lnmax", scale=8.0),
    "nzc-laplace-gamma": dict(mechanism="nzc-laplace", boost_constant=10.0, gamma=0.2),
    "nzc-laplace-scale": dict(mechanism="nzc-laplace", boost_constant=10.0, scale=8.0),
    "nzc-gaussian-sigma": dict(mechanism="nzc-gaussian", boost_constant=10.0, sigma=5.0),
    "nzc-gaussian-std": dict(mechanism="nzc-gaussian", boost_constant=10.0, scale=8.0),
}

# sha256 of (summary.json, queries.csv, ledger.csv)
GOLDEN = {
    "lnmax-gamma": ("992bc142e07fcad0dbbae0cc5592084d91f6b34783cfabd768b5147c66df9a3b",
                    "9e459ee52dcab7b4ea5e534b80d91cc54947c918a135e74dc97249a8d266152d",
                    "eb647b81684df1b11a56c1ccd605af64e42b9a884d5a481bc5b0f11dc4bc33b2"),
    "lnmax-scale": ("62873d97e3dfa73b8984e64df454bf353d07eb17fa97e3a01bfc0cd901e2ec3d",
                    "18e0fb06f8e10552466c58c084a7b7e4edabb70baf36ecba61fbef292a2169b1",
                    "3e73c10b3680069e74e5bf01c8269f7a8c269b20206c507c2f0532bcd9452d0e"),
    "nzc-laplace-gamma": ("81f20a43a7224e93f02829bec120e0f358e4dbdbf8271ea49d8d34005b2c5302",
                          "ea8b1f115a6a92df0f1e61b6fba2255ba09e726a41cb7b80c9bc9177f948ac60",
                          "96530dd19d9d9e0efdbced76c85d9ce62233b9ead5de4b11ec3d750f423f6590"),
    "nzc-laplace-scale": ("f48ded5686951700529ca645417dca0ee154ba49e5c1f2bace945e4cf32fdfa4",
                          "4040d9d1cc223d7b5d504dfa912c22a8fa2525ccccf7dcb184f67645db1f5d24",
                          "c875d7861a7cba750a09cdf8ca9b3101b225c7c17e333a95fe4bcdd176b66789"),
    "nzc-gaussian-sigma": ("7871bc380cb4713a4fc9670a072466f2478eb2a7674d3775822ad7f2c09a34c9",
                           "0c9f0aee84d1042e9574de4429b81c2d54384e0c24201b8e88dc728013b2ee12",
                           "86e103214238258bf3752f17f3f77b392d15ed78ee3d169f9fbf688d4f887b0f"),
    "nzc-gaussian-std": ("d82675fac0a9624bb997918148f27a879792c358fede05ccedf61184b5e7836e",
                         "5c1615f8067c62ae157d55dc12c7778c937b8be94aad07de858025ae4cf4e59c",
                         "b1b685bea2c859210968040eeec8b8cf1cb2310127dae66d26e5809f3fb39a5d"),
}


def assert_round_trip(paths, again_dir):
    """read_report of the emitted report, emitted again, gives the same bytes."""
    again = emit_report(read_report(paths["summary"].parent), again_dir)
    for key in ("summary", "queries", "ledger"):
        assert again[key].read_bytes() == paths[key].read_bytes(), key


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(tmp_path, name):
    config = ExperimentConfig(seed=11, queries=50, teachers=10, **RUNS[name])
    paths = emit_report(run_experiment(config), tmp_path)
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                    for key in ("summary", "queries", "ledger"))
    assert digests == GOLDEN[name]
    assert_round_trip(paths, tmp_path / "again")


def write_replay_files(seed, queries=200, teachers=25, classes=100, accuracy=0.5):
    """preds.csv and truth.csv in the working directory: shuffled rows, one blank line each."""
    gen = np.random.default_rng(seed)
    truth = gen.integers(classes, size=queries)
    wrong = gen.integers(classes - 1, size=(queries, teachers))
    wrong += wrong >= truth[:, None]
    labels = np.where(gen.random((queries, teachers)) < accuracy, truth[:, None], wrong)
    for name, header, rows in (
            ("preds.csv", "query_id,teacher_id,label",
             [f"{q},{t},{labels[q, t]}" for q in range(queries) for t in range(teachers)]),
            ("truth.csv", "query_id,label", [f"{q},{truth[q]}" for q in range(queries)])):
        rows = [rows[i] for i in gen.permutation(len(rows))]
        rows.insert(int(gen.integers(len(rows))), "")
        with open(name, "w", encoding="utf-8") as f:
            f.write("\n".join([header] + rows) + "\n")


REPLAY_RUNS = {
    "replay-lnmax": dict(mechanism="lnmax", gamma=0.2),
    "replay-nzc-laplace": dict(mechanism="nzc-laplace", boost_constant=10.0, gamma=0.2),
}

# sha256 of (summary.json, queries.csv, ledger.csv)
REPLAY_GOLDEN = {
    "replay-lnmax": ("b72ee1aee32d52a7292430f550976eea59f8a77f77f8a32e6fdee49d4dd71c95",
                     "eb62ef25616097ee84b19ff92785a9d0970b380e610e23fd197cd84d9aa9ffb7",
                     "3ce426011ef29d9f91a0cf968569820ff17370432859e54cd63328a57be16e78"),
    "replay-nzc-laplace": ("72e00e2b79564491214cf998f942e8d156ced630256d56564e8742112876c368",
                           "1afcb1c8ff5c918431adb00cdc88a616e8ec46d5c04c10bb7c3aa3d1535b83b1",
                           "61b2f791918b53ff1fc026acf9cc70dcc9421f1f2520b52415c2ec82c163f778"),
}


@pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
def test_replay_report_bytes_match_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # summary.json names the CSVs by their relative paths
    write_replay_files(seed=17)
    config = ExperimentConfig(seed=11, num_classes=100, predictions="preds.csv",
                              truth="truth.csv", **REPLAY_RUNS[name])
    paths = emit_report(run_experiment(config), "out")
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                    for key in ("summary", "queries", "ledger"))
    assert digests == REPLAY_GOLDEN[name]
    assert_round_trip(paths, "again")


# `dpvote account --ledger ledger.csv --delta 1e-5 --eps 1` on two of the runs above
ACCOUNT_OUTPUT = {
    "nzc-laplace-scale":
        "queries recorded: 50\n"
        "privacy: paper-moments eps=3.33639 delta=1e-05 (moments accountant: "
        "2*gamma^2*l*(l+1) per query at orders 1..32, tail bound (paper; Abadi et al. 2016))\n"
        "privacy: paper-simple eps=4.59849 delta=0 (pure eps: 2*gamma per query, summed (paper))\n"
        "privacy: paper-advanced eps=3.54352 delta=1e-05 (advanced composition: 4*T*gamma^2 + "
        "2*gamma*sqrt(2*T*ln(1/delta)) at the largest gamma (paper; Dwork, Rothblum & Vadhan "
        "2010))\n"
        "delta_at_eps(1): 0.481316\n",
    "nzc-gaussian-std":
        "queries recorded: 50\n"
        "privacy: classical-gaussian eps=12.8627 delta=1e-05 (classical Gaussian: "
        "sqrt(2*ln(1.25*T/delta))/sigma per query at the smallest sigma, summed; inapplicable "
        "unless each is < 1 (Dwork & Roth 2014, Thm A.1))\n",
}


def _privacy_lines(text):
    return [line for line in text.splitlines() if line.startswith("privacy:")]


@pytest.mark.parametrize("name", sorted(ACCOUNT_OUTPUT))
def test_ledger_columns_reproduce_the_privacy_figures(tmp_path, capsys, name):
    """The ledger stores only gamma|sigma and sensitivity; every figure is derived on load.

    ``PrivacyLedger.figures`` is the one place that decides a run's figures:
    the report, ``dpvote run`` and ``dpvote account`` all show its records.
    """
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(seed=11, queries=50, teachers=10, **RUNS[name])))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r")]) == 0
    run_lines = _privacy_lines(capsys.readouterr().out)
    emitted = read_report(tmp_path / "r").privacy
    loaded = PrivacyLedger.load(tmp_path / "r" / "ledger.csv").figures(1e-5)
    assert [(f.accounting, f.definition, f.delta) for f in loaded] == [
        (f.accounting, f.definition, f.delta) for f in emitted]
    for got, want in zip(loaded, emitted):
        assert got.eps == want.eps or got.eps == pytest.approx(want.eps, rel=1e-11)
    assert main(["account", "--ledger", str(tmp_path / "r" / "ledger.csv"),
                 "--delta", "1e-5", "--eps", "1"]) == 0
    out = capsys.readouterr().out
    assert _privacy_lines(out) == run_lines
    assert out == ACCOUNT_OUTPUT[name]
