"""Golden report bytes: six small runs whose emitted files are pinned by sha256.

Each mechanism runs once with its privacy parameter (gamma or sigma) and once
with a raw noise scale (``scale``, which nzc-gaussian takes as its std), 50
queries over 10 synthetic teachers.  The noise is large enough that labels
differ from the plurality, so a change in calibration or noise draws moves a
hash.  A change that is meant to move report bytes re-blesses this table in
the same commit and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from dpvote import (ExperimentConfig, PrivacyLedger, classical_gaussian_epsilon, emit_report,
                    run_experiment)
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
    "lnmax-gamma": ("1e8423b3289a9011ffdce6280f4d998d00ace696546c331635b2e0f953735ff3",
                    "9e459ee52dcab7b4ea5e534b80d91cc54947c918a135e74dc97249a8d266152d",
                    "eb647b81684df1b11a56c1ccd605af64e42b9a884d5a481bc5b0f11dc4bc33b2"),
    "lnmax-scale": ("86c7de90efae239ec931c727b9ec17f17eaf28ed8aae7279b4e3baf733edc92c",
                    "18e0fb06f8e10552466c58c084a7b7e4edabb70baf36ecba61fbef292a2169b1",
                    "3e73c10b3680069e74e5bf01c8269f7a8c269b20206c507c2f0532bcd9452d0e"),
    "nzc-laplace-gamma": ("cdc8ed937a715b838ea7de2104bb41471ba41d31b90f5b2ea91e7b9affe6af4c",
                          "ea8b1f115a6a92df0f1e61b6fba2255ba09e726a41cb7b80c9bc9177f948ac60",
                          "96530dd19d9d9e0efdbced76c85d9ce62233b9ead5de4b11ec3d750f423f6590"),
    "nzc-laplace-scale": ("6ed454a84dbed7f2e9772c81202d76701b326f9723c5ad40190d2c3fb82dd815",
                          "4040d9d1cc223d7b5d504dfa912c22a8fa2525ccccf7dcb184f67645db1f5d24",
                          "c875d7861a7cba750a09cdf8ca9b3101b225c7c17e333a95fe4bcdd176b66789"),
    "nzc-gaussian-sigma": ("35283087ee41ef872916c0958b9f341e0ef2ae1aec9c5dfc3fb68696725549aa",
                           "0c9f0aee84d1042e9574de4429b81c2d54384e0c24201b8e88dc728013b2ee12",
                           "86e103214238258bf3752f17f3f77b392d15ed78ee3d169f9fbf688d4f887b0f"),
    "nzc-gaussian-std": ("f1a538ee23ba9317dbd83581e09d26aceadf1155359f7c26d959c1ae4d1445a0",
                         "5c1615f8067c62ae157d55dc12c7778c937b8be94aad07de858025ae4cf4e59c",
                         "b1b685bea2c859210968040eeec8b8cf1cb2310127dae66d26e5809f3fb39a5d"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(tmp_path, name):
    config = ExperimentConfig(seed=11, queries=50, teachers=10, **RUNS[name])
    paths = emit_report(run_experiment(config), tmp_path)
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                    for key in ("summary", "queries", "ledger"))
    assert digests == GOLDEN[name]


# `dpvote account --ledger ledger.csv --delta 1e-5 --eps 1` on two of the runs above
ACCOUNT_OUTPUT = {
    "nzc-laplace-scale": "queries recorded: 50\neps_simple: 4.59849\n"
                         "eps_moments(delta=1e-05): 3.33639\ndelta_at_eps(1): 0.481316\n",
    "nzc-gaussian-std": "queries recorded: 50\ngaussian entries: 50 (convert per-query with "
                        "dpvote.classical_gaussian_epsilon(sigma, delta))\n",
}


@pytest.mark.parametrize("name", sorted(ACCOUNT_OUTPUT))
def test_ledger_columns_reproduce_the_privacy_figures(tmp_path, capsys, name):
    """The ledger stores only gamma|sigma and sensitivity; every figure is derived on load."""
    config = ExperimentConfig(seed=11, queries=50, teachers=10, **RUNS[name])
    paths = emit_report(run_experiment(config), tmp_path)
    privacy = json.loads(paths["summary"].read_text(encoding="utf-8"))["privacy"]
    ledger = PrivacyLedger.load(paths["ledger"])
    if privacy["eps_simple"] is not None:
        assert ledger.simple_epsilon() == pytest.approx(privacy["eps_simple"], rel=1e-11)
        assert ledger.eps_for_delta(config.delta) == pytest.approx(privacy["eps_moments"], rel=1e-11)
    else:
        worst_sigma = min(e.sigma for e in ledger.entries)
        per_query = classical_gaussian_epsilon(worst_sigma, config.delta / ledger.query_count)
        assert per_query == pytest.approx(privacy["gaussian_epsilon_per_query"], rel=1e-11)
    assert main(["account", "--ledger", str(paths["ledger"]), "--delta", "1e-5", "--eps", "1"]) == 0
    assert capsys.readouterr().out == ACCOUNT_OUTPUT[name]
