"""Golden report bytes: six small runs whose emitted files are pinned by sha256.

Each mechanism runs once with its privacy parameter (gamma or sigma) and once
with a raw noise scale (``scale``, which nzc-gaussian takes as its std), 50
queries over 10 synthetic teachers.  The noise is large enough that labels
differ from the plurality, so a change in calibration or noise draws moves a
hash.  A change that is meant to move report bytes re-blesses this table in
the same commit and says so in CHANGES.md.
"""

import hashlib

import pytest

from dpvote import ExperimentConfig, emit_report, run_experiment

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
                    "955318fb42ac38bea50b41c397a57cf84c82948dd37f3fcc23bf00fbdcc9994e"),
    "lnmax-scale": ("86c7de90efae239ec931c727b9ec17f17eaf28ed8aae7279b4e3baf733edc92c",
                    "18e0fb06f8e10552466c58c084a7b7e4edabb70baf36ecba61fbef292a2169b1",
                    "ac7543ba9de222dcb41c766d8374a611e8eb8079a3927038634ed397b443e985"),
    "nzc-laplace-gamma": ("cdc8ed937a715b838ea7de2104bb41471ba41d31b90f5b2ea91e7b9affe6af4c",
                          "ea8b1f115a6a92df0f1e61b6fba2255ba09e726a41cb7b80c9bc9177f948ac60",
                          "4a437584502d35999253fa53a16aec0ea7e42af47f1aa62e192c0408d9998344"),
    "nzc-laplace-scale": ("6ed454a84dbed7f2e9772c81202d76701b326f9723c5ad40190d2c3fb82dd815",
                          "4040d9d1cc223d7b5d504dfa912c22a8fa2525ccccf7dcb184f67645db1f5d24",
                          "98bc26656c792f46c51c5cc1d906208b1db529d949bc1e51b5ed12beb12894bf"),
    "nzc-gaussian-sigma": ("35283087ee41ef872916c0958b9f341e0ef2ae1aec9c5dfc3fb68696725549aa",
                           "0c9f0aee84d1042e9574de4429b81c2d54384e0c24201b8e88dc728013b2ee12",
                           "c097944d722547be590c1d7fce5d94ab007df9aa4f2931b005ee6739b25411a6"),
    "nzc-gaussian-std": ("f1a538ee23ba9317dbd83581e09d26aceadf1155359f7c26d959c1ae4d1445a0",
                         "5c1615f8067c62ae157d55dc12c7778c937b8be94aad07de858025ae4cf4e59c",
                         "62f15bbe84f6a55c2ce4b4f1c60bb82ffc5dda49bfbd6a2047403de011c2404d"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(tmp_path, name):
    config = ExperimentConfig(seed=11, queries=50, teachers=10, **RUNS[name])
    paths = emit_report(run_experiment(config), tmp_path)
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                    for key in ("summary", "queries", "ledger"))
    assert digests == GOLDEN[name]
