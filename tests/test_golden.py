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
    "lnmax-gamma": ("ca1914cb695ba81f15e3ef05654ef5c0df7f668606377543ef53b15153b88637",
                    "42559c8d945bb94857bdbe8c79919ca56998f99d46b5592da57a261b784daa31",
                    "955318fb42ac38bea50b41c397a57cf84c82948dd37f3fcc23bf00fbdcc9994e"),
    "lnmax-scale": ("f8a729873f3c03b0aab9910630830dfd0ce31229e88dbcb0c4fa82d04903089d",
                    "321894c615c68499b207cdbe7960a97a977e841e49f59728c8cc2b8a10be7fe8",
                    "ac7543ba9de222dcb41c766d8374a611e8eb8079a3927038634ed397b443e985"),
    "nzc-laplace-gamma": ("cdc8ed937a715b838ea7de2104bb41471ba41d31b90f5b2ea91e7b9affe6af4c",
                          "2dc4c43390fbaf0f17b35430307b3af134808dbfbdaea01c29d79575c8cb6e16",
                          "4a437584502d35999253fa53a16aec0ea7e42af47f1aa62e192c0408d9998344"),
    "nzc-laplace-scale": ("b3e02a40c4ee7b2a370e718e8c7bb8a52ae695f3681b8371c7de9dac8a4fb406",
                          "4dedaec85618fbff592735c5cb1c751f8d2f3ad460851e3801275b9172a51312",
                          "98bc26656c792f46c51c5cc1d906208b1db529d949bc1e51b5ed12beb12894bf"),
    "nzc-gaussian-sigma": ("35283087ee41ef872916c0958b9f341e0ef2ae1aec9c5dfc3fb68696725549aa",
                           "fc59f9647c892c07044bde04756fdbf23a710a61a9cb5db6e6ab23a2d40965f1",
                           "c097944d722547be590c1d7fce5d94ab007df9aa4f2931b005ee6739b25411a6"),
    "nzc-gaussian-std": ("ad680be01c097bbe9d92441c8329f0cc5e51fdad17bbd8b23dfd18df1ba485ed",
                         "5699d569aef235a5f3c4935db25a229133b22c10164463a768822ba87cca5a63",
                         "62f15bbe84f6a55c2ce4b4f1c60bb82ffc5dda49bfbd6a2047403de011c2404d"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(tmp_path, name):
    config = ExperimentConfig(seed=11, queries=50, teachers=10, **RUNS[name])
    paths = emit_report(run_experiment(config), tmp_path)
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                    for key in ("summary", "queries", "ledger"))
    assert digests == GOLDEN[name]
