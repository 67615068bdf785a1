"""Golden report bytes: small runs whose emitted files are pinned by sha256.

Each mechanism runs once with its privacy parameter (gamma or sigma) and once
with a raw noise scale (``scale``: the Laplace scale or the Gaussian std), 50
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
                          "656197a7b9f95a4fcf43b9497b882db3479adeea467f3b298b4a62e36bd71dc0",
                          "97d6539533e86aa995a487ec961f283a850725b70dc7cb681c9c61db3b9e8b63"),
    "nzc-laplace-scale": ("f48ded5686951700529ca645417dca0ee154ba49e5c1f2bace945e4cf32fdfa4",
                          "98aa6a2913c8cb8f6d91e0954da02dfe1d554fbfc7674ccc02a47a315a78db54",
                          "f3a4d25b5023aef18f8dfb3323ea1b198bb7a8e82927d5cdafb6dd1e5f7d2fb3"),
    "nzc-gaussian-sigma": ("7871bc380cb4713a4fc9670a072466f2478eb2a7674d3775822ad7f2c09a34c9",
                           "ad2f5017dbc082a8563cf38264db45ec5240c84e029546f473b0b445cf2454bc",
                           "258d0c673effab8b11a27913c5c0d0da30e87dae6b68926bb9f164dd0176facc"),
    "nzc-gaussian-std": ("d82675fac0a9624bb997918148f27a879792c358fede05ccedf61184b5e7836e",
                         "4d9b2ba7192fe64b75ca4f155433117b881dd01b2d00f5b528e80d72e02d8fd3",
                         "e26b0be4d75d5a6300909038c3c07f2979b438d970e4f51baa1908d2f84a9886"),
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


# nzc-laplace at gamma over two blocks of 1100 queries: at 250 teachers every block has one
# sensitivity, so its noise is drawn at a scalar scale; at 5 teachers each block mixes both
BLOCK_RUNS = {
    "nzc-laplace-gamma-250": (
        250, ("85402812cc192fec684b9c540168214195c11046a245c235ebf9d00b21952bba",
              "f4287276139e3b8beab326e93585ff8900bac3f40d794819d4ebb20f9f90ed53",
              "90acdfada4d3edf5c58b9590d23ae86c44d19e903bd2cdd3d090e514df81ea88")),
    "nzc-laplace-gamma-5": (
        5, ("49c77c941f9b2d63dcbf484a354fb8197659c0471584bf68edeada2f7ce3b15e",
            "8e1d1ad627ade7487f57335abde410df7c3f3643a95c56a70a02f0273b9ae021",
            "820954490900b319fabd9167e3570c1c1bb2d589acb498834d711f3b725e8ab5")),
}


@pytest.mark.parametrize("name", sorted(BLOCK_RUNS))
def test_blocks_of_one_or_two_sensitivities_match_golden(tmp_path, name):
    teachers, golden = BLOCK_RUNS[name]
    config = ExperimentConfig(mechanism="nzc-laplace", seed=11, queries=1100, teachers=teachers,
                              boost_constant=10.0, gamma=0.2)
    report = run_experiment(config)
    sens = np.array(report.columns[5])
    distinct = [len(np.unique(sens[start:start + 1024])) for start in (0, 1024)]
    assert distinct == ([1, 1] if teachers == 250 else [2, 2])
    paths = emit_report(report, tmp_path)
    assert tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                 for key in ("summary", "queries", "ledger")) == golden

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
                           "229bee001d3ebf7e4adbc367a03bb32ad14c2cb441193fbb718b556da87cf5f5",
                           "fb90c89dc05285812eadbc8561ca08539dcf6d2790fa55f10173663d88a45ea4"),
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
    # ledger.csv keeps each float exactly, so the loaded ledger gives the run's own figures
    ran = run_experiment(ExperimentConfig(seed=11, queries=50, teachers=10, **RUNS[name]))
    assert PrivacyLedger.load(tmp_path / "r" / "ledger.csv").figures(1e-5) == ran.privacy
    assert read_report(tmp_path / "r").privacy == ran.privacy
    assert main(["account", "--ledger", str(tmp_path / "r" / "ledger.csv"),
                 "--delta", "1e-5", "--eps", "1"]) == 0
    out = capsys.readouterr().out
    assert _privacy_lines(out) == run_lines
    assert out == ACCOUNT_OUTPUT[name]
