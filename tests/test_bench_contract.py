"""The benchmark still prints a complete result line, traced and untraced.

``bench/spans.py`` wraps library functions by name and reads their argument
and result shapes.  A rename or a changed call shape does not fail the
benchmark; it turns the affected per-layer metrics into null.  The untraced
run prints the end-to-end metrics; a line that goes missing or carries a
non-number is lost for the comparison between commits.  This test runs each
workload once in each mode and requires a complete, finite result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("boosted-synth", "baseline-replay", "oracle-mc")
END_TO_END = ("setup_s", "items_per_s", "op_s_p50", "op_s_tail", "peak_rss_mb")
# Counts of traced operation 1 on boosted-synth at seed 1 (1000 queries, one
# stream block).  A function that still exists but is no longer called through
# its traced name reads 0 here instead of null.  A change of stream layout or
# sensitivity scan that is meant to move these counts updates them in the same
# commit.  The batch core draws one block: one generator each for truths,
# votes and noise, and one noise draw (1000 x 10 values fit in one row chunk
# of 16 384 values); the closed-form sensitivity calls no
# neighbour scan.  The run reads one cell of its 1000-long gap column per
# distance-grid entry (8) and query, so a change that stops calling
# qualified_fraction by its traced name reads 0 here.
BOOSTED_SYNTH_COUNTS = {
    "noise.sample_calls": 1,
    "noise.generators_made": 3,
    "sensitivity.smooth_calls": 0,
    "sensitivity.neighbor_rows": 0,
    "accountant.moment_terms": 32000,
    "ensemble.histogram_scans": 8000,
}
# Counts of traced operation 1 on oracle-mc at seed 1.  It is the one workload
# that calls smooth_sensitivity: once, in dp_ratio_check, on a 3-class input
# with 7 neighbour rows.  Calling it under another name reads 0 here, and a
# result without value and beta leaves the call uncounted.  Each Monte-Carlo
# block is one noise draw of 16 384 values: 62 blocks of 1638 rows for each of
# the three 10-class calls, 19 blocks of 5461 rows for each of the 7 rows of
# dp_ratio_check.
ORACLE_MC_COUNTS = {
    "sensitivity.smooth_calls": 1,
    "sensitivity.neighbor_rows": 7,
    "noise.sample_calls": 3 * 62 + 7 * 19,
    "noise.generators_made": 4,
}
# Counts of traced operation 1 on baseline-replay at seed 1 (lnmax over 1000
# queries read from a prediction CSV).  It makes one generator and draws its
# noise in row chunks of 16 384 values, one draw per chunk: at 100 classes a
# chunk is floor(16384 / 100) = 163 rows, so 1000 queries take
# ceil(1000 / 163) = 7 draws.  It converts its 1000-entry ledger once with
# eps_for_delta (1000 entries x 32 orders) and reads one gap-column cell per
# distance-grid entry (8) and query.  A change that stops calling eps_for_delta
# or qualified_fraction by its traced name reads 0 here.
BASELINE_REPLAY_COUNTS = {
    "noise.sample_calls": 7,
    "noise.generators_made": 1,
    "accountant.moment_terms": 32000,
    "ensemble.histogram_scans": 8000,
}
PINNED_COUNTS = {"boosted-synth": BOOSTED_SYNTH_COUNTS, "baseline-replay": BASELINE_REPLAY_COUNTS,
                 "oracle-mc": ORACLE_MC_COUNTS}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def _run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert not [line for line in lines if line.startswith(("unmeasured", "uncounted"))]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["failed"] == 0
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)}
    assert not bad
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_metric(workload):
    metrics = _run_bench(workload, trace=1)
    pinned = PINNED_COUNTS.get(workload, {})
    assert {name: metrics[name] for name in pinned} == pinned


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _run_bench(workload, trace=0)
    assert sorted(metrics) == sorted(END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics
