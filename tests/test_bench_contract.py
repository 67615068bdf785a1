"""The benchmark's traced run still measures every layer of the library.

``bench/spans.py`` wraps library functions by name and reads their argument
and result shapes.  A rename or a changed call shape does not fail the
benchmark; it turns the affected per-layer metrics into null.  This test runs
each workload once, traced, and requires a complete, finite result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("boosted-synth", "baseline-replay", "oracle-mc")
# Counts of traced operation 1 on boosted-synth at seed 1 (1000 queries).  A
# function that still exists but is no longer called through its traced name
# reads 0 here instead of null.  A change of stream layout or sensitivity scan
# that is meant to move these counts updates them in the same commit.
BOOSTED_SYNTH_COUNTS = {
    "noise.sample_calls": 1000,
    "noise.generators_made": 3000,
    "sensitivity.smooth_calls": 1000,
    "sensitivity.neighbor_rows": 90613,
}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_metric(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert not [line for line in lines if line.startswith(("unmeasured", "uncounted"))]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["failed"] == 0
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)}
    assert not bad
    if workload == "boosted-synth":
        counts = {name: result["metrics"][name]["value"] for name in BOOSTED_SYNTH_COUNTS}
        assert counts == BOOSTED_SYNTH_COUNTS
