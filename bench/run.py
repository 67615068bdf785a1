#!/usr/bin/env python3
"""dpvote benchmark: one workload per invocation, as a single-threaded closed loop.

Run from the repository root:

    python3 bench/run.py --workload boosted-synth --seed 1 --seconds 35 --trace 0

One client issues the next operation only after the previous one returned and
its output was checked.  Every operation's inputs derive from ``--seed``.  The
last line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans recorded around each layer's public functions)
with ``--trace 1``.  Lines before it name each operation's seed, its raw time,
the reference-loop times around it (see speed.py) and the hashes of what it
produced.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# the operations are single-threaded; keep any numerical library the same way
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

from spans import LAYERS, ROOT as ROOT_SPAN, SpanStats, Tracer  # noqa: E402
from speed import bracketed, normalize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5  # set-up is repeated and its median reported
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import dpvote; print(time.perf_counter() - t)")


@dataclass
class OpRecord:
    label: str
    seed: int
    raw_seconds: float = 0.0
    refs: tuple = (0.0, 0.0)  # reference-loop seconds just before and after the operation
    problems: list = field(default_factory=list)
    digest: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def timed(self) -> bool:
        """False when the operation raised, so it has no time to report."""
        return self.raw_seconds > 0.0


def op_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation; operation 0 is run twice to test determinism."""
    return int(np.random.SeedSequence([seed % 2**64, k]).generate_state(1)[0])


def run_op(workload, seed: int, label: str, tracer=None, op_id: int = 0) -> OpRecord:
    inputs = workload.prepare(seed)
    gc.collect()
    record = OpRecord(label, seed)
    try:
        if tracer is None:
            record.raw_seconds, record.refs, result = bracketed(
                lambda: workload.run(inputs), workload.reference)
        else:
            def traced_run():
                with tracer.operation(op_id):
                    return workload.run(inputs)
            with tracer.patched():
                record.raw_seconds, record.refs, result = bracketed(traced_run, workload.reference)
        record.problems = workload.check(inputs, result)
        record.digest = workload.digest(inputs, result)
    except Exception as exc:  # an operation that raises is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        record.problems = [f"raised {type(exc).__name__}: {exc}"]
    hashes = " ".join(f"{k}={v}" for k, v in (record.digest or {}).items())
    print(f"op {label} seed={seed} traced={int(tracer is not None)} "
          f"raw_seconds={record.raw_seconds:.6f} refs={record.refs[0]:.6f},{record.refs[1]:.6f} "
          f"ok={int(record.ok)} {hashes}".rstrip())
    for problem in record.problems:
        print(f"  FAIL {problem}")
    return record


def seconds_at_nominal_speed(records, workload) -> list[float]:
    return normalize([(r.raw_seconds, r.refs) for r in records if r.timed], workload.reference)


def repeat_check(first: OpRecord, repeat: OpRecord) -> None:
    if first.digest is None or first.digest != repeat.digest:
        repeat.problems.append("repeated seed produced different output hashes")
        print(f"  FAIL determinism: {first.digest} != {repeat.digest}")


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, seed: int, seconds: float):
    """Untraced closed loop; returns (all records, end-to-end metrics without set-up)."""
    first = run_op(workload, op_seed(seed, 0), "warmup")
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        k = len(ops) + 1
        ops.append(run_op(workload, op_seed(seed, k), str(k)))
    repeat = run_op(workload, op_seed(seed, 0), "repeat")
    repeat_check(first, repeat)

    durations = seconds_at_nominal_speed(ops, workload)  # raises if every operation raised
    tail_value, tail_pct = tail(durations)
    print(f"{len(durations)} timed operations of {workload.items_per_op} {workload.unit}; "
          f"op_s_tail is p{tail_pct:.1f}; {workload.unit}_per_s = items_per_s; raw median "
          f"{statistics.median(r.raw_seconds for r in ops if r.timed):.6f} s")
    p50 = statistics.median(durations)
    metrics = {
        "items_per_s": workload.items_per_op / p50,
        "op_s_p50": p50,
        "op_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [first, *ops, repeat], metrics


def measure_traced(workload, seed: int, seconds: float):
    """Each seed runs untraced and traced, in alternating order; returns (records, per-layer metrics)."""
    tracer = Tracer()
    first = run_op(workload, op_seed(seed, 0), "warmup")
    pairs = []
    sizes = (0, 0)
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        k = len(pairs) + 1
        s = op_seed(seed, k)
        if k % 2:
            plain = run_op(workload, s, str(k))
            traced = run_op(workload, s, str(k), tracer, k)
        else:
            traced = run_op(workload, s, str(k), tracer, k)
            plain = run_op(workload, s, str(k))
        if k == 1 and traced.ok:
            sizes = workload.output_sizes()
        if traced.digest != plain.digest:
            traced.problems.append("traced run produced different output hashes")
            print(f"  FAIL traced digest {traced.digest} != untraced {plain.digest}")
        pairs.append((plain, traced))
    repeat = run_op(workload, op_seed(seed, 0), "repeat")
    repeat_check(first, repeat)
    print(f"{len(pairs)} traced/untraced pairs of {workload.items_per_op} {workload.unit}")

    in_order = [r for k, pair in enumerate(pairs, 1) for r in (pair if k % 2 else pair[::-1])]
    timed = [r for r in in_order if r.timed]
    scaled = dict(zip(map(id, timed), seconds_at_nominal_speed(timed, workload)))
    both = [(plain, traced) for plain, traced in pairs if plain.timed and traced.timed]
    plain_s = sum(scaled[id(plain)] for plain, _ in both)
    traced_s = sum(scaled[id(traced)] for _, traced in both)
    records = [first, *in_order, repeat]
    return records, layer_metrics(tracer, sizes, 1.0 - plain_s / traced_s)


def layer_metrics(tracer, sizes, overhead_frac):
    stats = SpanStats(tracer, first_op=1)
    total = Counter()
    for counts in tracer.counters.values():
        total.update(counts)
    smooth = "sensitivity.smooth_sensitivity"
    smooth_calls = stats.first(smooth)
    flip_calls = stats.first_count("sensitivity.flip_branch_calls", smooth)
    m = {
        "sensitivity.smooth_calls": smooth_calls,
        "sensitivity.smooth_us": stats.mean_us(smooth),
        "sensitivity.neighbor_rows": stats.first_count("sensitivity.neighbor_rows", smooth),
        "sensitivity.flip_branch_frac":
            None if smooth_calls is None else (flip_calls / smooth_calls if smooth_calls else 0.0),
        "noise.generators_made": stats.first("noise.generator"),
        "noise.generator_us": stats.mean_us("noise.generator"),
        "noise.sample_calls": stats.first("noise.sample"),
        "noise.sample_us": stats.mean_us("noise.sample"),
        "noise.exceedance_trials_per_s":
            stats.rate(total["noise.exceedance_trials"], "noise.exceedance_probability_mc"),
        "votes.boost_us": stats.mean_us("votes.boost"),
        "votes.argmax_gap_us": stats.mean_us("votes.argmax", "votes.gap"),
        "mechanisms.query_us": stats.mean_us("mechanisms.query"),
        "mechanisms.self_us": stats.mean_us("mechanisms.query", self_time=True),
        "mechanisms.noisy_argmax_us": stats.mean_us("mechanisms.noisy_argmax"),
        "mechanisms.flip_mc_trials_per_s":
            stats.rate(total["mechanisms.flip_mc_trials"], "mechanisms.flip_probability_mc"),
        "mechanisms.dp_ratio_trials_per_s":
            stats.rate(total["mechanisms.dp_ratio_trials"], "mechanisms.dp_ratio_check"),
        "ensemble.synth_votes_us": stats.mean_us("ensemble.synth_votes"),
        "ensemble.load_predictions_s": stats.per_op_s("ensemble.load_predictions"),
        "ensemble.csv_rows_per_s": stats.rate(total["ensemble.csv_rows"], "ensemble.load_predictions"),
        "ensemble.qualified_fraction_s": stats.per_op_s("ensemble.qualified_fraction"),
        "ensemble.histogram_scans":
            stats.first_count("ensemble.histogram_scans", "ensemble.qualified_fraction"),
        "ensemble.accuracy_s": stats.per_op_s("ensemble.ensemble_accuracy"),
        "accountant.record_us": stats.mean_us("accountant.record"),
        "accountant.eps_for_delta_s": stats.per_op_s("accountant.eps_for_delta"),
        "accountant.moment_terms":
            stats.first_count("accountant.moment_terms", "accountant.eps_for_delta"),
        "accountant.export_s": stats.per_op_s("accountant.export"),
        "accountant.ledger_bytes": sizes[0],
        "pipeline.run_self_s": stats.per_op_s("pipeline.run_experiment", self_time=True),
        "pipeline.emit_s": stats.per_op_s("pipeline.emit_report"),
        "pipeline.emit_self_s": stats.per_op_s("pipeline.emit_report", self_time=True),
        "pipeline.report_bytes": sizes[1],
        "pipeline.untraced_frac": stats.layer_share(ROOT_SPAN),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = stats.layer_share(layer)
    m["trace.overhead_frac"] = overhead_frac
    print("computed counts (derived from each call's inputs, not observed): "
          "sensitivity.neighbor_rows, ensemble.histogram_scans, accountant.moment_terms")
    print("counts are those of traced operation 1, whose seed depends on --seed alone")
    if tracer.missing:
        print(f"unmeasured (target not found): {', '.join(sorted(tracer.missing))}")
    if tracer.uncounted:
        print(f"uncounted (call shape changed): {', '.join(sorted(tracer.uncounted))}")
    shares = sorted(((m[f"{layer}.self_share"], layer) for layer in LAYERS), reverse=True)
    print("self-time share by layer: " + ", ".join(f"{layer} {share:.3f}" for share, layer in shares))
    return m


def setup_seconds(workload, seed: int) -> float:
    """Median time, at nominal speed, to import dpvote in a fresh interpreter and to
    generate the workload's inputs; each is repeated SETUP_REPS times."""
    imports, generations = [], []
    for _ in range(SETUP_REPS):
        _, refs, done = bracketed(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120), "interpreter")
        imports.append((float(done.stdout), refs))
    for _ in range(SETUP_REPS):
        raw, refs, _ = bracketed(lambda: workload.setup(seed), "interpreter")
        generations.append((raw, refs))
    return (statistics.median(normalize(imports, "interpreter"))
            + statistics.median(normalize(generations, "interpreter")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpvote" / "__init__.py").is_file():
        print(f"bench: no dpvote sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    # one core for this process and the import probes, so the reference loop
    # measures the speed of the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)  # inputs and reports use relative paths, so report bytes do not name the checkout
    try:
        setup_s = setup_seconds(workload, args.seed)
        measure_fn = measure_traced if args.trace else measure
        records, metrics = measure_fn(workload, args.seed, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failed = sum(1 for r in records if not r.ok)
    print(f"failed_op_frac = {failed}/{len(records)} = {failed / len(records)}")
    if not args.trace:
        metrics = {"setup_s": setup_s, **metrics}
    # BENCHMARK.json is the single list of metric names and units
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(listed) != set(metrics):
        print(f"bench: metrics {sorted(set(metrics) ^ set(listed))} are not both computed "
              f"and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed.items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
