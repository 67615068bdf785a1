"""The three benchmark workloads: inputs from a seed, one timed operation, output checks.

Each workload exposes ``setup(seed)`` (input generation, timed as set-up),
``prepare(op_seed)`` (per-operation inputs, untimed), ``run(inputs)`` (the
timed operation), ``check(inputs, result)`` (a list of problems, empty when the
output is right), ``digest(inputs, result)`` (per-file hashes of what the
operation produced, printed so two commits can be compared byte for byte) and
``output_sizes()``.  ``items_per_op`` counts the work items (``unit``) of one
operation; ``reference`` names the speed.py reference loop that resembles it.

Library calls go through the module attributes (``pipeline.run_experiment``),
so the tracer's patches are seen.  Checks never compare against golden bytes:
a change of stream layout may legitimately change every label and hash.
"""

from __future__ import annotations

import filecmp
import hashlib
import math
from pathlib import Path

import numpy as np

from dpvote import mechanisms, noise, pipeline
from dpvote.noise import NoiseSpec, RngStream, required_constant_laplace, union_flip_bound
from dpvote.pipeline import ExperimentConfig
from dpvote.votes import VoteHistogram

REPORT_FILES = (pipeline.SUMMARY_FILE, pipeline.QUERIES_FILE, pipeline.LEDGER_FILE)
OUT = "out"            # report directory, relative to the run's work directory
ROUND_TRIP = "out-rt"  # re-emitted copy of the parsed report


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class _Labeling:
    """A labeling operation: run_experiment + emit_report on one generated config."""

    unit = "queries"
    reference = "interpreter"

    def run(self, config):
        report = pipeline.run_experiment(config)
        pipeline.emit_report(report, OUT)
        return report

    def digest(self, config, report) -> dict[str, str]:
        return {name: _sha(Path(OUT, name).read_bytes()) for name in REPORT_FILES}

    def output_sizes(self) -> tuple[int, int]:
        """(ledger.csv bytes, bytes of all report files) of the last emitted report."""
        sizes = [Path(OUT, name).stat().st_size for name in REPORT_FILES]
        return sizes[-1], sum(sizes)


class BoostedSynth(_Labeling):
    """README config at the small size: nzc-laplace, 250 teachers x 10 classes, c=1e100."""

    name = "boosted-synth"
    QUERIES = 1000
    items_per_op = QUERIES

    def setup(self, seed: int) -> None:
        # the synthetic ensemble is generated by the library from each config's seed
        self.prepare(seed)

    def prepare(self, op_seed: int) -> ExperimentConfig:
        return ExperimentConfig(mechanism="nzc-laplace", seed=op_seed, queries=self.QUERIES,
                                num_classes=10, teachers=250, boost_constant=1e100, scale=1e10)

    def check(self, config, report) -> list[str]:
        problems = []
        if report.agreement_pct != 100.0:
            problems.append(f"agreement {report.agreement_pct}% != 100%")
        wrong = sum(1 for r in report.results if r.returned_label != r.clean_label)
        if wrong:
            problems.append(f"{wrong} returned labels differ from the clean label")
        if not report.eps_simple < 1e-5:
            problems.append(f"eps_simple {report.eps_simple} >= 1e-5")
        ledger_rows = len(Path(OUT, pipeline.LEDGER_FILE).read_text().splitlines()) - 1
        if report.ledger.query_count != self.QUERIES or ledger_rows != self.QUERIES:
            problems.append(f"ledger has {ledger_rows} rows for {self.QUERIES} queries")
        pipeline.emit_report(pipeline.read_report(OUT), ROUND_TRIP)
        for name in REPORT_FILES:
            if not filecmp.cmp(Path(OUT, name), Path(ROUND_TRIP, name), shallow=False):
                problems.append(f"read_report does not round-trip {name}")
        return problems


class BaselineReplay(_Labeling):
    """lnmax at a fixed gamma over a 25-teacher x 100-class prediction CSV written at set-up."""

    name = "baseline-replay"
    QUERIES, TEACHERS, CLASSES = 1000, 25, 100
    TEACHER_ACCURACY = 0.9503  # the library's default for 25 teachers
    GAMMA = 0.1
    PREDICTIONS, TRUTH = "predictions.csv", "truth.csv"
    items_per_op = QUERIES

    def setup(self, seed: int) -> None:
        gen = np.random.default_rng(seed)
        q, t, n = self.QUERIES, self.TEACHERS, self.CLASSES
        truth = gen.integers(n, size=q)
        correct = gen.random((q, t)) < self.TEACHER_ACCURACY
        wrong = gen.integers(0, n - 1, size=(q, t))
        wrong += wrong >= truth[:, None]  # uniform over the other labels
        labels = np.where(correct, truth[:, None], wrong)
        rows = [f"{i},{j},{labels[i, j]}" for i in range(q) for j in range(t)]
        Path(self.PREDICTIONS).write_text("query_id,teacher_id,label\n" + "\n".join(rows) + "\n")
        Path(self.TRUTH).write_text(
            "query_id,label\n" + "\n".join(f"{i},{truth[i]}" for i in range(q)) + "\n")
        counts = np.zeros((q, n), dtype=np.int64)
        np.add.at(counts, (np.repeat(np.arange(q), t), labels.ravel()), 1)
        self.clean = np.argmax(counts, axis=1).tolist()  # lowest index wins ties

    def prepare(self, op_seed: int) -> ExperimentConfig:
        return ExperimentConfig(mechanism="lnmax", seed=op_seed, num_classes=self.CLASSES,
                                predictions=self.PREDICTIONS, truth=self.TRUTH, gamma=self.GAMMA)

    def check(self, config, report) -> list[str]:
        problems = []
        clean = [r.clean_label for r in report.results]
        if clean != self.clean:
            diff = sum(1 for a, b in zip(clean, self.clean) if a != b)
            problems.append(f"{diff} clean labels differ from the CSV's own bincount argmax "
                            f"({len(clean)} vs {len(self.clean)} queries)")
        out_of_range = sum(1 for r in report.results if not 0 <= r.returned_label < self.CLASSES)
        if out_of_range:
            problems.append(f"{out_of_range} returned labels outside [0, {self.CLASSES})")
        expected = 2.0 * self.GAMMA * self.QUERIES
        if report.eps_simple is None or f"{report.eps_simple:.12g}" != f"{expected:.12g}":
            problems.append(f"eps_simple {report.eps_simple} != 2*gamma*T = {expected}")
        return problems


class OracleMC:
    """One round of the Monte-Carlo verification oracles, 10^5 trials per call."""

    name = "oracle-mc"
    unit = "trials"
    reference = "bulk"
    TRIALS = 100_000
    CLASSES = 10
    FLIP_SPEC = NoiseSpec("laplace", gamma=1e-3)
    FLIP_C = required_constant_laplace(CLASSES, 1e-9, 1e-3)  # the acceptance-1 shape
    # thresholds where the union bound is loose by far more than 3 standard errors
    LAPLACE_SPEC = NoiseSpec("laplace", gamma=1.0)
    LAPLACE_C = required_constant_laplace(CLASSES, 0.5, 1.0)
    GAUSS_SPEC = NoiseSpec("gaussian", sigma=1.0)
    GAUSS_C = 3.0
    RATIO_VOTES = VoteHistogram([6, 3, 3])
    RATIO_C, RATIO_GAMMA = 100.0, 0.5
    RATIO_ROWS = 1 + 3 * 2  # [6,3,3] and its six one-move neighbours
    items_per_op = 3 * TRIALS + TRIALS * RATIO_ROWS

    def setup(self, seed: int) -> None:
        self.prepare(seed)

    def prepare(self, op_seed: int):
        """A random 10-class histogram with a unique winner, as in acceptance 1."""
        gen = np.random.default_rng(op_seed)
        teachers = int(gen.integers(20, 251))
        counts = gen.multinomial(teachers, gen.dirichlet(np.ones(self.CLASSES)))
        if counts.max() == np.partition(counts, -2)[-2]:
            counts[int(np.argmax(counts))] += 1
        return op_seed, VoteHistogram(counts)

    def run(self, inputs):
        op_seed, votes = inputs
        root = RngStream(op_seed)
        return (
            mechanisms.flip_probability_mc(votes, self.FLIP_C, self.FLIP_SPEC, self.TRIALS,
                                           root.substream(0)),
            noise.exceedance_probability_mc(self.LAPLACE_SPEC, self.CLASSES, self.LAPLACE_C,
                                            self.TRIALS, root.substream(1)),
            noise.exceedance_probability_mc(self.GAUSS_SPEC, self.CLASSES, self.GAUSS_C,
                                            self.TRIALS, root.substream(2)),
            mechanisms.dp_ratio_check(self.RATIO_VOTES, self.RATIO_C, self.RATIO_GAMMA, 1.0,
                                      self.TRIALS, root.substream(3)),
        )

    @staticmethod
    def _over_bound(estimate, bound, trials) -> bool:
        return estimate.estimate > bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)

    def check(self, inputs, result) -> list[str]:
        _, votes = inputs
        flip, laplace, gauss, ratio = result
        problems = []
        # A flip needs some |noise_j| >= (c + gap) / 2, so the union bound at that
        # threshold bounds the flip rate.  "Zero flips" is not guaranteed: the
        # per-trial flip rate at this calibration is ~5.6e-9, above tau = 1e-9.
        counts = votes.as_array()
        top2 = np.partition(counts, -2)
        flip_bound = union_flip_bound(self.CLASSES, self.FLIP_SPEC,
                                      (self.FLIP_C + int(top2[-1] - top2[-2])) / 2.0)
        if self._over_bound(flip, flip_bound, self.TRIALS):
            problems.append(f"{flip.hits} flips in {flip.trials} trials exceed bound {flip_bound:.3g}")
        for name, est, spec, c in (("laplace", laplace, self.LAPLACE_SPEC, self.LAPLACE_C),
                                   ("gaussian", gauss, self.GAUSS_SPEC, self.GAUSS_C)):
            bound = union_flip_bound(self.CLASSES, spec, c)
            if self._over_bound(est, bound, self.TRIALS):
                problems.append(f"{name} exceedance {est.estimate} > bound {bound:.6g} + 3 SE")
        limit = 2.0 * self.RATIO_GAMMA + 0.1
        if not ratio.max_log_ratio <= limit:
            problems.append(f"dp_ratio_check max log-ratio {ratio.max_log_ratio} > {limit}")
        if len(ratio.neighbor_log_ratios) != self.RATIO_ROWS:
            problems.append(f"dp_ratio_check scanned {len(ratio.neighbor_log_ratios)} histograms, "
                            f"expected {self.RATIO_ROWS}")
        return problems

    def output_sizes(self) -> tuple[int, int]:
        return 0, 0  # the oracles emit no report

    def digest(self, inputs, result) -> dict[str, str]:
        flip, laplace, gauss, ratio = result
        return {
            "flips": str(flip.hits),
            "exceedance": _sha(repr((laplace.hits, gauss.hits)).encode()),
            "dp_ratio": _sha(repr((ratio.neighbor_log_ratios, ratio.noise_scale)).encode()),
        }


WORKLOADS = {w.name: w for w in (BoostedSynth, BaselineReplay, OracleMC)}
