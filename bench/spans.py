"""Span tracing around the public functions of each dpvote layer.

The tracer patches the names that callers look up at call time (for example
``dpvote.mechanisms.smooth_sensitivity``, which ``nzc_laplace`` calls, or the
``RngStream.generator`` method) and restores the originals when the traced
operation ends.  Each span records (name, start, end, parent, operation id);
the layer is the part of the name before the first dot.  A target that no
longer exists is recorded as missing, so metrics built on it read null; so do
counts read from calls whose arguments or result no longer have the shape the
count expects.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import Counter, defaultdict

LAYERS = ("votes", "sensitivity", "noise", "mechanisms", "accountant", "ensemble", "pipeline")
ROOT = "op"  # the benchmark's own span around one operation


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _neighbor_rows(counters, args, kwargs, result):
    # computed: 1 + (nonzero bins) * (L - 1) rows per radius-1 neighbourhood scan
    counts = _arg(args, kwargs, 0, "votes").counts
    nonzero = sum(1 for c in counts if c)
    counters["sensitivity.neighbor_rows"] += 1 + nonzero * (len(counts) - 1)
    if result.value > math.exp(-result.beta):
        counters["sensitivity.flip_branch_calls"] += 1


def _mc_trials(key, index):
    def observe(counters, args, kwargs, result):
        counters[key] += _arg(args, kwargs, index, "trials")
    return observe


def _dp_ratio_trials(counters, args, kwargs, result):
    counters["mechanisms.dp_ratio_trials"] += (
        _arg(args, kwargs, 4, "trials") * len(result.neighbor_log_ratios))


def _histogram_scans(counters, args, kwargs, result):
    # computed: one histogram scan per (grid point, query)
    counters["ensemble.histogram_scans"] += len(_arg(args, kwargs, 0, "histograms"))


def _csv_rows(counters, args, kwargs, result):
    counters["ensemble.csv_rows"] += int(result.labels.size)


def _moment_terms(counters, args, kwargs, result):
    # computed: every curve evaluation sums entries x orders moment terms
    ledger = args[0]
    counters["accountant.moment_terms"] += len(ledger.entries) * len(ledger.orders)


# (module, attribute path, span name, observer).  The module is the one whose
# namespace the caller reads, so the patch is seen by that caller.
TARGETS = (
    ("dpvote.pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("dpvote.pipeline", "emit_report", "pipeline.emit_report", None),
    ("dpvote.pipeline", "synth_votes", "ensemble.synth_votes", None),
    ("dpvote.pipeline", "load_predictions", "ensemble.load_predictions", _csv_rows),
    ("dpvote.ensemble", "PredictionTable.histograms", "ensemble.histograms", None),
    ("dpvote.ensemble", "PredictionTable.truth_labels", "ensemble.truth_labels", None),
    ("dpvote.pipeline", "qualified_fraction", "ensemble.qualified_fraction", _histogram_scans),
    ("dpvote.pipeline", "ensemble_accuracy", "ensemble.ensemble_accuracy", None),
    ("dpvote.pipeline", "lnmax", "mechanisms.query", None),
    ("dpvote.pipeline", "nzc_laplace", "mechanisms.query", None),
    ("dpvote.pipeline", "nzc_gaussian", "mechanisms.query", None),
    ("dpvote.mechanisms", "noisy_argmax", "mechanisms.noisy_argmax", None),
    ("dpvote.mechanisms", "flip_probability_mc", "mechanisms.flip_probability_mc",
     _mc_trials("mechanisms.flip_mc_trials", 3)),
    ("dpvote.mechanisms", "dp_ratio_check", "mechanisms.dp_ratio_check", _dp_ratio_trials),
    ("dpvote.mechanisms", "smooth_sensitivity", "sensitivity.smooth_sensitivity", _neighbor_rows),
    ("dpvote.mechanisms", "enumerate_neighbors", "sensitivity.enumerate_neighbors", None),
    ("dpvote.mechanisms", "boost", "votes.boost", None),
    ("dpvote.mechanisms", "argmax", "votes.argmax", None),
    ("dpvote.pipeline", "argmax", "votes.argmax", None),
    ("dpvote.pipeline", "gap", "votes.gap", None),
    ("dpvote.ensemble", "argmax", "votes.argmax", None),
    ("dpvote.noise", "RngStream.generator", "noise.generator", None),
    ("dpvote.mechanisms", "sample_laplace", "noise.sample", None),
    ("dpvote.noise", "NoiseSpec.sample", "noise.sample", None),
    ("dpvote.noise", "exceedance_probability_mc", "noise.exceedance_probability_mc",
     _mc_trials("noise.exceedance_trials", 3)),
    ("dpvote.accountant", "PrivacyLedger.record", "accountant.record", None),
    ("dpvote.accountant", "PrivacyLedger.eps_for_delta", "accountant.eps_for_delta", _moment_terms),
    ("dpvote.accountant", "PrivacyLedger.simple_epsilon", "accountant.simple_epsilon", None),
    ("dpvote.accountant", "PrivacyLedger.export", "accountant.export", None),
    ("dpvote.accountant", "advanced_composition", "accountant.advanced_composition", None),
)


def _resolve(module_name, path):
    """Return (owner object, attribute name, current value), or None when gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    # read from __dict__ so a method is restored as the plain function it was
    value = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
    return owner, attr, value


class Tracer:
    """In-memory span recorder; single-threaded by design, like the workloads."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.missing: set[str] = set()
        self.uncounted: set[str] = set()  # spans whose calls no longer have the counted shape
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, fn, name, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if observe is not None:
                try:
                    observe(self.counters[self._op], args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncounted.add(name)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit, even after an error."""
        saved = []
        try:
            found_names = set()
            for module_name, path, name, observe in TARGETS:
                found = _resolve(module_name, path)
                if found is None:
                    continue
                owner, attr, original = found
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, observe))
                found_names.add(name)
            # a span name is unmeasured only when none of its targets exists
            self.missing |= {name for _, _, name, _ in TARGETS} - found_names
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; every layer span nests under it."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (ROOT, start, end, -1, op_id)
            self._op = -1


class SpanStats:
    """Per-name call counts, inclusive and self time, derived from a tracer."""

    def __init__(self, tracer: Tracer, first_op: int) -> None:
        spans = tracer.spans
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls: Counter = Counter()
        self.first_calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.layer_self_ns: Counter = Counter()
        self.ops = set()
        for i, (name, start, end, parent, op) in enumerate(spans):
            own = (end - start) - covered[i]
            self.calls[name] += 1
            self.incl_ns[name] += end - start
            self.self_ns[name] += own
            self.layer_self_ns[name.split(".")[0]] += own
            if op == first_op:
                self.first_calls[name] += 1
            self.ops.add(op)
        self.first_counts = tracer.counters[first_op]
        self.missing = tracer.missing
        self.uncounted = tracer.uncounted
        self.op_ns = self.incl_ns[ROOT]
        self.op_count = len(self.ops)

    def known(self, *names) -> bool:
        return not all(n in self.missing for n in names)

    def counted(self, *names) -> bool:
        return self.known(*names) and not any(n in self.uncounted for n in names)

    def mean_us(self, *names, self_time=False):
        if not self.known(*names):
            return None
        calls = sum(self.calls[n] for n in names)
        total = sum((self.self_ns if self_time else self.incl_ns)[n] for n in names)
        return total / calls / 1e3 if calls else 0.0

    def per_op_s(self, *names, self_time=False):
        if not self.known(*names):
            return None
        total = sum((self.self_ns if self_time else self.incl_ns)[n] for n in names)
        return total / self.op_count / 1e9

    def rate(self, count, *names):
        """Work items per second of inclusive time in the named spans."""
        if not self.counted(*names):
            return None
        total = sum(self.incl_ns[n] for n in names)
        return count / (total / 1e9) if total else 0.0

    def first(self, name):
        return self.first_calls[name] if self.known(name) else None

    def first_count(self, key, *names):
        return self.first_counts[key] if self.counted(*names) else None

    def layer_share(self, layer):
        return self.layer_self_ns[layer] / self.op_ns
