"""End-to-end experiment driver: ensemble source, mechanism loop, ledger, reports.

Reports are deterministic functions of the configuration: identical configs
produce byte-identical report and ledger files.  Wall-clock runtime is kept
out of the emitted files for exactly that reason.  A run is one columnar pass
over a (queries, classes) count matrix.  Queries are drawn and answered in
fixed blocks of BLOCK, each block from its own substreams, so the first N
queries of a run are the same whatever the query budget, and the privacy
composition is an order-independent sum.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import numpy as np

from ._table import PRIVACY_CHECKS, check_type, field_types, format_table, read_table
from .accountant import NOISE_KIND, PrivacyFigure, PrivacyLedger
from .ensemble import (
    SyntheticTeacherSpec,
    default_accuracy,
    ensemble_accuracy,
    load_predictions,
    qualified_fraction,
    synth_votes,
)
from .mechanisms import lnmax, noise_parameters, nzc_gaussian, nzc_laplace
from .noise import RngStream
from .sensitivity import gap_flip_moves, smooth_from_moves
from .votes import argmax, check_boost_constant, gap

__all__ = [
    "BLOCK",
    "MECHANISMS",
    "DEFAULT_DISTANCE_GRID",
    "ExperimentConfig",
    "QueryResult",
    "ExperimentReport",
    "config_from_dict",
    "run_experiment",
    "emit_report",
    "read_report",
]

MECHANISMS = tuple(NOISE_KIND)
DEFAULT_DISTANCE_GRID = (1, 2, 3, 5, 10, 25, 50, 100)

# substream domains, one per independent randomness consumer; block b of a
# domain draws from root.substream(domain, b)
_TRUTH, _VOTES, _MECH = 0, 1, 2
BLOCK = 1024  # queries per stream block; part of the report bytes, not a knob


@dataclass
class ExperimentConfig:
    """Everything a run depends on; exactly one ensemble source must be set.

    A report carries the config as the run resolved it: ``queries`` is the
    number of queries answered and ``teacher_accuracy`` the per-teacher
    accuracy of the synthetic ensemble (None for a prediction file).  Field
    metadata ``summary`` names the field's key in summary.json (None keeps
    it out); a field's ``dpvote run`` flag is ``--`` plus its ``alias``, also
    a config-file key, or its name, with its ``help`` and ``choices``.
    """

    mechanism: str = field(metadata={"choices": MECHANISMS})
    seed: int
    num_classes: int = field(default=10, metadata={"alias": "classes"})
    # None with a prediction file means "all queries in the file"
    queries: Optional[int] = field(default=None, metadata={"summary": "query_count"})
    teachers: Optional[int] = field(default=None, metadata={"help": "synthetic ensemble size"})
    teacher_accuracy: Optional[float] = None
    predictions: Optional[str] = field(default=None, metadata={
        "help": "CSV of query_id,teacher_id,label"})
    truth: Optional[str] = field(default=None, metadata={"help": "CSV of query_id,label"})
    boost_constant: float = field(default=0.0, metadata={
        "alias": "c", "help": "boost constant added to the top bin"})
    gamma: Optional[float] = field(default=None, metadata={
        "help": "Laplace inverse-scale privacy parameter"})
    sigma: Optional[float] = field(default=None, metadata={"help": "Gaussian std multiplier"})
    scale: Optional[float] = field(default=None, metadata={
        "help": "raw noise scale (alternative to gamma/sigma)"})
    beta: float = 1.0
    delta: float = 1e-5
    out_dir: Optional[str] = field(default=None, metadata={
        "alias": "out", "summary": None, "help": "report directory"})
    # summary.json keeps the grid as the n column of qualified_fractions
    distance_grid: tuple[int, ...] = field(default=DEFAULT_DISTANCE_GRID,
                                           metadata={"summary": None})

    def validate(self) -> None:
        for name, declared in _CONFIG_TYPES.items():
            check_type("config field", name, getattr(self, name), declared)
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; choose one of {MECHANISMS}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if (self.teachers is None) == (self.predictions is None):
            raise ValueError("configure exactly one ensemble source: "
                             "synthetic teachers or a prediction file")
        if self.teachers is not None:
            if self.teachers < 1:
                raise ValueError(f"need at least one teacher, got {self.teachers}")
            if self.queries is None or self.queries < 0:
                raise ValueError("synthetic runs need a non-negative query budget")
            if self.truth is not None:
                raise ValueError("synthetic runs draw their own truth labels; they take no truth file")
        elif self.teacher_accuracy is not None:
            raise ValueError("prediction-file runs have no synthetic teachers; they take no "
                             "teacher_accuracy")
        if self.teacher_accuracy is not None and not 0.0 <= self.teacher_accuracy <= 1.0:
            raise ValueError(f"teacher_accuracy must lie in [0, 1], got {self.teacher_accuracy!r}")
        if self.queries is not None and self.queries < 0:
            raise ValueError(f"query budget must be non-negative, got {self.queries}")
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got {self.num_classes}")
        check_boost_constant(self.boost_constant)
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        kind = NOISE_KIND[self.mechanism]
        if getattr(self, kind.other) is not None:
            raise ValueError(f"{self.mechanism} takes no {kind.other}; "
                             f"its noise is set by {kind.param} or scale")
        noise_parameters(self.mechanism, np.empty(0), getattr(self, kind.param), self.scale)
        if any(n < 0 for n in self.distance_grid):
            raise ValueError("distance grid entries must be non-negative")


@dataclass(frozen=True)
class QueryResult:
    """Per-query record emitted to the report; the field order is the queries.csv column order."""

    query_id: int
    returned_label: int
    clean_label: int
    truth_label: Optional[int]
    gap: int
    sensitivity: float
    epsilon: Optional[float]  # per-query pure-DP cost; None for Gaussian runs


_CONFIG_TYPES = field_types(ExperimentConfig)
# config-file shorthand -> field name, from each field's alias, which is also its run flag
_CONFIG_ALIASES = {f.metadata["alias"]: f.name for f in fields(ExperimentConfig)
                   if "alias" in f.metadata}
_QUERY_TYPES = field_types(QueryResult)


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    """Build and validate a config from JSON-style keys.

    Keys are the ExperimentConfig field names plus the aliases its fields
    declare; when two keys name one field, the later wins.
    Every error is a one-line ValueError; ``source`` names the input in it.
    """
    values = {}
    for key, value in raw.items():
        name = _CONFIG_ALIASES.get(key, key)
        if name not in _CONFIG_TYPES:
            raise ValueError(f"{source}: unknown config field {key!r}")
        if isinstance(value, list) and _CONFIG_TYPES[name][0] is tuple:
            value = tuple(value)  # JSON has no tuples
        values[name] = value
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ValueError(f"{source}: config field {f.name} is required")
    config = ExperimentConfig(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return config


@dataclass
class ExperimentReport:
    config: ExperimentConfig  # as resolved by the run; see ExperimentConfig
    clean_accuracy_pct: Optional[float]
    mechanism_accuracy_pct: Optional[float]
    agreement_pct: Optional[float]
    qualified_fractions: tuple[tuple[int, float], ...]
    privacy: tuple[PrivacyFigure, ...]  # the ledger's figures at config.delta
    columns: list[list]  # one list per QueryResult field, in queries.csv column order
    ledger: PrivacyLedger = field(compare=False, repr=False, default_factory=PrivacyLedger)
    runtime_seconds: float = field(compare=False, default=0.0)

    @property
    def results(self) -> tuple[QueryResult, ...]:
        """One QueryResult per query, built from ``columns`` on each access."""
        return tuple(map(QueryResult, *self.columns))

    @property
    def query_count(self) -> int:
        return len(self.columns[0])

    @property
    def eps_simple(self) -> Optional[float]:
        """The paper's simple-composition eps; None when no query was charged to it."""
        return next((f.eps for f in self.privacy if f.accounting == "paper-simple"), None)


def _blocks(queries: int):
    """(block index, row slice) of each block of at most BLOCK consecutive queries."""
    return enumerate(slice(start, min(start + BLOCK, queries))
                     for start in range(0, queries, BLOCK))


def _build_counts(config: ExperimentConfig, root: RngStream):
    """Returns (count matrix, truth labels or None, teacher accuracy used) for the configured source."""
    if config.teachers is not None:
        accuracy = config.teacher_accuracy
        if accuracy is None:
            accuracy = default_accuracy(config.teachers)
        spec = SyntheticTeacherSpec(config.teachers, config.num_classes, accuracy)
        truths = np.empty(config.queries, dtype=np.int64)
        counts = np.empty((config.queries, config.num_classes), dtype=np.int64)
        for block, rows in _blocks(config.queries):
            size = rows.stop - rows.start
            truths[rows] = root.substream(_TRUTH, block).generator().integers(
                config.num_classes, size=size)
            counts[rows] = synth_votes(spec, truths[rows], root.substream(_VOTES, block))
        return counts, truths.tolist(), accuracy
    table = load_predictions(config.predictions, num_classes=config.num_classes,
                             truth_path=config.truth)
    counts = table.counts()
    truths = table.truth_labels()
    if config.queries is not None:
        if config.queries > len(counts):
            raise ValueError(f"query budget {config.queries} exceeds the "
                             f"{len(counts)} queries in {config.predictions}")
        counts = counts[: config.queries]
        truths = truths[: config.queries] if truths is not None else None
    return counts, truths, None


def _run_mechanism(config: ExperimentConfig, counts: np.ndarray, rng: RngStream):
    param = getattr(config, NOISE_KIND[config.mechanism].param)
    if config.mechanism == "lnmax":
        return lnmax(counts, param, rng, scale=config.scale)
    boosted = nzc_laplace if config.mechanism == "nzc-laplace" else nzc_gaussian
    return boosted(counts, config.boost_constant, param, config.beta, rng, scale=config.scale)


def _figures(config: ExperimentConfig, ledger: PrivacyLedger, labels, clean, truths, gaps) -> dict:
    """The figure fields of an ExperimentReport, from its query columns and its ledger.

    ``run_experiment`` and ``read_report`` both derive a report's figures here.  The
    columns are arrays; ``truths`` is None when no query has a truth label, which leaves
    only the agreement.  With no query every accuracy is None and there is no fraction.
    """
    privacy = ledger.figures(config.delta)
    if not len(clean):
        return dict(dict.fromkeys(_ACCURACY_KEYS), qualified_fractions=(), privacy=privacy)
    if truths is None:
        pcts = None, None, 100.0 * int(np.count_nonzero(labels == clean)) / len(clean)
    else:
        summary = ensemble_accuracy(clean, truths, labels)
        pcts = summary.clean_pct, summary.mechanism_pct, summary.agreement_pct
    fractions = tuple((n, qualified_fraction(gaps, n)) for n in config.distance_grid)
    return dict(zip(_ACCURACY_KEYS, pcts), qualified_fractions=fractions, privacy=privacy)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    start = time.perf_counter()
    root = RngStream(config.seed)
    counts, truths, accuracy_used = _build_counts(config, root)
    queries = len(counts)

    ledger = PrivacyLedger()
    labels = np.empty(queries, dtype=np.int64)
    sensitivities = np.empty(queries)
    parameters = np.empty(queries)
    for block, rows in _blocks(queries):
        batch = _run_mechanism(config, counts[rows], root.substream(_MECH, block))
        labels[rows] = batch.returned_labels
        sensitivities[rows] = batch.sensitivities
        parameters[rows] = batch.parameters
        ledger.record(*batch.charges, rows=batch.charge_rows)
    clean, gaps = argmax(counts), gap(counts)
    charge = NOISE_KIND[config.mechanism].epsilon
    with np.errstate(over="ignore"):  # 2 * gamma is inf above about 9e307, as in LedgerEntry
        epsilons = charge(parameters).tolist() if charge else None
    columns = [list(range(queries)), labels.tolist(), clean.tolist(), truths or [None] * queries,
               gaps.tolist(), sensitivities.tolist(), epsilons or [None] * queries]

    return ExperimentReport(
        config=replace(config, queries=queries, teacher_accuracy=accuracy_used),
        **_figures(config, ledger, labels, clean, truths, gaps),
        columns=columns,
        ledger=ledger,
        runtime_seconds=time.perf_counter() - start,
    )


def _round12(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(f"{value:.12g}")


SUMMARY_FILE = "summary.json"
QUERIES_FILE = "queries.csv"
LEDGER_FILE = "ledger.csv"
# (field name, summary.json key, declared base type) of each config field in the summary
_SUMMARY_FIELDS = tuple(
    (f.name, f.metadata.get("summary", f.name), _CONFIG_TYPES[f.name][0])
    for f in fields(ExperimentConfig) if f.metadata.get("summary", f.name) is not None
)
# ExperimentReport figures at the top level of summary.json
_ACCURACY_KEYS = ("clean_accuracy_pct", "mechanism_accuracy_pct", "agreement_pct")
# the table each summary.json figure is derived from; every other key is a config field
_SOURCES = {"qualified_fractions": QUERIES_FILE, "privacy": LEDGER_FILE,
            **dict.fromkeys(_ACCURACY_KEYS, QUERIES_FILE)}


def _summary(report: ExperimentReport) -> dict:
    """The summary.json object of a report: its config fields as the run resolved them,
    float fields as floats, then its figures at 12 significant digits."""
    summary = {}
    for name, key, base in _SUMMARY_FIELDS:
        value = getattr(report.config, name)
        summary[key] = float(value) if base is float and value is not None else value
    summary.update({key: _round12(getattr(report, key)) for key in _ACCURACY_KEYS})
    summary["qualified_fractions"] = [
        {"n": n, "fraction": _round12(frac)} for n, frac in report.qualified_fractions
    ]
    summary["privacy"] = [{**vars(f), "eps": _round12(f.eps), "delta": _round12(f.delta)}
                          for f in report.privacy]
    return summary


def emit_report(report: ExperimentReport, out_dir) -> dict[str, Path]:
    """Write summary.json, queries.csv and ledger.csv; byte-stable for a given report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary_path = out / SUMMARY_FILE
    summary_path.write_text(json.dumps(_summary(report), indent=2) + "\n", encoding="utf-8")

    queries_path = out / QUERIES_FILE
    queries_path.write_text(format_table(_QUERY_TYPES, report.columns), encoding="utf-8")

    ledger_path = out / LEDGER_FILE
    report.ledger.export(ledger_path)
    return {"summary": summary_path, "queries": queries_path, "ledger": ledger_path}


def read_report(out_dir) -> ExperimentReport:
    """Parse a report directory back into an ExperimentReport (runtime and out_dir are not stored).

    The config comes from summary.json and the figures are derived from the tables as
    ``run_experiment`` derives them; a summary.json other than the one ``emit_report``
    writes for the result is refused with one line naming the first key that differs.
    """
    out = Path(out_dir)
    where = f"{out / SUMMARY_FILE}:"
    try:
        summary = json.loads((out / SUMMARY_FILE).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} not valid JSON: {exc}") from None

    try:
        values = {name: summary[key] for name, key, _ in _SUMMARY_FIELDS}
        values["distance_grid"] = tuple(e["n"] for e in summary["qualified_fractions"])
    except KeyError as exc:
        raise ValueError(f"{where} missing key {exc.args[0]!r}") from None
    except TypeError:  # valid JSON of another shape, e.g. a list or "qualified_fractions": 5
        raise ValueError(f"{where} expected an object with a qualified_fractions "
                         f"list of {{n, fraction}} objects") from None
    config = config_from_dict(values, str(out / SUMMARY_FILE))

    ledger = PrivacyLedger.load(out / LEDGER_FILE)

    def ledger_fault(index: int, fault: str) -> ValueError:
        lines = (out / LEDGER_FILE).read_text(encoding="utf-8").splitlines()
        line = [row.split(",")[0] for row in lines].index(str(index)) + 1  # row i starts with i
        return ValueError(f"{out / LEDGER_FILE}:{line}: {fault}")

    entries = ledger.entries  # a fresh list on each access
    param = NOISE_KIND[config.mechanism].param
    sens = np.array([entry.sensitivity for entry in entries])
    try:
        charged = noise_parameters(config.mechanism, sens, getattr(config, param), config.scale)
    except ValueError as exc:
        raise ValueError(f"{out / LEDGER_FILE}: {exc}") from None
    for index, (entry, given) in enumerate(zip(entries, charged.tolist())):
        if entry.mechanism != config.mechanism:
            raise ledger_fault(index, f"mechanism {entry.mechanism!r} differs from the "
                                      f"config's {config.mechanism!r}")
        if getattr(entry, param) != given:
            raise ledger_fault(index, f"{param} {getattr(entry, param)!r} differs from the "
                                      f"config's {given!r} at sensitivity {entry.sensitivity!r}")

    def query_row(*cells) -> tuple:  # every label is a class of the run; costs are its ledger row's
        row = QueryResult(*cells)
        for name in ("returned_label", "clean_label", "truth_label"):
            label = getattr(row, name)
            if label is not None and not 0 <= label < config.num_classes:
                raise ValueError(f"{name} must lie in [0, {config.num_classes}), got {label}")
        if row.query_id < len(entries):  # a row count that differs is refused below
            entry = entries[row.query_id]
            for name in ("sensitivity", "epsilon"):
                if getattr(row, name) != getattr(entry, name):
                    raise ValueError(f"{name} {getattr(row, name)!r} differs from the "
                                     f"{getattr(entry, name)!r} of {LEDGER_FILE} row {row.query_id}")
        return cells

    rows = read_table(out / QUERIES_FILE, _QUERY_TYPES, PRIVACY_CHECKS, query_row)
    for name, count in ((QUERIES_FILE, len(rows)), (LEDGER_FILE, ledger.query_count)):
        if count != config.queries:
            raise ValueError(f"{out / name}: {count} rows, but query_count is {config.queries}")
    columns = [[row[i] for row in rows] for i in range(len(_QUERY_TYPES))]
    _, labels, clean, truths, gaps = columns[:5]
    gaps = np.asarray(gaps)  # object dtype for an int beyond int64, which the gap column allows
    with_truth = sum(truth is not None for truth in truths)
    if 0 < with_truth < len(truths):
        raise ValueError(f"{out / QUERIES_FILE}: truth_label is set on {with_truth} of "
                         f"{len(truths)} rows; set it on every row or none")
    report = ExperimentReport(config=config, columns=columns, ledger=ledger, **_figures(
        config, ledger, np.asarray(labels), np.asarray(clean), truths if with_truth else None,
        gaps))

    derived = _summary(report)
    for key, value in derived.items():
        if key not in summary:
            raise ValueError(f"{where} missing key {key!r}")
        name, stated = key, summary[key]
        if json.dumps(stated) == json.dumps(value):  # JSON text, so 100 is not 100.0
            continue
        if key == "privacy" and isinstance(stated, list):  # name the first record that differs
            stated, value = next(pair for pair in zip_longest(stated, value)
                                 if json.dumps(pair[0]) != json.dumps(pair[1]))
            name = f"privacy {value['accounting']}" if value else key
        raise ValueError(f"{where} {name} is {json.dumps(stated)}, but "
                         f"{_SOURCES.get(key, 'the config')} gives {json.dumps(value)}")
    unknown = [key for key in summary if key not in derived]
    if unknown:
        raise ValueError(f"{where} unknown key {unknown[0]!r}")
    # a run's sensitivity is 1 (lnmax), else the smooth sensitivity at k*, which is one of
    # two values at its row's gap, by which of the two leading bins comes first
    try:
        allowed = ([np.ones(len(sens))] * 2 if config.mechanism == "lnmax" else
                   [smooth_from_moves(k, config.boost_constant, config.beta)
                    for k in gap_flip_moves(gaps)])
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    bad = np.flatnonzero((sens != allowed[0]) & (sens != allowed[1]))
    if bad.size:
        index = int(bad[0])
        values = " or ".join(map(repr, dict.fromkeys(float(a[index]) for a in allowed)))
        raise ledger_fault(index, f"sensitivity {entries[index].sensitivity!r} differs from "
                                  f"the config's {values} at gap {int(gaps[index])}")
    return report
