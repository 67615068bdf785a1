"""End-to-end experiment driver: ensemble source, mechanism loop, ledger, reports.

Reports are deterministic functions of the configuration: identical configs
produce byte-identical report and ledger files.  Wall-clock runtime is kept
out of the emitted files for exactly that reason.  A run is a map over fixed
blocks of BLOCK queries: ``_answer_block`` makes one block's (queries, classes)
count matrix, from its own substreams or from its rows of a prediction table,
and answers it, so no count matrix holds more than one block.  The first N
queries of a run are therefore the same whatever the query budget, blocks may
be answered in any order, and the privacy composition is an order-independent
sum.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._table import check_type, field_types, format_table, write_fresh
from .accountant import NOISE_KIND, LedgerEntry, PrivacyFigure, PrivacyLedger
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
            if self.teachers >= 2**63:  # numpy draws votes in int64
                raise ValueError(f"teachers must be below 2**63, got {self.teachers}")
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


def _run_mechanism(config: ExperimentConfig, counts: np.ndarray, rng: RngStream):
    param = getattr(config, NOISE_KIND[config.mechanism].param)
    if config.mechanism == "lnmax":
        return lnmax(counts, param, rng, scale=config.scale)
    boosted = nzc_laplace if config.mechanism == "nzc-laplace" else nzc_gaussian
    return boosted(counts, config.boost_constant, param, config.beta, rng, scale=config.scale)


def _answer_block(config: ExperimentConfig, root: RngStream, source, block: int, rows: slice):
    """The truth, clean-label, gap, label, sensitivity and parameter columns of the queries
    ``rows``, block ``block`` of the run.  A SyntheticTeacherSpec draws their truths and votes
    from the block's substreams; a PredictionTable counts only these rows, and their truths,
    which the run takes from the table whole, are None.  The noise is the block's own too."""
    if isinstance(source, SyntheticTeacherSpec):
        truths = root.substream(_TRUTH, block).generator().integers(
            config.num_classes, size=rows.stop - rows.start)
        counts = synth_votes(source, truths, root.substream(_VOTES, block))
    else:
        truths, counts = None, source.counts(rows)
    batch = _run_mechanism(config, counts, root.substream(_MECH, block))
    return (truths, argmax(counts), gap(counts), batch.returned_labels, batch.sensitivities,
            batch.parameters)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    start = time.perf_counter()
    root = RngStream(config.seed)
    queries, accuracy_used = config.queries, config.teacher_accuracy
    try:  # every column is allocated once, before the first block is answered
        if config.teachers is not None:
            if accuracy_used is None:
                accuracy_used = default_accuracy(config.teachers)
            source = SyntheticTeacherSpec(config.teachers, config.num_classes, accuracy_used)
            truths = np.empty(queries, dtype=np.int64)
        else:
            source = load_predictions(config.predictions, num_classes=config.num_classes,
                                      truth_path=config.truth)
            available, truths = len(source.query_ids), source.truth_labels()
            queries = available if queries is None else queries
            if queries > available:
                raise ValueError(f"query budget {queries} exceeds the "
                                 f"{available} queries in {config.predictions}")
            if truths is not None:
                truths = np.array(truths[:queries], dtype=np.int64)
        answers = [truths, *(np.empty(queries, dtype) for dtype in ["int64"] * 3 + ["float64"] * 2)]
        for block, rows in _blocks(queries):
            for column, values in zip(answers, _answer_block(config, root, source, block, rows)):
                if values is not None:  # a table's truths are already in their column
                    column[rows] = values
    except MemoryError as exc:  # numpy's message names the size and the shape
        raise ValueError(f"the vote counts do not fit in memory: {exc}") from None
    truths, clean, gaps, labels, sensitivities, parameters = answers
    # one charge per distinct sensitivity, as each row's parameter is a function of it
    kind = NOISE_KIND[config.mechanism]
    distinct, first, charged = np.unique(sensitivities, return_index=True, return_inverse=True)
    ledger = PrivacyLedger()
    ledger.record(*(LedgerEntry(config.mechanism, sensitivity=s, **{kind.param: p})
                    for s, p in zip(distinct.tolist(), parameters[first].tolist())), rows=charged)
    with np.errstate(over="ignore"):  # 2 * gamma is inf above about 9e307, as in LedgerEntry
        epsilons = kind.epsilon(parameters).tolist() if kind.epsilon else None
    columns = [list(range(queries)), labels.tolist(), clean.tolist(),
               [None] * queries if truths is None else truths.tolist(),
               gaps.tolist(), sensitivities.tolist(), epsilons or [None] * queries]

    pcts, fractions = (None, None, None), ()  # with no query, no accuracy and no fraction
    if queries:
        if truths is None:  # only the agreement
            pcts = None, None, 100.0 * int(np.count_nonzero(labels == clean)) / queries
        else:
            accuracy = ensemble_accuracy(clean, truths, labels)
            pcts = accuracy.clean_pct, accuracy.mechanism_pct, accuracy.agreement_pct
        fractions = tuple((n, qualified_fraction(gaps, n)) for n in config.distance_grid)
    return ExperimentReport(
        config=replace(config, queries=queries, teacher_accuracy=accuracy_used),
        **dict(zip(_ACCURACY_KEYS, pcts)),
        qualified_fractions=fractions,
        privacy=ledger.figures(config.delta),
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


def _texts(report: ExperimentReport) -> dict[str, Callable[[], str]]:
    """Each report file's name -> a function that builds its text, in the order
    ``read_report`` compares them; ``PrivacyLedger.export`` writes ledger.csv's."""
    return {SUMMARY_FILE: lambda: json.dumps(_summary(report), indent=2) + "\n",
            QUERIES_FILE: lambda: format_table(_QUERY_TYPES, report.columns),
            LEDGER_FILE: report.ledger.export_text}


def emit_report(report: ExperimentReport, out_dir) -> dict[str, Path]:
    """Write summary.json, queries.csv and ledger.csv; byte-stable for a given report.

    Each file is written as a new file that replaces the one there, not truncated in
    place (``_table.write_fresh``): a report file that was a symlink or a hard link
    becomes a regular file, and its target or other name keeps the old bytes.
    """
    out = Path(out_dir)
    if not out.is_dir():  # a stat, where mkdir of an existing directory raises and catches
        out.mkdir(parents=True, exist_ok=True)

    texts = _texts(report)
    for name in (SUMMARY_FILE, QUERIES_FILE):
        write_fresh(out / name, texts[name]())
    report.ledger.export(out / LEDGER_FILE)
    return {"summary": out / SUMMARY_FILE, "queries": out / QUERIES_FILE,
            "ledger": out / LEDGER_FILE}


SHOWN_WIDTH = 80  # characters of a line that a read_report error shows


def _first_difference(path: Path, expected: str, found: str) -> ValueError:
    """The error for a file whose text is ``found`` where it should be ``expected``: the
    first line that differs, each side cut to SHOWN_WIDTH characters (a line's end included)."""
    lines = zip_longest(expected.splitlines(keepends=True), found.splitlines(keepends=True),
                        fillvalue="")  # "" past a text's end, which no line of it is
    number, (want, got) = next((n, pair) for n, pair in enumerate(lines, start=1)
                               if pair[0] != pair[1])
    want, got = (repr(line if len(line) <= SHOWN_WIDTH else line[:SHOWN_WIDTH] + "...")
                 for line in (want, got))
    return ValueError(f"{path}:{number}: expected {want}, found {got}")


def read_report(out_dir) -> ExperimentReport:
    """Check a report directory by running its config again, and return the run's report.

    The config comes from summary.json.  A queries.csv whose count of non-empty rows is
    not the summary's query_count is refused before the run, so a check answers no more
    queries than the file holds.  The run reads a prediction CSV as the first run did,
    a relative path against the working directory.  Then summary.json, queries.csv and
    ledger.csv, in that order, must each be the text that ``emit_report`` writes for
    the run.  Every error is one ValueError line that starts with a file's path; a file
    that differs is refused at its first differing line, as
    ``<path>:<line>: expected '<text>', found '<text>'``.
    """
    out = Path(out_dir)
    summary_path = out / SUMMARY_FILE
    where = f"{summary_path}:"
    found = {}
    for name in (SUMMARY_FILE, QUERIES_FILE, LEDGER_FILE):
        try:  # bytes decoded here, so a line end is compared as written and a bad byte as U+FFFD
            found[name] = (out / name).read_bytes().decode("utf-8", errors="replace")
        except OSError as exc:
            raise ValueError(f"{out / name}: {exc.strerror or exc}") from None
    try:
        summary = json.loads(found[SUMMARY_FILE])
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
    config = config_from_dict(values, str(summary_path))

    rows = sum(1 for line in found[QUERIES_FILE].splitlines()[1:] if line)
    if rows != config.queries:
        raise ValueError(f"{out / QUERIES_FILE}: {rows} rows, but query_count is {config.queries}")
    try:
        report = run_experiment(config)
    except (ValueError, OSError) as exc:
        raise ValueError(f"{where} {exc}") from None
    for name, text in _texts(report).items():
        expected = text()
        if expected != found[name]:
            raise _first_difference(out / name, expected, found[name])
    return report
