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
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from ._table import PRIVACY_CHECKS, check_type, field_types, format12, format_table, read_table
from .accountant import NOISE_KIND, PrivacyFigure, PrivacyLedger
from .ensemble import (
    SyntheticTeacherSpec,
    default_accuracy,
    ensemble_accuracy,
    load_predictions,
    qualified_fraction,
    synth_votes,
)
from .mechanisms import lnmax, nzc_gaussian, nzc_laplace
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

# config-file shorthands, mirroring the CLI flags --c, --classes and --out
_CONFIG_ALIASES = {"c": "boost_constant", "classes": "num_classes", "out": "out_dir"}


@dataclass
class ExperimentConfig:
    """Everything a run depends on; exactly one ensemble source must be set.

    A report carries the config as the run resolved it: ``queries`` is the
    number of queries answered and ``teacher_accuracy`` the per-teacher
    accuracy of the synthetic ensemble (None for a prediction file).  Field
    metadata ``summary`` names the field's key in summary.json; None keeps
    the field out of it.
    """

    mechanism: str
    seed: int
    num_classes: int = 10
    # None with a prediction file means "all queries in the file"
    queries: Optional[int] = field(default=None, metadata={"summary": "query_count"})
    teachers: Optional[int] = None
    teacher_accuracy: Optional[float] = None
    predictions: Optional[str] = None
    truth: Optional[str] = None
    boost_constant: float = 0.0
    gamma: Optional[float] = None
    sigma: Optional[float] = None
    scale: Optional[float] = None  # raw noise scale; alternative to gamma/sigma calibration
    beta: float = 1.0
    delta: float = 1e-5
    out_dir: Optional[str] = field(default=None, metadata={"summary": None})
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
        if self.queries is not None and self.queries < 0:
            raise ValueError(f"query budget must be non-negative, got {self.queries}")
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got {self.num_classes}")
        check_boost_constant(self.boost_constant)
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        laplace = NOISE_KIND[self.mechanism] == "laplace"
        param, other = ("gamma", "sigma") if laplace else ("sigma", "gamma")
        if (getattr(self, param) is None) == (self.scale is None):
            raise ValueError(f"{self.mechanism} needs exactly one of {param} or scale")
        if getattr(self, other) is not None:
            raise ValueError(f"{self.mechanism} takes no {other}; "
                             f"its noise is set by {param} or scale")
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
_QUERY_TYPES = field_types(QueryResult)


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    """Build and validate a config from JSON-style keys.

    Keys are the ExperimentConfig field names plus the shorthands ``c``,
    ``classes`` and ``out``; when two keys name one field, the later wins.
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
    results: tuple[QueryResult, ...]
    ledger: PrivacyLedger = field(compare=False, repr=False, default_factory=PrivacyLedger)
    runtime_seconds: float = field(compare=False, default=0.0)

    @property
    def query_count(self) -> int:
        return len(self.results)

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
    if config.mechanism == "lnmax":
        return lnmax(counts, config.gamma, rng, scale=config.scale)
    if config.mechanism == "nzc-laplace":
        return nzc_laplace(counts, config.boost_constant, config.gamma, config.beta,
                           rng, scale=config.scale)
    return nzc_gaussian(counts, config.boost_constant, config.sigma, config.beta,
                        rng, std=config.scale)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    start = time.perf_counter()
    root = RngStream(config.seed)
    counts, truths, accuracy_used = _build_counts(config, root)
    queries = len(counts)

    ledger = PrivacyLedger()
    labels = np.empty(queries, dtype=np.int64)
    sensitivities = np.empty(queries)
    for block, rows in _blocks(queries):
        batch = _run_mechanism(config, counts[rows], root.substream(_MECH, block))
        labels[rows] = batch.returned_labels
        sensitivities[rows] = batch.sensitivities
        ledger.record(*batch.ledger_entries)
    clean = argmax(counts)
    results = tuple(map(
        QueryResult, range(queries), labels.tolist(), clean.tolist(),
        [None] * queries if truths is None else truths, gap(counts).tolist(),
        sensitivities.tolist(), [e.epsilon for e in ledger.entries]))

    if truths is not None and queries:
        summary = ensemble_accuracy(counts, truths, labels)
        clean_pct, mech_pct, agree_pct = summary.clean_pct, summary.mechanism_pct, summary.agreement_pct
    elif queries:
        clean_pct = mech_pct = None
        agree_pct = 100.0 * int(np.count_nonzero(labels == clean)) / queries
    else:
        clean_pct = mech_pct = agree_pct = None

    qualified = tuple(
        (n, qualified_fraction(counts, n)) for n in config.distance_grid
    ) if queries else tuple()

    return ExperimentReport(
        config=replace(config, queries=queries, teacher_accuracy=accuracy_used),
        clean_accuracy_pct=clean_pct,
        mechanism_accuracy_pct=mech_pct,
        agreement_pct=agree_pct,
        qualified_fractions=qualified,
        privacy=ledger.figures(config.delta),
        results=results,
        ledger=ledger,
        runtime_seconds=time.perf_counter() - start,
    )


def _round12(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(format12(value))


def _summary_object(obj, summary_fields) -> dict:
    """summary.json object of (field name, key, declared base type) fields, floats rounded."""
    return {key: _round12(getattr(obj, name)) if base is float else getattr(obj, name)
            for name, key, base in summary_fields}


SUMMARY_FILE = "summary.json"
QUERIES_FILE = "queries.csv"
LEDGER_FILE = "ledger.csv"
# (field name, summary.json key, declared base type) of each config field in the summary
_SUMMARY_FIELDS = tuple(
    (f.name, f.metadata.get("summary", f.name), _CONFIG_TYPES[f.name][0])
    for f in fields(ExperimentConfig) if f.metadata.get("summary", f.name) is not None
)
# (field name, key, declared base type) of each PrivacyFigure field in the privacy list
_FIGURE_TYPES = field_types(PrivacyFigure)
_FIGURE_FIELDS = tuple((f, f, base) for f, (base, _) in _FIGURE_TYPES.items())
# ExperimentReport figures at the top level of summary.json, with their declared types
_ACCURACY_TYPES = {key: declared for key, declared in field_types(ExperimentReport).items()
                   if key in ("clean_accuracy_pct", "mechanism_accuracy_pct", "agreement_pct")}
# declared type of the fraction in each (n, fraction) pair of ExperimentReport.qualified_fractions
_FRACTION_TYPE = (float, False)


def emit_report(report: ExperimentReport, out_dir) -> dict[str, Path]:
    """Write summary.json, queries.csv and ledger.csv; byte-stable for a given report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary = _summary_object(report.config, _SUMMARY_FIELDS)
    summary.update({key: _round12(getattr(report, key)) for key in _ACCURACY_TYPES})
    summary["qualified_fractions"] = [
        {"n": n, "fraction": _round12(frac)} for n, frac in report.qualified_fractions
    ]
    summary["privacy"] = [_summary_object(f, _FIGURE_FIELDS) for f in report.privacy]
    summary_path = out / SUMMARY_FILE
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    queries_path = out / QUERIES_FILE
    columns = [list(map(attrgetter(name), report.results)) for name in _QUERY_TYPES]
    queries_path.write_text(format_table(_QUERY_TYPES, columns), encoding="utf-8")

    ledger_path = out / LEDGER_FILE
    report.ledger.export(ledger_path)
    return {"summary": summary_path, "queries": queries_path, "ledger": ledger_path}


def read_report(out_dir) -> ExperimentReport:
    """Parse a report directory back into an ExperimentReport (runtime and out_dir are not stored)."""
    out = Path(out_dir)
    try:
        summary = json.loads((out / SUMMARY_FILE).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{out / SUMMARY_FILE}: not valid JSON: {exc}") from None

    results = read_table(out / QUERIES_FILE, _QUERY_TYPES, PRIVACY_CHECKS, QueryResult)
    try:
        qualified = tuple((e["n"], e["fraction"]) for e in summary["qualified_fractions"])
        values = {name: summary[key] for name, key, _ in _SUMMARY_FIELDS}
        figures = {key: summary[key] for key in _ACCURACY_TYPES}
        privacy = tuple(PrivacyFigure(**figure) for figure in summary["privacy"])
    except KeyError as exc:
        raise ValueError(f"{out / SUMMARY_FILE}: missing key {exc.args[0]!r}") from None
    except TypeError:  # valid JSON of another shape, e.g. a list or "privacy": null
        raise ValueError(f"{out / SUMMARY_FILE}: expected an object with a qualified_fractions "
                         f"list of {{n, fraction}} objects and a privacy list of "
                         f"{{accounting, definition, eps, delta}} objects") from None
    where = f"{out / SUMMARY_FILE}:"
    for key, declared in _ACCURACY_TYPES.items():
        check_type(where, key, figures[key], declared)
    for _, fraction in qualified:
        check_type(where, "qualified fraction", fraction, _FRACTION_TYPE)
    for figure in privacy:
        for name, declared in _FIGURE_TYPES.items():
            check_type(f"{where} privacy", name, getattr(figure, name), declared, PRIVACY_CHECKS)
    if qualified:
        values["distance_grid"] = tuple(n for n, _ in qualified)
    return ExperimentReport(
        config=config_from_dict(values, str(out / SUMMARY_FILE)),
        qualified_fractions=qualified,
        privacy=privacy,
        results=tuple(results),
        ledger=PrivacyLedger.load(out / LEDGER_FILE),
        **figures,
    )
