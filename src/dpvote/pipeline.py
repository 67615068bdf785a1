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
import math
import numbers
import time
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import accountant
from .accountant import PrivacyLedger, classical_gaussian_epsilon
from .ensemble import (
    SyntheticTeacherSpec,
    default_accuracy,
    ensemble_accuracy,
    load_predictions,
    qualified_fraction,
    synth_votes,
)
from .mechanisms import NOISE_KIND, lnmax, nzc_gaussian, nzc_laplace
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
        for name in _CONFIG_TYPES:
            _check_type(name, getattr(self, name))
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


def _field_types(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (base type, whether None is allowed), read from the annotations."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        optional = len(args) < len(typing.get_args(hint))
        out[f.name] = (args[0] if optional else typing.get_origin(hint) or hint, optional)
    return out


_CONFIG_TYPES = _field_types(ExperimentConfig)
_QUERY_TYPES = _field_types(QueryResult)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# declared base type -> (what the error message asks for, check)
_TYPE_CHECKS = {
    int: ("an integer", _is_int),
    float: ("a finite number", _is_finite),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
}


def _check_type(name: str, value) -> None:
    """Raise a one-line ValueError unless ``value`` fits the declared type of config field ``name``."""
    base, optional = _CONFIG_TYPES[name]
    wanted, fits = _TYPE_CHECKS[base]
    if not (optional if value is None else fits(value)):
        raise ValueError(f"config field {name} must be {wanted}{' or null' if optional else ''}, "
                         f"got {value!r}")


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
    config.validate()
    return config


@dataclass
class ExperimentReport:
    config: ExperimentConfig  # as resolved by the run; see ExperimentConfig
    clean_accuracy_pct: Optional[float]
    mechanism_accuracy_pct: Optional[float]
    agreement_pct: Optional[float]
    qualified_fractions: tuple[tuple[int, float], ...]
    eps_moments: Optional[float]
    eps_simple: Optional[float]
    eps_advanced: Optional[float]
    gaussian_epsilon_per_query: Optional[float]
    gaussian_epsilon_total: Optional[float]
    results: tuple[QueryResult, ...]
    ledger: PrivacyLedger = field(compare=False, repr=False, default_factory=PrivacyLedger)
    runtime_seconds: float = field(compare=False, default=0.0)

    @property
    def query_count(self) -> int:
        return len(self.results)


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

    laplace_run = NOISE_KIND[config.mechanism] == "laplace"
    if not queries:
        eps_moments = eps_simple = eps_advanced = 0.0 if laplace_run else None
        gauss_q = gauss_total = None
    elif laplace_run:
        eps_moments = ledger.eps_for_delta(config.delta)
        eps_simple = ledger.simple_epsilon()
        worst_gamma = max(e.gamma for e in ledger.entries)
        eps_advanced = accountant.advanced_composition(queries, worst_gamma, config.delta)
        gauss_q = gauss_total = None
    else:
        eps_moments = eps_simple = eps_advanced = None
        worst_sigma = min(e.sigma for e in ledger.entries)
        gauss_q = classical_gaussian_epsilon(worst_sigma, config.delta / queries)
        gauss_total = gauss_q * queries if gauss_q is not None else None

    return ExperimentReport(
        config=replace(config, queries=queries, teacher_accuracy=accuracy_used),
        clean_accuracy_pct=clean_pct,
        mechanism_accuracy_pct=mech_pct,
        agreement_pct=agree_pct,
        qualified_fractions=qualified,
        eps_moments=eps_moments,
        eps_simple=eps_simple,
        eps_advanced=eps_advanced,
        gaussian_epsilon_per_query=gauss_q,
        gaussian_epsilon_total=gauss_total,
        results=results,
        ledger=ledger,
        runtime_seconds=time.perf_counter() - start,
    )


def _round12(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    return float(f"{float(value):.12g}")


def _fmt12(value, base: type) -> str:
    if value is None:
        return ""
    if base is float:
        return f"{float(value):.12g}"
    return str(value)


SUMMARY_FILE = "summary.json"
QUERIES_FILE = "queries.csv"
LEDGER_FILE = "ledger.csv"
# (field name, summary.json key, declared base type) of each config field in the summary
_SUMMARY_FIELDS = tuple(
    (f.name, f.metadata.get("summary", f.name), _CONFIG_TYPES[f.name][0])
    for f in fields(ExperimentConfig) if f.metadata.get("summary", f.name) is not None
)
# ExperimentReport figures in summary.json: top-level, then inside "privacy"
_ACCURACY_KEYS = ("clean_accuracy_pct", "mechanism_accuracy_pct", "agreement_pct")
_PRIVACY_KEYS = ("eps_moments", "eps_simple", "eps_advanced",
                 "gaussian_epsilon_per_query", "gaussian_epsilon_total")
_QUERY_HEADER = ",".join(_QUERY_TYPES)
_query_row = attrgetter(*_QUERY_TYPES)


def emit_report(report: ExperimentReport, out_dir) -> dict[str, Path]:
    """Write summary.json, queries.csv and ledger.csv; byte-stable for a given report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary = {}
    for name, key, base in _SUMMARY_FIELDS:
        value = getattr(report.config, name)
        summary[key] = _round12(value) if base is float else value
    summary.update({key: _round12(getattr(report, key)) for key in _ACCURACY_KEYS})
    summary["qualified_fractions"] = [
        {"n": n, "fraction": _round12(frac)} for n, frac in report.qualified_fractions
    ]
    summary["privacy"] = {key: _round12(getattr(report, key)) for key in _PRIVACY_KEYS}
    summary_path = out / SUMMARY_FILE
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    bases = [base for base, _ in _QUERY_TYPES.values()]
    lines = [_QUERY_HEADER]
    for r in report.results:
        lines.append(",".join(_fmt12(v, base) for v, base in zip(_query_row(r), bases)))
    queries_path = out / QUERIES_FILE
    queries_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    ledger_path = out / LEDGER_FILE
    report.ledger.export(ledger_path)
    return {"summary": summary_path, "queries": queries_path, "ledger": ledger_path}


def _parse_cell(cell: str, column: tuple[str, tuple[type, bool]]):
    """One queries.csv cell as its column's declared type; an empty optional cell is None."""
    name, (base, optional) = column
    if optional and not cell:
        return None
    try:
        return base(cell)
    except ValueError:
        raise ValueError(f"{name} must be {_TYPE_CHECKS[base][0]}, got {cell!r}") from None


def read_report(out_dir) -> ExperimentReport:
    """Parse a report directory back into an ExperimentReport (runtime and out_dir are not stored)."""
    out = Path(out_dir)
    try:
        summary = json.loads((out / SUMMARY_FILE).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{out / SUMMARY_FILE}: not valid JSON: {exc}") from None

    results = []
    lines = (out / QUERIES_FILE).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _QUERY_HEADER:
        raise ValueError(f"{out / QUERIES_FILE}: unrecognized header")
    columns = list(_QUERY_TYPES.items())
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(cells)}")
            results.append(QueryResult(*map(_parse_cell, cells, columns)))
        except ValueError as exc:
            raise ValueError(f"{out / QUERIES_FILE}:{lineno}: {exc}") from None

    try:
        qualified = tuple((e["n"], e["fraction"]) for e in summary["qualified_fractions"])
        values = {name: summary[key] for name, key, _ in _SUMMARY_FIELDS}
        figures = {key: summary[key] for key in _ACCURACY_KEYS}
        figures.update((key, summary["privacy"][key]) for key in _PRIVACY_KEYS)
    except KeyError as exc:
        raise ValueError(f"{out / SUMMARY_FILE}: missing key {exc.args[0]!r}") from None
    except TypeError:  # valid JSON of another shape, e.g. a list or "privacy": null
        raise ValueError(f"{out / SUMMARY_FILE}: expected an object with a qualified_fractions "
                         f"list of {{n, fraction}} objects and a privacy object") from None
    if qualified:
        values["distance_grid"] = tuple(n for n, _ in qualified)
    return ExperimentReport(
        config=config_from_dict(values, str(out / SUMMARY_FILE)),
        qualified_fractions=qualified,
        results=tuple(results),
        ledger=PrivacyLedger.load(out / LEDGER_FILE),
        **figures,
    )
