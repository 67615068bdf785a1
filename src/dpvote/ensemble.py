"""Teacher-side simulation and ingestion of externally computed predictions.

Votes come out as (queries, classes) count matrices: the synthetic model
draws a whole block of queries from one stream, and a prediction table counts
any slice of its queries, such as one block, in one bincount.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .noise import RngLike, ensure_generator
from .votes import VoteHistogram

__all__ = [
    "DEFAULT_TEACHER_ACCURACY",
    "SyntheticTeacherSpec",
    "PredictionTable",
    "AccuracySummary",
    "default_accuracy",
    "synth_votes",
    "load_predictions",
    "load_ground_truth",
    "qualified_fraction",
    "ensemble_accuracy",
]

# Default per-teacher label accuracy keyed by ensemble size (digit-classification
# style benchmarks; larger ensembles mean less data per teacher).
DEFAULT_TEACHER_ACCURACY: dict[int, float] = {
    1: 0.9899,
    5: 0.9831,
    10: 0.9671,
    25: 0.9503,
    50: 0.9194,
    100: 0.9145,
    250: 0.8118,
}


def default_accuracy(teacher_count: int) -> float:
    try:
        return DEFAULT_TEACHER_ACCURACY[teacher_count]
    except KeyError:
        raise ValueError(
            f"no default per-teacher accuracy for {teacher_count} teachers; "
            f"pass one explicitly (defaults exist for {sorted(DEFAULT_TEACHER_ACCURACY)})"
        ) from None


@dataclass(frozen=True)
class SyntheticTeacherSpec:
    """Stand-in for a trained ensemble: each teacher votes the true label with
    probability ``accuracy`` and otherwise a uniformly random wrong label."""

    teacher_count: int
    num_classes: int
    accuracy: float

    def __post_init__(self) -> None:
        if self.teacher_count < 1:
            raise ValueError(f"need at least one teacher, got {self.teacher_count}")
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got {self.num_classes}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy!r}")


def synth_votes(spec: SyntheticTeacherSpec, true_label, rng: RngLike):
    """Draw vote histograms from the synthetic teacher model, one per true label.

    An int label gives one VoteHistogram; a 1-D array of labels gives a
    (labels, classes) count matrix whose rows come from ``rng`` in order, so
    the first rows do not depend on how many follow.  Each query's votes are
    one multinomial draw with the truth's probability at ``accuracy`` and the
    rest spread evenly, which is the distribution of the per-teacher model.
    """
    labels = np.asarray(true_label)
    bad = labels[(labels < 0) | (labels >= spec.num_classes)]
    if bad.size:
        raise ValueError(f"true label {bad[0]} out of range [0, {spec.num_classes})")
    pvals = np.full(labels.shape + (spec.num_classes,),
                    (1.0 - spec.accuracy) / (spec.num_classes - 1))
    np.put_along_axis(pvals, labels[..., None], spec.accuracy, axis=-1)
    counts = ensure_generator(rng).multinomial(spec.teacher_count, pvals)
    return VoteHistogram(counts) if labels.ndim == 0 else counts


PREDICTION_HEADER = "query_id,teacher_id,label"
TRUTH_HEADER = "query_id,label"


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Per-(query, teacher) predicted labels plus optional ground truth."""

    query_ids: tuple[int, ...]
    teacher_ids: tuple[int, ...]
    labels: np.ndarray  # shape (num_queries, num_teachers), int64
    num_classes: int
    truth: Optional[dict[int, int]] = None

    def counts(self, rows: slice) -> np.ndarray:
        """(queries, classes) vote counts of the queries ``rows`` slices, from one bincount."""
        labels, classes = self.labels[rows], self.num_classes
        queries = len(labels)
        # in Python ints, before any numpy call: the offsets, and classes itself, are int64
        if max(queries, 1) * classes >= 2**63:
            raise ValueError(f"{queries} queries x {classes} classes make a count matrix beyond "
                             f"the int64 range")
        offsets = labels + classes * np.arange(queries)[:, None]
        return np.bincount(offsets.ravel(), minlength=queries * classes).reshape(queries, classes)

    def histograms(self) -> list[VoteHistogram]:
        return [VoteHistogram(row) for row in self.counts(slice(None))]

    def truth_labels(self) -> Optional[list[int]]:
        if self.truth is None:
            return None
        missing = [q for q in self.query_ids if q not in self.truth]
        if missing:
            raise ValueError(f"ground truth missing for query ids {missing[:5]}")
        return [self.truth[q] for q in self.query_ids]


def _loadtxt(rows, **kwargs) -> np.ndarray:
    """``rows`` (a list of lines or a file path) as int64 columns; a cell that parses
    only as a float raises ValueError.

    numpy 1.23 deprecated reading such a cell (``1.5``, ``1e3``, or an integer
    beyond int64) through a float; releases that still do so only warn, and
    the warning is raised here as the error later releases give.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(rows, dtype=np.int64, delimiter=",", comments=None, ndmin=2,
                              encoding="utf-8", **kwargs)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def _loads(rows: list[str], width: int, **kwargs) -> bool:
    """Whether ``rows`` load as ``width`` int64 columns."""
    try:
        return _loadtxt(rows, **kwargs).shape[1] == width
    except ValueError:
        return False


# a plain file holds only printable ASCII, tab and the line ends that numpy and
# str.splitlines both break at; any other byte is a line break or a cell to only one
# of them.  These are the ASCII bytes it may not hold, each found by one memchr.
_NOT_PLAIN = [bytes([b]) for b in (*range(0x20), 0x7F) if b not in b"\t\n\r"]
_DATA = re.compile(rb"[^ \t\n\r]")  # a byte that is not blank in a plain file


def _read_int_csv(path: Path, header: str) -> tuple[np.ndarray, Callable[[int], int]]:
    """The cells of a CSV of integers under ``header``, and a map from row to file line.

    Whitespace-only lines are skipped, and a byte that is not UTF-8 reads as U+FFFD.  A
    cell is a base-10 integer in int64 with an optional sign and surrounding spaces;
    ``#`` starts no comment.  The whole file is one ``np.loadtxt`` pass, by one of two routes:

    - a plain file (its first line is exactly ``header`` and a newline, a data
      row follows, and every byte is printable ASCII, tab, LF or CR) is handed to
      numpy by path, which it parses in C chunks.  The file is read twice: once
      here for that check, which copies none of it, and once by numpy, after the
      bytes read here are let go.  On these bytes numpy breaks lines where
      ``str.splitlines`` does and skips what it skips, or refuses the file;
    - any other file, and a plain one that numpy refuses or reads at another
      width, is decoded and split into lines, and its non-blank lines are loaded.

    Only when that pass fails is the first bad row looked for, and its one-line
    error names the file line.
    """
    def lineno(row: int) -> int:
        """File line of data row ``row``, from the file read again; only an error needs one."""
        lines = path.read_bytes().decode("utf-8", errors="replace").splitlines()
        return [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]

    names = header.split(",")
    raw, first = path.read_bytes(), header.encode() + b"\n"
    if (raw.startswith(first) and _DATA.search(raw, len(first)) and raw.isascii()
            and not any(byte in raw for byte in _NOT_PLAIN)):
        del raw
        try:
            cells = _loadtxt(path, skiprows=1)
            if cells.shape[1] == len(names):
                return cells, lineno
        except ValueError:
            pass
        raw = path.read_bytes()
    lines = raw.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}:1: expected header {header!r}")
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        return np.empty((0, len(names)), dtype=np.int64), lineno
    try:
        cells = _loadtxt(rows)
        if cells.shape[1] == len(names):
            return cells, lineno
    except ValueError:
        pass
    good, bad = 0, len(rows)  # bisect for the first row that does not load
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if _loads(rows[:mid], len(names)) else (good, mid)
    row, where = rows[bad - 1], f"{path}:{lineno(bad - 1)}"
    fields = row.split(",")
    if len(fields) != len(names):
        raise ValueError(f"{where}: expected {len(names)} comma-separated fields, got {len(fields)}")
    column = next(j for j in range(len(names)) if not _loads([row], 1, usecols=j))
    name, cell = names[column], fields[column]
    digits = cell.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    if digits.isascii() and digits.isdigit():
        raise ValueError(f"{where}: {name} must lie in the int64 range, got {cell!r}")
    raise ValueError(f"{where}: {name} must be an integer, got {cell!r}")


def _out_of_range(label: np.ndarray, num_classes: Optional[int]) -> np.ndarray:
    """Rows whose label is negative or, given a class count, not below it."""
    bad = label < 0 if num_classes is None else (label < 0) | (label >= num_classes)
    return np.flatnonzero(bad)


def _ids(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct values of ``column``, ascending; each entry's index into them).

    What ``np.unique(column, return_inverse=True)`` gives, from one argsort and
    the sorted copy, which becomes the ranks in place.
    """
    order = np.argsort(column)
    ranks = column[order]
    new = np.empty(len(ranks), dtype=bool)  # where the sorted values step up
    new[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=new[1:])
    ids = ranks[new]
    ranks[:1] = 0
    np.cumsum(new[1:], out=ranks[1:])  # the count of steps up to each sorted entry
    inverse = np.empty_like(order)
    inverse[order] = ranks
    return ids, inverse


def _first_repeat(keys: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, row of the first occurrence) of the first key seen before, or None."""
    unique, first = np.unique(keys, return_index=True)
    if len(unique) == len(keys):
        return None
    seen = np.zeros(len(keys), dtype=bool)
    seen[first] = True
    row = int(np.argmin(seen))
    return row, int(first[np.searchsorted(unique, keys[row])])


def load_predictions(path, num_classes: Optional[int] = None,
                     truth_path=None) -> PredictionTable:
    """Read a ``query_id,teacher_id,label`` CSV into a validated table.

    Every query must carry exactly one prediction from every teacher; labels
    must lie in [0, num_classes) when a class count is given.  Errors name
    the offending line.
    """
    path = Path(path)
    cells, lineno = _read_int_csv(path, PREDICTION_HEADER)
    if not len(cells):
        raise ValueError(f"{path}: no predictions found")
    query, teacher, label = cells.T
    bad = _out_of_range(label, num_classes)
    if bad.size:
        where, value = f"{path}:{lineno(bad[0])}", int(label[bad[0]])
        if value < 0:
            raise ValueError(f"{where}: label must be non-negative, got {value}")
        raise ValueError(f"{where}: label {value} out of range [0, {num_classes})")
    query_ids, cell = _ids(query)
    teacher_ids, tcol = _ids(teacher)
    cell *= len(teacher_ids)
    cell += tcol  # flat index into the (queries, teachers) matrix
    # as many rows as cells and every cell set is a complete table, since a cell set twice
    # leaves another unset (the labels are non-negative); an incomplete table's matrix could
    # be as long as the product of its distinct ids, so it is not made
    size = len(query_ids) * len(teacher_ids)
    complete = len(cell) == size
    if complete:
        labels = np.full(size, -1, dtype=np.int64)
        labels[cell] = label
        complete = labels.min() >= 0
    if not complete:
        repeat = _first_repeat(cell)
        if repeat:
            row, first = repeat
            raise ValueError(f"{path}:{lineno(row)}: duplicate prediction for query {query[row]}, "
                             f"teacher {teacher[row]} (first seen on line {lineno(first)})")
        absent = np.flatnonzero(np.sort(cell) != np.arange(len(cell)))
        q, t = divmod(int(absent[0]) if absent.size else len(cell), len(teacher_ids))
        raise ValueError(f"{path}: missing prediction for query {query_ids[q]}, "
                         f"teacher {teacher_ids[t]}")
    labels = labels.reshape(len(query_ids), len(teacher_ids))
    inferred = max(num_classes if num_classes is not None else int(label.max()) + 1, 2)
    truth = None
    if truth_path is not None:
        truth = load_ground_truth(truth_path, num_classes=inferred)
    return PredictionTable(query_ids=tuple(query_ids.tolist()),
                           teacher_ids=tuple(teacher_ids.tolist()),
                           labels=labels, num_classes=inferred, truth=truth)


def load_ground_truth(path, num_classes: Optional[int] = None) -> dict[int, int]:
    """Read a ``query_id,label`` CSV into a dict, validating ranges and duplicates."""
    path = Path(path)
    cells, lineno = _read_int_csv(path, TRUTH_HEADER)
    query, label = cells.T
    bad = _out_of_range(label, num_classes)
    if bad.size:
        hi = num_classes if num_classes is not None else "inf"
        raise ValueError(f"{path}:{lineno(bad[0])}: label {label[bad[0]]} out of range [0, {hi})")
    repeat = _first_repeat(query)
    if repeat:
        row, first = repeat
        raise ValueError(f"{path}:{lineno(row)}: duplicate ground truth for query {query[row]} "
                         f"(first seen on line {lineno(first)})")
    return dict(zip(query.tolist(), label.tolist()))


def qualified_fraction(gaps, n: int) -> float:
    """Fraction of queries whose top-two gap strictly exceeds ``n`` (distance-n qualified).

    ``gaps`` is a gap column, such as ``gap(counts)`` or the ``gap`` column of queries.csv.
    """
    if not len(gaps):
        raise ValueError("qualified_fraction needs at least one gap")
    if n < 0 or int(n) != n:
        raise ValueError(f"distance threshold must be a non-negative integer, got {n!r}")
    return int(np.count_nonzero(np.asarray(gaps) > n)) / len(gaps)


@dataclass(frozen=True)
class AccuracySummary:
    """Percent accuracies of the plurality vote and the mechanism output."""

    clean_pct: float
    mechanism_pct: float
    agreement_pct: float  # mechanism label == plurality label


def ensemble_accuracy(clean_labels: Sequence[int], truths: Sequence[int],
                      mechanism_labels: Sequence[int]) -> AccuracySummary:
    """Compare the noiseless plurality and the mechanism output against ground truth.

    The three label columns are aligned, one entry per query; ``clean_labels`` is
    ``argmax(counts)`` or the ``clean_label`` column of queries.csv.
    """
    clean, truths, labels = map(np.asarray, (clean_labels, truths, mechanism_labels))
    if not (len(clean) == len(truths) == len(labels)):
        raise ValueError("clean labels, truths and mechanism labels must align")
    if not len(clean):
        raise ValueError("ensemble_accuracy needs at least one query")

    def pct(hits: np.ndarray) -> float:
        return 100.0 * int(np.count_nonzero(hits)) / len(clean)

    return AccuracySummary(
        clean_pct=pct(clean == truths),
        mechanism_pct=pct(labels == truths),
        agreement_pct=pct(clean == labels),
    )
