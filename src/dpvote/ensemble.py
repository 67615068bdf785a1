"""Teacher-side simulation and ingestion of externally computed predictions.

Votes come out as (queries, classes) count matrices: the synthetic model
draws a whole block of queries from one stream, and a prediction table counts
all its queries in one bincount.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .noise import RngLike, ensure_generator
from .votes import VoteHistogram, Votes, argmax, count_matrix, is_distance_n

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

    @property
    def teacher_count(self) -> int:
        return len(self.teacher_ids)

    def counts(self) -> np.ndarray:
        """(queries, classes) vote counts in query-id order, from one offset bincount."""
        rows, classes = len(self.query_ids), self.num_classes
        offsets = self.labels + classes * np.arange(rows)[:, None]
        return np.bincount(offsets.ravel(), minlength=rows * classes).reshape(rows, classes)

    def histograms(self) -> list[VoteHistogram]:
        return [VoteHistogram(row) for row in self.counts()]

    def truth_labels(self) -> Optional[list[int]]:
        if self.truth is None:
            return None
        missing = [q for q in self.query_ids if q not in self.truth]
        if missing:
            raise ValueError(f"ground truth missing for query ids {missing[:5]}")
        return [self.truth[q] for q in self.query_ids]


def _parse_int(field: str, what: str, path, lineno: int) -> int:
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} must be an integer, got {field!r}") from None


def load_predictions(path, num_classes: Optional[int] = None,
                     truth_path=None) -> PredictionTable:
    """Read a ``query_id,teacher_id,label`` CSV into a validated table.

    Every query must carry exactly one prediction from every teacher; labels
    must lie in [0, num_classes) when a class count is given.  Errors name
    the offending line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != PREDICTION_HEADER:
        raise ValueError(f"{path}:1: expected header {PREDICTION_HEADER!r}")
    seen: dict[tuple[int, int], tuple[int, int]] = {}  # (query, teacher) -> (line number, label)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 comma-separated fields, got {len(fields)}")
        q = _parse_int(fields[0], "query_id", path, lineno)
        t = _parse_int(fields[1], "teacher_id", path, lineno)
        label = _parse_int(fields[2], "label", path, lineno)
        if label < 0:
            raise ValueError(f"{path}:{lineno}: label must be non-negative, got {label}")
        if num_classes is not None and label >= num_classes:
            raise ValueError(f"{path}:{lineno}: label {label} out of range [0, {num_classes})")
        if (q, t) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate prediction for query {q}, teacher {t} "
                             f"(first seen on line {seen[(q, t)][0]})")
        seen[(q, t)] = (lineno, label)
    if not seen:
        raise ValueError(f"{path}: no predictions found")
    query_ids = tuple(sorted({q for q, _ in seen}))
    teacher_ids = tuple(sorted({t for _, t in seen}))
    for q in query_ids:
        for t in teacher_ids:
            if (q, t) not in seen:
                raise ValueError(f"{path}: missing prediction for query {q}, teacher {t}")
    labels = np.zeros((len(query_ids), len(teacher_ids)), dtype=np.int64)
    qpos = {q: i for i, q in enumerate(query_ids)}
    tpos = {t: i for i, t in enumerate(teacher_ids)}
    for (q, t), (_, label) in seen.items():
        labels[qpos[q], tpos[t]] = label
    inferred = num_classes if num_classes is not None else int(labels.max()) + 1
    if inferred < 2:
        inferred = 2
    truth = None
    if truth_path is not None:
        truth = load_ground_truth(truth_path, num_classes=inferred)
    return PredictionTable(query_ids=query_ids, teacher_ids=teacher_ids,
                           labels=labels, num_classes=inferred, truth=truth)


def load_ground_truth(path, num_classes: Optional[int] = None) -> dict[int, int]:
    """Read a ``query_id,label`` CSV into a dict, validating ranges and duplicates."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != TRUTH_HEADER:
        raise ValueError(f"{path}:1: expected header {TRUTH_HEADER!r}")
    truth: dict[int, int] = {}
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 comma-separated fields, got {len(fields)}")
        q = _parse_int(fields[0], "query_id", path, lineno)
        label = _parse_int(fields[1], "label", path, lineno)
        if label < 0 or (num_classes is not None and label >= num_classes):
            hi = num_classes if num_classes is not None else "inf"
            raise ValueError(f"{path}:{lineno}: label {label} out of range [0, {hi})")
        if q in truth:
            raise ValueError(f"{path}:{lineno}: duplicate ground truth for query {q} "
                             f"(first seen on line {first_line[q]})")
        truth[q] = label
        first_line[q] = lineno
    return truth


def qualified_fraction(histograms: Votes, n: int) -> float:
    """Fraction of histograms whose top-two gap strictly exceeds ``n``."""
    if not len(histograms):
        raise ValueError("qualified_fraction needs at least one histogram")
    hits = int(np.count_nonzero(is_distance_n(count_matrix(histograms), n)))
    return hits / len(histograms)


@dataclass(frozen=True)
class AccuracySummary:
    """Percent accuracies of the plurality vote and the mechanism output."""

    clean_pct: float
    mechanism_pct: float
    agreement_pct: float  # mechanism label == plurality label


def ensemble_accuracy(
    histograms: Votes,
    truths: Sequence[int],
    mechanism_labels: Sequence[int],
) -> AccuracySummary:
    """Compare the noiseless plurality and the mechanism output against ground truth."""
    if not (len(histograms) == len(truths) == len(mechanism_labels)):
        raise ValueError("histograms, truths and mechanism labels must align")
    if not len(histograms):
        raise ValueError("ensemble_accuracy needs at least one query")
    clean = argmax(count_matrix(histograms))
    truths = np.asarray(truths)
    mechanism_labels = np.asarray(mechanism_labels)
    n = len(clean)

    def pct(hits: np.ndarray) -> float:
        return 100.0 * int(np.count_nonzero(hits)) / n

    return AccuracySummary(
        clean_pct=pct(clean == truths),
        mechanism_pct=pct(mechanism_labels == truths),
        agreement_pct=pct(clean == mechanism_labels),
    )
