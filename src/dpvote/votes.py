"""Vote histograms and the boosted count vector fed to the noisy-argmax mechanisms.

Every function here takes one ``VoteHistogram`` or many queries at once: a
(queries, classes) integer count matrix, or a sequence of histograms (see
``count_matrix``).  One histogram gives a Python scalar or a 1-D array; a
batch gives one entry (or row) per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .noise import row_chunks

__all__ = [
    "VoteHistogram",
    "count_matrix",
    "argmax",
    "top_two",
    "gap",
    "boost",
]


@dataclass(frozen=True)
class VoteHistogram:
    """Per-class vote counts cast by an ensemble of teachers for a single query.

    Immutable after construction; the teacher count is the sum of the counts.
    """

    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]) -> None:
        normalized = []
        for c in counts:
            ic = int(c)
            if ic != c:
                raise ValueError(f"vote counts must be integers, got {c!r}")
            if ic < 0:
                raise ValueError(f"vote counts must be non-negative, got {ic}")
            if ic > _INT64_MAX:
                raise _beyond_int64(ic)
            normalized.append(ic)
        if len(normalized) < 2:
            raise ValueError("a vote histogram needs at least two classes")
        if sum(normalized) < 1:
            raise ValueError("a vote histogram needs at least one vote")
        object.__setattr__(self, "counts", tuple(normalized))

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _beyond_int64(count) -> ValueError:
    return ValueError(f"vote counts must lie in the int64 range, got {count}")


Votes = Union[VoteHistogram, Sequence[VoteHistogram], np.ndarray]


def count_matrix(votes: Votes) -> np.ndarray:
    """The votes as a (queries, classes) int64 count matrix.

    A histogram gives one row, and a sequence of histograms (or of count
    rows) one row each.  A 2-D integer array is taken as it is.  Every row is
    checked to be a histogram: two or more classes, counts in [0, 2**63) and
    at least one vote (a nonzero count: no row sum is taken, which could wrap).
    """
    if isinstance(votes, VoteHistogram):
        return votes.as_array()[None]
    if not isinstance(votes, np.ndarray):
        votes = [getattr(h, "counts", h) for h in votes]
    counts = np.asarray(votes)
    if counts.ndim != 2 or counts.shape[1] < 2 or counts.dtype.kind not in "iu":
        raise ValueError(f"expected a (queries, classes) integer count matrix with at least "
                         f"two classes, got shape {counts.shape} of {counts.dtype}")
    if counts.size:
        if counts.dtype.kind == "u" and counts.max() > _INT64_MAX:
            raise _beyond_int64(counts.max())
        if counts.min() < 0 or not counts.any(axis=1).all():
            raise ValueError("every count row needs non-negative counts and one vote or more")
    return counts.astype(np.int64, copy=False)


def _per_query(votes: Votes, column: np.ndarray):
    """``column`` (one entry per row of ``count_matrix(votes)``) in the shape of ``votes``."""
    return column[0].item() if isinstance(votes, VoteHistogram) else column


def argmax(votes: Votes):
    """Index of the largest count; ties resolve to the lowest index."""
    return _per_query(votes, np.argmax(count_matrix(votes), axis=1))


def top_two(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(winner, runner-up, gap) of each row of a count matrix from ``count_matrix``.

    The winner w is the lowest-index argmax, the runner-up r the lowest-index
    argmax once w is masked, and the gap count(w) - count(r).  The one pass that
    serves ``gap``, ``sensitivity.flip_moves`` and the boost of the nzc mechanisms;
    ``counts`` is not checked again.  It works in ``noise.row_chunks``, so the masked
    copy is one cache-sized chunk, not the whole matrix.
    """
    winners = np.argmax(counts, axis=1)
    runners = np.empty_like(winners)
    for rows in row_chunks(*counts.shape):
        masked = counts[rows].copy()
        # below every count, so the winner is never its own runner-up
        masked[np.arange(len(masked)), winners[rows]] = -1
        np.argmax(masked, axis=1, out=runners[rows])
    rows = np.arange(len(counts))
    return winners, runners, counts[rows, winners] - counts[rows, runners]


def gap(votes: Votes):
    """Difference between the largest and second-largest counts (0 for tied maxima).

    One ``top_two`` pass over the checked count matrix gives it.
    """
    return _per_query(votes, top_two(count_matrix(votes))[2])


def check_boost_constant(boost_constant: float) -> float:
    """The constant as a float; rejects negative and NaN values (shared with dpvote.sensitivity)."""
    c = float(boost_constant)
    if not c >= 0.0:
        raise ValueError(f"boost constant must be non-negative, got {boost_constant!r}")
    return c


def boost(votes: Votes, boost_constant: float, *, winners=None) -> np.ndarray:
    """The counts as float64, with ``boost_constant`` added to the winning bin of each row.

    The argmax of the result equals the argmax of the input for any
    non-negative constant.  Float64 makes arbitrarily large constants
    representable; for constants around 1e16 and beyond, adding a small
    number to the boosted bin is absorbed by rounding.  That only makes the
    argmax harder to move, and tests of flip behaviour use moderate constants
    where arithmetic is exact.  ``winners``, each row's winner from ``top_two``,
    spares finding them again; ``votes`` is then the count matrix they came from,
    and it is not checked again.
    """
    c = check_boost_constant(boost_constant)
    counts = count_matrix(votes) if winners is None else votes
    winners = np.argmax(counts, axis=1) if winners is None else winners
    values = counts.astype(np.float64)
    values[np.arange(len(counts)), winners] += c
    return values[0] if isinstance(votes, VoteHistogram) else values
