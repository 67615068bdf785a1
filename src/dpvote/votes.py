"""Vote histograms and the boosted count vector fed to the noisy-argmax mechanisms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "VoteHistogram",
    "argmax",
    "gap",
    "is_distance_n",
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
            normalized.append(ic)
        if len(normalized) < 2:
            raise ValueError("a vote histogram needs at least two classes")
        if sum(normalized) < 1:
            raise ValueError("a vote histogram needs at least one vote")
        object.__setattr__(self, "counts", tuple(normalized))

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    @property
    def teacher_count(self) -> int:
        return sum(self.counts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)


def argmax(votes: VoteHistogram) -> int:
    """Index of the largest count; ties resolve to the lowest index."""
    return int(np.argmax(votes.as_array()))


def gap(votes: VoteHistogram) -> int:
    """Difference between the largest and second-largest counts (0 for tied maxima)."""
    part = np.partition(votes.as_array(), -2)
    return int(part[-1] - part[-2])


def is_distance_n(votes: VoteHistogram, n: int) -> bool:
    """True when the top-two gap strictly exceeds ``n``."""
    if n < 0 or int(n) != n:
        raise ValueError(f"distance threshold must be a non-negative integer, got {n!r}")
    return gap(votes) > n


def check_boost_constant(boost_constant: float) -> float:
    """The constant as a float; rejects negative and NaN values (shared with dpvote.sensitivity)."""
    c = float(boost_constant)
    if not c >= 0.0:
        raise ValueError(f"boost constant must be non-negative, got {boost_constant!r}")
    return c


def boost(votes: VoteHistogram, boost_constant: float) -> np.ndarray:
    """The counts as float64, with ``boost_constant`` added to the winning bin.

    The argmax of the result equals the argmax of the input for any
    non-negative constant.  Float64 makes arbitrarily large constants
    representable; for constants around 1e16 and beyond, adding a small
    number to the boosted bin is absorbed by rounding.  That only makes the
    argmax harder to move, and tests of flip behaviour use moderate constants
    where arithmetic is exact.
    """
    c = check_boost_constant(boost_constant)
    values = votes.as_array().astype(np.float64)
    values[argmax(votes)] += c
    return values
