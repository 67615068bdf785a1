"""Sensitivity of the boosted voting transform, with exhaustive neighbor oracles.

A neighboring vote histogram is one where a single teacher's vote moved from
one bin to another (or nothing changed at all).  Sensitivity is measured per
coordinate: the largest absolute difference between the boosted count vectors
of a histogram and any of its neighbors.

The sensitivity follows from one number per histogram, the fewest vote moves
that change the lowest-index argmax (``flip_moves``, k*), computed for a whole
count matrix at once: the local sensitivity is 1 + c when k* is 1, else 1.  The
exhaustive neighbor scans remain only as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .votes import VoteHistogram, Votes, boost, check_boost_constant, count_matrix, top_two

__all__ = [
    "SensitivityEstimate",
    "flip_moves",
    "top_two_flip_moves",
    "smooth_from_moves",
    "smooth_sensitivity",
    "enumerate_neighbors",
    "brute_force_local",
    "brute_force_smooth",
]


@dataclass(frozen=True)
class SensitivityEstimate:
    """A smooth sensitivity and the beta it was discounted at."""

    value: float
    beta: float


def _neighbor_rows(counts: np.ndarray) -> np.ndarray:
    """All histograms one vote move away, with the input itself as row 0."""
    n = counts.size
    rows = [counts]
    for src in range(n):
        if counts[src] == 0:
            continue
        for dst in range(n):
            if dst == src:
                continue
            moved = counts.copy()
            moved[src] -= 1
            moved[dst] += 1
            rows.append(moved)
    return np.stack(rows)


def flip_moves(votes: Votes) -> np.ndarray:
    """k*: the fewest single-vote moves that change the lowest-index argmax, per count row.

    With winner w holding a votes and a rival j holding b_j, each move from w
    to j narrows the margin m_j = a - b_j by two.  A rival before w wins a tie
    and needs ceil(m_j / 2) moves; a rival after w must pass the winner and
    needs floor(m_j / 2) + 1.  The minimum over the rivals is the runner-up's,
    so k* comes from one ``votes.top_two`` pass (``top_two_flip_moves``).
    """
    return top_two_flip_moves(*top_two(count_matrix(votes)))


def top_two_flip_moves(winners, runners, gaps) -> np.ndarray:
    """k* of each row from its ``votes.top_two`` columns.

    A runner-up at top-two gap g has the smallest margin, so it needs the fewest moves:
    ceil(g/2) when it comes before the winner, floor(g/2) + 1 when it comes after.  That is
    the minimum over the rivals.  A rival tied with it comes after it, so it comes before the
    winner only when the runner-up does too; a rival at margin g + 1 or more needs at least
    ceil((g + 1)/2) = floor(g/2) + 1 moves.  ``gaps`` may be of any integer dtype, object
    included.
    """
    gaps = np.asarray(gaps)
    return np.where(runners < winners, (gaps + 1) // 2, gaps // 2 + 1)


def _discount(beta: float) -> float:
    """The discount e^-beta; a one-line error unless beta is positive and e^-beta is not 0."""
    b = float(beta)
    if not b > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    discount = math.exp(-b)
    if discount == 0.0:
        raise ValueError(f"beta {beta!r} is too large: e^-beta underflows to 0, "
                         "which leaves no sensitivity to scale the noise to")
    return discount


def smooth_from_moves(moves, boost_constant: float, beta: float) -> np.ndarray:
    """The smooth sensitivity at each k* in ``moves``, one of the only two: (1 + c) * e^-beta
    near a flip (k* <= 2), else e^-beta."""
    c = check_boost_constant(boost_constant)
    discount = _discount(beta)
    return np.where(np.asarray(moves) <= 2, (1.0 + c) * discount, discount)


def smooth_sensitivity(votes: VoteHistogram, boost_constant: float, beta: float) -> SensitivityEstimate:
    """Exponentially discounted worst local sensitivity over the radius-1 neighborhood.

    e^-beta when no histogram within one vote move of the input can itself be
    flipped by a further move, else (1 + c) * e^-beta.  A flip two moves away
    is exactly ``flip_moves`` <= 2.
    """
    value = float(smooth_from_moves(flip_moves(votes), boost_constant, beta)[0])
    return SensitivityEstimate(value, float(beta))


def enumerate_neighbors(votes: VoteHistogram) -> list[VoteHistogram]:
    """Every histogram reachable by moving one vote, plus the input itself."""
    return [VoteHistogram(row) for row in _neighbor_rows(votes.as_array())]


def _brute_local(counts: np.ndarray, boost_constant: float) -> float:
    boosted = boost(_neighbor_rows(counts), boost_constant)
    return float(np.max(np.abs(boosted - boosted[0])))


def brute_force_local(votes: VoteHistogram, boost_constant: float) -> float:
    """Oracle for the local sensitivity: exhaustive scan of the boosted neighbors.

    Intended for small instances (teacher counts up to a few hundred are fine;
    cost grows with the square of the class count).
    """
    return _brute_local(votes.as_array(), boost_constant)


def brute_force_smooth(votes: VoteHistogram, boost_constant: float, beta: float) -> float:
    """Oracle for ``smooth_sensitivity``: exhaustive radius-1 scan of local oracles."""
    discount = _discount(beta)
    worst = max(_brute_local(row, boost_constant) for row in _neighbor_rows(votes.as_array()))
    return worst * discount
