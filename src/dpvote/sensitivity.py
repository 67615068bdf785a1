"""Sensitivity of the boosted voting transform, with exhaustive neighbor oracles.

A neighboring vote histogram is one where a single teacher's vote moved from
one bin to another (or nothing changed at all).  Sensitivity is measured per
coordinate: the largest absolute difference between the boosted count vectors
of a histogram and any of its neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .votes import VoteHistogram, check_boost_constant

__all__ = [
    "SensitivityEstimate",
    "local_sensitivity",
    "smooth_sensitivity",
    "enumerate_neighbors",
    "brute_force_local",
    "brute_force_smooth",
]


@dataclass(frozen=True)
class SensitivityEstimate:
    """A sensitivity value and the kind of bound it is; the value is the one
    validated by the exhaustive neighbor oracle."""

    kind: str  # "global" | "local" | "smooth"
    value: float
    beta: float = 0.0


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


def _single_move_can_flip(counts: np.ndarray) -> bool:
    """True when some single reassigned vote changes the lowest-index argmax.

    A top-two margin above two always protects the winner.  A margin of
    exactly two still protects it when every runner-up sits at a higher
    index, because the tie created by moving one vote resolves back to the
    lowest index.
    """
    part = np.partition(counts, -2)
    margin = int(part[-1] - part[-2])
    if margin > 2:
        return False
    if margin < 2:
        return True
    top = int(np.argmax(counts))
    return bool(np.any(counts[:top] == counts[top] - 2))


def local_sensitivity(votes: VoteHistogram, boost_constant: float) -> SensitivityEstimate:
    """Largest per-coordinate change any single vote move can cause.

    1 when no move can change the winning class (the boost stays put), else
    1 + c (the boost relocates along with the moved vote).
    """
    c = check_boost_constant(boost_constant)
    value = (1.0 + c) if _single_move_can_flip(votes.as_array()) else 1.0
    return SensitivityEstimate(kind="local", value=value)


def smooth_sensitivity(votes: VoteHistogram, boost_constant: float, beta: float) -> SensitivityEstimate:
    """Exponentially discounted worst local sensitivity over the radius-1 neighborhood.

    e^-beta when no histogram within one vote move of the input can itself be
    flipped by a further move, else (1 + c) * e^-beta.
    """
    c = check_boost_constant(boost_constant)
    b = float(beta)
    if not b > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    neighborhood_flips = any(_single_move_can_flip(row) for row in _neighbor_rows(votes.as_array()))
    base = (1.0 + c) if neighborhood_flips else 1.0
    return SensitivityEstimate(kind="smooth", value=base * math.exp(-b), beta=b)


def enumerate_neighbors(votes: VoteHistogram) -> list[VoteHistogram]:
    """Every histogram reachable by moving one vote, plus the input itself."""
    return [VoteHistogram(row) for row in _neighbor_rows(votes.as_array())]


def _boost_rows(rows: np.ndarray, boost_constant: float) -> np.ndarray:
    """Boost each row at its own lowest-index argmax."""
    boosted = rows.astype(np.float64)
    winners = np.argmax(rows, axis=1)
    boosted[np.arange(rows.shape[0]), winners] += boost_constant
    return boosted


def _brute_local(counts: np.ndarray, boost_constant: float) -> float:
    boosted = _boost_rows(_neighbor_rows(counts), boost_constant)
    return float(np.max(np.abs(boosted - boosted[0])))


def brute_force_local(votes: VoteHistogram, boost_constant: float) -> float:
    """Oracle for ``local_sensitivity``: exhaustive scan of the boosted neighbors.

    Intended for small instances (teacher counts up to a few hundred are fine;
    cost grows with the square of the class count).
    """
    return _brute_local(votes.as_array(), check_boost_constant(boost_constant))


def brute_force_smooth(votes: VoteHistogram, boost_constant: float, beta: float) -> float:
    """Oracle for ``smooth_sensitivity``: exhaustive radius-1 scan of local oracles."""
    c = check_boost_constant(boost_constant)
    b = float(beta)
    if not b > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    worst = max(_brute_local(row, c) for row in _neighbor_rows(votes.as_array()))
    return worst * math.exp(-b)
