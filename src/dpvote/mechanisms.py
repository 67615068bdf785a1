"""Randomized vote aggregators and the Monte-Carlo oracles that check them.

Every mechanism is a pure function of (inputs, noise stream) and answers one
histogram or a whole (queries, classes) count matrix through one batched
kernel: a histogram is a batch of one.  A batch draws its noise from its
stream in consecutive cache-sized chunks of rows, which give the values of one
(queries, classes) draw, so the answer to a query depends only on the stream
and its row position, not on the rows after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .accountant import NOISE_KIND
from .noise import (_FEW_CLASSES, MonteCarloEstimate, NoiseSpec, RngLike, ensure_generator,
                    noise_blocks, row_chunks)
from .sensitivity import (enumerate_neighbors, smooth_from_moves, smooth_sensitivity,
                          top_two_flip_moves)
from .votes import VoteHistogram, Votes, argmax, boost, count_matrix, top_two

__all__ = [
    "MechanismBatch",
    "DpRatioResult",
    "noise_parameters",
    "noisy_argmax",
    "lnmax",
    "nzc_laplace",
    "nzc_gaussian",
    "flip_probability_mc",
    "dp_ratio_check",
]


@dataclass(frozen=True, eq=False)
class MechanismBatch:
    """What a mechanism returned for each query, and what each answer is charged at; a histogram
    is one row."""

    returned_labels: np.ndarray  # (queries,) int64
    sensitivities: np.ndarray  # (queries,) float64
    parameters: np.ndarray  # (queries,) float64: each row's gamma or sigma


def noisy_argmax(values, noise):
    """Lowest-index argmax of values + noise; the deterministic core of every mechanism.

    An int for vectors; one label per row for (rows, classes) matrices.
    """
    values = np.asarray(values, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if values.shape != noise.shape:
        raise ValueError(f"shape mismatch: values {values.shape} vs noise {noise.shape}")
    labels = np.argmax(values + noise, axis=-1)
    return int(labels) if labels.ndim == 0 else labels


def noise_parameters(mechanism: str, sens: np.ndarray, param: Optional[float],
                     scale: Optional[float]) -> np.ndarray:
    """The gamma (Laplace) or sigma (Gaussian) that each row of ``sens`` is charged.

    That is ``param``, or, as experiments sometimes pin the noise magnitude with ``scale``
    instead, the effective parameter it implies: sens / scale (Laplace) or scale / sens
    (Gaussian), so accounting stays consistent either way.  Exactly one of the two is given
    and it must be positive; so must every parameter, which must also be finite.
    """
    kind = NOISE_KIND[mechanism]
    if (param is None) == (scale is None):
        raise ValueError(f"{mechanism}: pass exactly one of {kind.param} or scale")
    name, given = (kind.param, param) if param is not None else ("scale", scale)
    if not given > 0.0:
        raise ValueError(f"{mechanism}: {name} must be positive, got {given!r}")
    if param is not None:
        if param == np.inf:  # an infinite gamma or sigma would draw at scale 0 or inf
            raise ValueError(f"{mechanism}: {name} must be a finite number, got {param!r}")
        return np.full_like(sens, param)
    with np.errstate(over="ignore"):
        params = kind.implied(sens, scale)
    bad = np.flatnonzero(~((params > 0.0) & (params < np.inf)))
    if bad.size:
        raise ValueError(f"{mechanism}: scale {scale!r} at sensitivity {float(sens[bad[0]])!r} "
                         f"gives {kind.param} {float(params[bad[0]])!r}; "
                         f"it must be finite and positive")
    return params


def _release(mechanism: str, counts: np.ndarray, sens: np.ndarray, param: Optional[float],
             scale: Optional[float], rng: RngLike, boosted=None) -> MechanismBatch:
    """Noisy argmax of each row of ``counts`` with the mechanism's NOISE_KIND calibrated to that
    row's ``sens``: Laplace of scale sens / gamma or Gaussian of std sens * sigma.

    ``boosted`` is (boost constant, each row's winner) for the nzc mechanisms, None for lnmax.
    One ``row_chunks`` chunk at a time, the counts are boosted and the noise is drawn, added
    and reduced: ``noise_blocks`` draws each chunk, at that chunk's slice of a per-row
    sensitivity column, and one ``noisy_argmax`` call reduces it.  So no temporary is as large
    as the block, and the draws are those of one (rows, classes) array.  A block whose rows
    share one sensitivity draws at that scalar scale, which gives the same values as the column
    of it.  The rows' charges are the caller's to record.
    """
    params = noise_parameters(mechanism, sens, param, scale)
    kind = NOISE_KIND[mechanism]
    at = float(sens[0]) if len(sens) and sens.min() == sens.max() else sens[:, None]
    # with ``scale`` pinned, a unit parameter and sensitivity = scale draw at exactly scale
    spec = NoiseSpec(kind.name, sensitivity=at if scale is None else scale,
                     **{kind.param: param if scale is None else 1.0})
    labels = np.empty(len(counts), dtype=np.int64)
    chunks = row_chunks(*counts.shape)
    for chunk, noise in zip(chunks, noise_blocks(spec, counts.shape[1], len(counts), rng)):
        values = counts[chunk]
        if boosted is not None:
            values = boost(values, boosted[0], winners=boosted[1][chunk])
        labels[chunk] = noisy_argmax(values, noise)
    return MechanismBatch(labels, sens, params)


def lnmax(votes: Votes, gamma: Optional[float], rng: RngLike, *,
          scale: Optional[float] = None) -> MechanismBatch:
    """Baseline noisy argmax: Laplace(1 / gamma) added to the raw counts.

    The sensitivity is 1: one teacher changing its vote moves each count by at most 1.
    The int counts go to the kernel as they are: only a chunk at a time is cast to float64.
    """
    counts = count_matrix(votes)
    return _release("lnmax", counts, np.ones(len(counts)), gamma, scale, rng)


def _boosted(mechanism: str, votes: Votes, boost_constant: float, param: Optional[float],
             beta: float, rng: RngLike, scale: Optional[float]) -> MechanismBatch:
    """An nzc mechanism, from one check of the count matrix and one ``top_two`` pass: its
    winners are boosted and its k* gives each row's smooth sensitivity."""
    counts = count_matrix(votes)
    winners, runners, gaps = top_two(counts)
    sens = smooth_from_moves(top_two_flip_moves(winners, runners, gaps), boost_constant, beta)
    return _release(mechanism, counts, sens, param, scale, rng, (boost_constant, winners))


def nzc_laplace(votes: Votes, boost_constant: float, gamma: Optional[float], beta: float,
                rng: RngLike, *, scale: Optional[float] = None) -> MechanismBatch:
    """Boosted noisy argmax with Laplace noise scaled to the smooth sensitivity."""
    return _boosted("nzc-laplace", votes, boost_constant, gamma, beta, rng, scale)


def nzc_gaussian(votes: Votes, boost_constant: float, sigma: Optional[float], beta: float,
                 rng: RngLike, *, scale: Optional[float] = None) -> MechanismBatch:
    """Boosted noisy argmax with Gaussian noise of std = smooth sensitivity * sigma."""
    return _boosted("nzc-gaussian", votes, boost_constant, sigma, beta, rng, scale)


def _label_counts(boosted: np.ndarray, spec: NoiseSpec, trials: int, rng: RngLike) -> np.ndarray:
    """How often each label is the noisy argmax of ``boosted`` in ``trials`` draws of ``spec``.

    Each ``noise_blocks`` block is screened first: when ``b_w + noise.min() > b_r +
    noise.max()``, with w the lowest-index argmax of ``boosted`` and b_r its largest other
    entry, every row of the block goes to w unreduced.  The screen is exact, not a bound:
    ``fl(b + x)`` is monotone in b and in x, so in every row ``fl(b_w + x_w)`` is at least
    the left side and each other ``fl(b_j + x_j)`` at most the right side.  Rounding can
    make the two sides equal, which the strict test refuses, but never reverse them; a NaN
    or infinite draw fails it.  On the bench's flip call (10 classes, tau 1e-9) 1205 of 1240
    blocks pass over 20 op seeds; no block of its ``dp_ratio_check`` does.  A block that
    fails is counted by ``_argmax_counts``.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    winner = int(np.argmax(boosted))
    runner_up = np.max(np.delete(boosted, winner), initial=-np.inf)
    counts = np.zeros(boosted.size, dtype=np.int64)
    for noise in noise_blocks(spec, boosted.size, trials, rng):
        if boosted[winner] + noise.min() > runner_up + noise.max():
            counts[winner] += len(noise)
        else:
            counts += _argmax_counts(noise, boosted)
    return counts


def _argmax_counts(noise: np.ndarray, boosted: np.ndarray) -> np.ndarray:
    """``np.bincount(np.argmax(noise + boosted, axis=1), minlength=classes)``; ``noise`` may
    be overwritten.

    A block of ``_FEW_CLASSES`` classes or more is reduced just so.  A narrower one is counted
    in class-major passes, which vectorize where a per-row ``argmax`` over a few values does
    not: the sums are written transposed, each row's max is the ``np.maximum`` of its
    classes, and each class counts the rows that it is the first to match.  A row holding a
    NaN has a NaN max and matches no class, so the rows left over go through ``argmax``,
    which gives each its first NaN.  The transposed sums are a second block-sized array: a
    10^5-trial ``dp_ratio_check`` peaks at 0.32 MB, up from 0.27 MB.
    """
    num_classes = boosted.size
    if num_classes >= _FEW_CLASSES:
        noise += boosted
        return np.bincount(np.argmax(noise, axis=1), minlength=num_classes)
    sums = np.empty(noise.shape[::-1])
    np.add(noise.T, boosted[:, None], out=sums)  # one contiguous row of sums per class
    top = np.maximum(sums[0], sums[-1])
    for column in sums[1:-1]:
        np.maximum(top, column, out=top)
    counts = np.empty(num_classes, dtype=np.int64)
    free = np.ones(len(top), dtype=bool)
    hit = np.empty_like(free)
    for label, column in enumerate(sums):
        np.equal(column, top, out=hit)
        hit &= free
        free ^= hit
        counts[label] = np.count_nonzero(hit)
    if free.any():
        counts += np.bincount(np.argmax(sums[:, free], axis=0), minlength=num_classes)
    return counts


def flip_probability_mc(
    votes: VoteHistogram,
    boost_constant: float,
    spec: NoiseSpec,
    trials: int,
    rng: RngLike,
) -> MonteCarloEstimate:
    """Fraction of noisy-argmax trials on the boosted counts that disagree with the plain argmax.

    The trials are counted by ``_label_counts``: a block whose noise spread is less than the
    boosted winner's lead, as it tests that in float arithmetic, goes to the winner whole, so
    nearly every block at a flip-safe constant costs its draw, a min and a max.
    """
    counts = _label_counts(boost(votes, boost_constant), spec, trials, rng)
    return MonteCarloEstimate.from_hits(trials - int(counts[argmax(votes)]), trials)


@dataclass(frozen=True)
class DpRatioResult:
    """Worst empirical log-probability ratio between a histogram and its neighbors."""

    max_log_ratio: float
    neighbor_log_ratios: tuple[float, ...]  # aligned with enumerate_neighbors order; [0] is the input itself
    trials: int
    noise_scale: float


def dp_ratio_check(
    votes: VoteHistogram,
    boost_constant: float,
    gamma: float,
    beta: float,
    trials: int,
    rng: RngLike,
    *,
    sensitivity: Optional[float] = None,
) -> DpRatioResult:
    """Estimate max |ln Pr[M(D)=y] - ln Pr[M(D')=y]| over all neighbors and labels.

    The noise scale is held fixed across the compared histograms (by default
    the smooth sensitivity of the input over gamma), so the check exercises
    the calibration guarantee: when that sensitivity really bounds the
    per-coordinate difference to every neighbor, the ratio stays under
    2*gamma plus sampling slack.  Pass a deliberately small ``sensitivity``
    to build a negative control.  Meant for tiny instances; the cost is
    (number of neighbors) * trials mechanism draws.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    sens_value = smooth_sensitivity(votes, boost_constant, beta).value if sensitivity is None else float(sensitivity)
    spec = NoiseSpec("laplace", gamma=gamma, sensitivity=sens_value)
    gen = ensure_generator(rng)
    neighbors = enumerate_neighbors(votes)
    # add-one smoothing keeps ratios finite when a label never shows up
    distributions = [(_label_counts(boost(h, boost_constant), spec, trials, gen) + 1.0)
                     / (trials + h.num_classes) for h in neighbors]
    center = distributions[0]
    ratios = tuple(float(np.max(np.abs(np.log(center) - np.log(dist)))) for dist in distributions)
    return DpRatioResult(
        max_log_ratio=max(ratios),
        neighbor_log_ratios=ratios,
        trials=trials,
        noise_scale=spec.scale,
    )
