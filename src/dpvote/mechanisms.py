"""Randomized vote aggregators and the Monte-Carlo oracles that check them.

Every mechanism is a pure function of (inputs, noise stream) and answers one
histogram or a whole (queries, classes) count matrix through one batched
kernel: a histogram is a batch of one.  A batch draws its noise as one
(queries, classes) array from its stream, so the answer to a query depends
only on the stream and its row position, not on the rows after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .accountant import NOISE_KIND, LedgerEntry
from .noise import MonteCarloEstimate, NoiseSpec, RngLike, ensure_generator, noise_blocks
from .sensitivity import SensitivityEstimate, enumerate_neighbors, smooth_sensitivity, smooth_values
from .votes import VoteHistogram, Votes, argmax, boost, count_matrix

__all__ = [
    "MechanismOutcome",
    "MechanismBatch",
    "DpRatioResult",
    "noisy_argmax",
    "lnmax",
    "nzc_laplace",
    "nzc_gaussian",
    "flip_probability_mc",
    "dp_ratio_check",
]

# noise kind -> (calibrated parameter, mechanism keyword that pins the raw scale instead)
_PARAMETERS = {"laplace": ("gamma", "scale"), "gaussian": ("sigma", "std")}


@dataclass(frozen=True)
class MechanismOutcome:
    """What one mechanism invocation returned and what it cost."""

    returned_label: int
    sensitivity_used: SensitivityEstimate
    ledger_entry: LedgerEntry


@dataclass(frozen=True, eq=False)
class MechanismBatch:
    """What a mechanism returned for each row of a count matrix, and what each answer cost.

    Rows with the same sensitivity share one (immutable) ledger entry.
    """

    returned_labels: np.ndarray  # (queries,) int64
    sensitivities: np.ndarray  # (queries,) float64
    ledger_entries: tuple[LedgerEntry, ...]


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


def _release(mechanism: str, values: np.ndarray, sens: np.ndarray, param: Optional[float],
             raw_scale: Optional[float], rng: RngLike) -> MechanismBatch:
    """Noisy argmax of each row of ``values`` with noise calibrated to that row's ``sens``.

    The noise is the mechanism's NOISE_KIND: Laplace of scale sens / gamma or
    Gaussian of std sens * sigma, where ``param`` is gamma or sigma.  Pinning
    the noise magnitude with ``raw_scale`` instead is allowed because
    experiments sometimes fix it directly; the ledger then carries the
    effective parameter it implies, so accounting stays consistent either way.
    """
    kind = NOISE_KIND[mechanism]
    param_name, scale_name = _PARAMETERS[kind]
    if (param is None) == (raw_scale is None):
        raise ValueError(f"{mechanism}: pass exactly one of {param_name} or {scale_name}")
    name, given = (param_name, param) if param is not None else (scale_name, raw_scale)
    if not given > 0.0:
        raise ValueError(f"{mechanism}: {name} must be positive, got {given!r}")
    if param is not None:
        spec = NoiseSpec(kind, sensitivity=sens[:, None], **{param_name: param})
        params = np.full_like(sens, param)
    else:
        # a unit parameter with sensitivity = raw_scale draws at exactly raw_scale
        spec = NoiseSpec(kind, sensitivity=raw_scale, **{param_name: 1.0})
        with np.errstate(over="ignore", divide="ignore"):
            params = raw_scale / sens if kind == "gaussian" else sens / raw_scale
        bad = np.flatnonzero(~((params > 0.0) & (params < np.inf)))
        if bad.size:
            raise ValueError(f"{mechanism}: {scale_name} {raw_scale!r} at sensitivity "
                             f"{float(sens[bad[0]])!r} gives {param_name} "
                             f"{float(params[bad[0]])!r}; it must be finite and positive")
    noise = spec.sample(rng, size=values.shape)
    keys = list(zip(sens.tolist(), params.tolist()))
    shared = {key: LedgerEntry(mechanism, sensitivity=key[0], **{param_name: key[1]})
              for key in set(keys)}
    return MechanismBatch(noisy_argmax(values, noise), sens, tuple(map(shared.__getitem__, keys)))


def _answer(votes: Votes, batch: MechanismBatch, kind: str, beta: float = 0.0):
    """The batch for a count matrix; its one row as a MechanismOutcome for a histogram."""
    if not isinstance(votes, VoteHistogram):
        return batch
    sens = SensitivityEstimate(kind=kind, value=float(batch.sensitivities[0]), beta=float(beta))
    return MechanismOutcome(int(batch.returned_labels[0]), sens, batch.ledger_entries[0])


def lnmax(votes: Votes, gamma: Optional[float], rng: RngLike, *, scale: Optional[float] = None):
    """Baseline noisy argmax: Laplace(1 / gamma) added to the raw counts.

    The sensitivity is 1: one teacher changing its vote moves each count by at most 1.
    """
    counts = count_matrix(votes)
    sens = np.ones(len(counts))
    return _answer(votes, _release("lnmax", counts.astype(np.float64), sens, gamma, scale, rng),
                   "global")


def nzc_laplace(votes: Votes, boost_constant: float, gamma: Optional[float], beta: float,
                rng: RngLike, *, scale: Optional[float] = None):
    """Boosted noisy argmax with Laplace noise scaled to the smooth sensitivity."""
    counts = count_matrix(votes)
    sens = smooth_values(counts, boost_constant, beta)
    batch = _release("nzc-laplace", boost(counts, boost_constant), sens, gamma, scale, rng)
    return _answer(votes, batch, "smooth", beta)


def nzc_gaussian(votes: Votes, boost_constant: float, sigma: Optional[float], beta: float,
                 rng: RngLike, *, std: Optional[float] = None):
    """Boosted noisy argmax with Gaussian noise of std = smooth sensitivity * sigma."""
    counts = count_matrix(votes)
    sens = smooth_values(counts, boost_constant, beta)
    batch = _release("nzc-gaussian", boost(counts, boost_constant), sens, sigma, std, rng)
    return _answer(votes, batch, "smooth", beta)


def flip_probability_mc(
    votes: VoteHistogram,
    boost_constant: float,
    spec: NoiseSpec,
    trials: int,
    rng: RngLike,
) -> MonteCarloEstimate:
    """Fraction of noisy-argmax trials on the boosted counts that disagree with the plain argmax."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    baseline = argmax(votes)
    boosted = boost(votes, boost_constant)
    flips = sum(int(np.count_nonzero(np.argmax(boosted + noise, axis=1) != baseline))
                for noise in noise_blocks(spec, votes.num_classes, trials, rng))
    return MonteCarloEstimate.from_hits(flips, trials)


@dataclass(frozen=True)
class DpRatioResult:
    """Worst empirical log-probability ratio between a histogram and its neighbors."""

    max_log_ratio: float
    neighbor_log_ratios: tuple[float, ...]  # aligned with enumerate_neighbors order; [0] is the input itself
    trials: int
    noise_scale: float


def _label_distribution(boosted: np.ndarray, spec: NoiseSpec, trials: int,
                        gen: np.random.Generator) -> np.ndarray:
    num_classes = boosted.size
    counts = sum(np.bincount(np.argmax(boosted + noise, axis=1), minlength=num_classes)
                 for noise in noise_blocks(spec, num_classes, trials, gen))
    # add-one smoothing keeps ratios finite when a label never shows up
    return (counts + 1.0) / (trials + num_classes)


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
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    sens_value = smooth_sensitivity(votes, boost_constant, beta).value if sensitivity is None else float(sensitivity)
    spec = NoiseSpec("laplace", gamma=gamma, sensitivity=sens_value)
    gen = ensure_generator(rng)
    neighbors = enumerate_neighbors(votes)
    distributions = [
        _label_distribution(boost(h, boost_constant), spec, trials, gen)
        for h in neighbors
    ]
    center = distributions[0]
    ratios = tuple(float(np.max(np.abs(np.log(center) - np.log(dist)))) for dist in distributions)
    return DpRatioResult(
        max_log_ratio=max(ratios),
        neighbor_log_ratios=ratios,
        trials=trials,
        noise_scale=spec.scale,
    )
