"""Randomized vote aggregators and the Monte-Carlo oracles that check them.

Every mechanism is a pure function of (inputs, noise stream): queries can run
in parallel by assigning disjoint substream indices, and the caller serializes
ledger writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .accountant import LedgerEntry
from .noise import MonteCarloEstimate, NoiseSpec, RngLike, ensure_generator, noise_blocks, sample_laplace
from .sensitivity import SensitivityEstimate, enumerate_neighbors, smooth_sensitivity
from .votes import VoteHistogram, argmax, boost

__all__ = [
    "MechanismOutcome",
    "DpRatioResult",
    "noisy_argmax",
    "lnmax",
    "nzc_laplace",
    "nzc_gaussian",
    "flip_probability_mc",
    "dp_ratio_check",
]

@dataclass(frozen=True)
class MechanismOutcome:
    """What one mechanism invocation returned and what it cost."""

    returned_label: int
    sensitivity_used: SensitivityEstimate
    ledger_entry: LedgerEntry
    noise_digest: Optional[str] = None


def noisy_argmax(values, noise) -> int:
    """Lowest-index argmax of values + noise; the deterministic core of every mechanism."""
    values = np.asarray(values, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if values.shape != noise.shape:
        raise ValueError(f"shape mismatch: values {values.shape} vs noise {noise.shape}")
    return int(np.argmax(values + noise))


def _digest(noise: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(noise).tobytes(), digest_size=8).hexdigest()


def _resolve_scale(sensitivity: float, gamma: Optional[float], scale: Optional[float], what: str):
    """Turn (gamma | raw scale) into (noise scale, effective gamma).

    The two parameterizations coexist because experiments sometimes pin the
    noise magnitude directly; the ledger always carries the effective gamma
    = sensitivity / scale so accounting stays consistent either way.
    """
    if (gamma is None) == (scale is None):
        raise ValueError(f"{what}: pass exactly one of gamma or scale")
    if gamma is not None:
        if not gamma > 0.0:
            raise ValueError(f"{what}: gamma must be positive, got {gamma!r}")
        return sensitivity / gamma, float(gamma)
    if not scale > 0.0:
        raise ValueError(f"{what}: scale must be positive, got {scale!r}")
    return float(scale), sensitivity / scale


def lnmax(
    votes: VoteHistogram,
    gamma: Optional[float],
    delta_f: float,
    rng: RngLike,
    *,
    scale: Optional[float] = None,
    digest: bool = False,
) -> MechanismOutcome:
    """Baseline noisy argmax: Laplace(delta_f / gamma) added to the raw counts."""
    if not delta_f > 0.0:
        raise ValueError(f"lnmax: delta_f must be positive, got {delta_f!r}")
    noise_scale, eff_gamma = _resolve_scale(float(delta_f), gamma, scale, "lnmax")
    noise = sample_laplace(noise_scale, rng, size=votes.num_classes)
    label = noisy_argmax(votes.as_array(), noise)
    return MechanismOutcome(
        returned_label=label,
        sensitivity_used=SensitivityEstimate(kind="global", value=float(delta_f)),
        ledger_entry=LedgerEntry("lnmax", sensitivity=float(delta_f), gamma=eff_gamma),
        noise_digest=_digest(noise) if digest else None,
    )


def nzc_laplace(
    votes: VoteHistogram,
    boost_constant: float,
    gamma: Optional[float],
    beta: float,
    rng: RngLike,
    *,
    scale: Optional[float] = None,
    digest: bool = False,
) -> MechanismOutcome:
    """Boosted noisy argmax with Laplace noise scaled to the smooth sensitivity."""
    sens = smooth_sensitivity(votes, boost_constant, beta)
    noise_scale, eff_gamma = _resolve_scale(sens.value, gamma, scale, "nzc_laplace")
    boosted = boost(votes, boost_constant)
    noise = sample_laplace(noise_scale, rng, size=votes.num_classes)
    label = noisy_argmax(boosted.as_array(), noise)
    return MechanismOutcome(
        returned_label=label,
        sensitivity_used=sens,
        ledger_entry=LedgerEntry("nzc-laplace", sensitivity=sens.value, gamma=eff_gamma),
        noise_digest=_digest(noise) if digest else None,
    )


def nzc_gaussian(
    votes: VoteHistogram,
    boost_constant: float,
    sigma: Optional[float],
    beta: float,
    rng: RngLike,
    *,
    std: Optional[float] = None,
    digest: bool = False,
) -> MechanismOutcome:
    """Boosted noisy argmax with Gaussian noise of std = smooth sensitivity * sigma."""
    sens = smooth_sensitivity(votes, boost_constant, beta)
    if (sigma is None) == (std is None):
        raise ValueError("nzc_gaussian: pass exactly one of sigma or std")
    if sigma is not None:
        if not sigma > 0.0:
            raise ValueError(f"nzc_gaussian: sigma must be positive, got {sigma!r}")
        noise_std = sens.value * sigma
        eff_sigma = float(sigma)
    else:
        if not std > 0.0:
            raise ValueError(f"nzc_gaussian: std must be positive, got {std!r}")
        noise_std = float(std)
        eff_sigma = noise_std / sens.value
    boosted = boost(votes, boost_constant)
    noise = noise_std * ensure_generator(rng).standard_normal(votes.num_classes)
    label = noisy_argmax(boosted.as_array(), noise)
    return MechanismOutcome(
        returned_label=label,
        sensitivity_used=sens,
        ledger_entry=LedgerEntry("nzc-gaussian", sensitivity=sens.value, sigma=eff_sigma),
        noise_digest=_digest(noise) if digest else None,
    )


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
    boosted = boost(votes, boost_constant).as_array()
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
        _label_distribution(boost(h, boost_constant).as_array(), spec, trials, gen)
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
