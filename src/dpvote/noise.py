"""Seeded noise streams, the table of noise kinds, the noise spec, and tail-probability formulas.

All logarithms are natural.  Randomness is not cryptographic: streams exist
for reproducible simulation, not for deployment against adversaries with
access to the generator state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "RngStream",
    "NoiseKind",
    "LAPLACE",
    "GAUSSIAN",
    "NOISE_KINDS",
    "NoiseSpec",
    "MonteCarloEstimate",
    "ensure_generator",
    "union_flip_bound",
    "required_constant_laplace",
    "required_constant_gaussian",
    "exceedance_probability_mc",
]

RngLike = Union["RngStream", np.random.Generator]


@dataclass(frozen=True)
class RngStream:
    """Value-style handle for a reproducible noise stream.

    The (seed, path) pair fully determines the sample sequence, so callers can
    hand out disjoint substreams (one per block of queries, per oracle, ...) and draw
    from them in any order, on any number of workers, with identical results.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for part in self.path:
            if part < 0 or int(part) != part:
                raise ValueError(f"stream path entries must be non-negative integers, got {part!r}")

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Materialize a fresh generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


def ensure_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected an RngStream or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class NoiseKind:
    """How one kind of noise is calibrated, drawn and charged; the one place each rule is written.

    A spec or ledger entry of the kind carries ``param`` and leaves ``other`` None.
    """

    name: str
    param: str
    other: str
    scale: Callable  # (sensitivity, param) -> the scale the draw uses
    op: str  # how ``scale`` combines its operands, as its error message writes it
    implied: Callable  # (sensitivity, scale) -> the param that a pinned scale implies
    draw: Callable  # (generator, scale, size) -> noise of shape size (a float when None)
    tail: Callable  # (threshold, scale) -> Pr(|noise| >= threshold), or an upper bound on it
    constant: Callable  # (classes / tau, param) -> the threshold whose union bound is tau
    epsilon: Optional[Callable]  # param -> the per-query pure-DP cost; None when there is none


def _draw_gaussian(gen: np.random.Generator, scale, size):
    draw = gen.standard_normal(size)
    draw *= scale  # in place: the same values as scale * draw, without a temporary
    return draw


LAPLACE = NoiseKind(
    "laplace", param="gamma", other="sigma",
    scale=operator.truediv, op="/", implied=operator.truediv,  # sens / gamma; sens / scale
    draw=lambda gen, scale, size: gen.laplace(0.0, scale, size),
    tail=lambda c, s: math.exp(-c / s),
    constant=lambda ratio, gamma: math.log(ratio) / gamma,
    epsilon=lambda gamma: 2.0 * gamma,
)
GAUSSIAN = NoiseKind(
    "gaussian", param="sigma", other="gamma",
    scale=operator.mul, op="*", implied=lambda sens, scale: scale / sens,
    draw=_draw_gaussian,
    tail=lambda c, s: min(1.0, 2.0 * math.exp(-(c * c) / (2.0 * s * s))),
    constant=lambda ratio, sigma: sigma * math.sqrt(2.0 * math.log(2.0 * ratio)),
    epsilon=None,
)
NOISE_KINDS = {kind.name: kind for kind in (LAPLACE, GAUSSIAN)}


@dataclass(frozen=True)
class NoiseSpec:
    """Which noise to add and how it is calibrated; the one noise sampler and tail.

    ``gamma`` is the Laplace inverse-scale privacy parameter (smaller gamma
    means larger noise); the effective Laplace scale is sensitivity / gamma.
    ``sigma`` is the Gaussian std multiplier; the effective std is
    sensitivity * sigma.  ``sensitivity`` may be an array that broadcasts
    against the draw size, such as one sensitivity per row of a (rows,
    classes) draw.  To pin the raw noise magnitude, set gamma or sigma to 1
    and put the magnitude in ``sensitivity``: the draw then uses it exactly.
    """

    kind: str  # a key of NOISE_KINDS
    gamma: Optional[float] = None
    sigma: Optional[float] = None
    sensitivity: Union[float, np.ndarray] = 1.0

    def __post_init__(self) -> None:
        kind = NOISE_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise ValueError(f"noise kind must be {' or '.join(map(repr, NOISE_KINDS))}, "
                             f"got {self.kind!r}")
        sens = np.asarray(self.sensitivity, dtype=np.float64)
        bad = sens[~(sens > 0.0)]
        if bad.size:
            raise ValueError(f"sensitivity must be positive, got {float(bad[0])!r}")
        param = getattr(self, kind.param)
        if param is None or not param > 0.0:
            raise ValueError(f"{self.kind} noise needs a positive {kind.param}")
        if getattr(self, kind.other) is not None:
            raise ValueError(f"{self.kind} noise takes {kind.param}, not {kind.other}")
        with np.errstate(over="ignore"):
            bad = sens[~np.isfinite(self.scale)]
        if bad.size:
            raise ValueError(f"{self.kind} noise scale must be finite, got sensitivity "
                             f"{float(bad[0])!r} {kind.op} {kind.param} {param!r}")

    @property
    def scale(self):
        """Effective noise scale: Laplace b = sensitivity/gamma, Gaussian std = sensitivity*sigma."""
        kind = NOISE_KINDS[self.kind]
        return kind.scale(self.sensitivity, getattr(self, kind.param))

    def sample(self, rng: RngLike, size=None):
        """Draw noise of shape ``size`` (a float when None) at this spec's scale."""
        return NOISE_KINDS[self.kind].draw(ensure_generator(rng), self.scale, size)

    def tail(self, threshold: float) -> float:
        """Pr(|noise| >= threshold) for one coordinate of a scalar spec.

        Laplace: exactly e^(-threshold / b).  Gaussian: the upper bound
        2 e^(-threshold^2 / (2 std^2)), clamped to 1; the true tail is smaller.
        """
        c = float(threshold)
        if not c >= 0.0:
            raise ValueError(f"threshold must be non-negative, got {threshold!r}")
        return NOISE_KINDS[self.kind].tail(c, float(self.scale))


def union_flip_bound(num_classes: int, spec: NoiseSpec, threshold: float) -> float:
    """Union bound on Pr(max_j |noise_j| >= threshold) over ``num_classes`` coordinates, clamped to 1."""
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    return min(1.0, num_classes * spec.tail(threshold))


def _required_constant(kind: NoiseKind, num_classes: int, tau: float, param: float) -> float:
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    p = float(param)
    if not p > 0.0:
        raise ValueError(f"{kind.param} must be positive, got {param!r}")
    return kind.constant(num_classes / tau, p)


def required_constant_laplace(num_classes: int, tau: float, gamma: float) -> float:
    """Smallest threshold making the Laplace union bound equal tau: (1/gamma) ln(L/tau)."""
    return _required_constant(LAPLACE, num_classes, tau, gamma)


def required_constant_gaussian(num_classes: int, tau: float, sigma: float) -> float:
    """Smallest threshold making the Gaussian union bound equal tau: sqrt(2 sigma^2 ln(2L/tau))."""
    return _required_constant(GAUSSIAN, num_classes, tau, sigma)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A binomial proportion estimate with its standard error."""

    estimate: float
    standard_error: float
    hits: int
    trials: int

    @classmethod
    def from_hits(cls, hits: int, trials: int) -> "MonteCarloEstimate":
        p = hits / trials
        return cls(estimate=p, standard_error=math.sqrt(p * (1.0 - p) / trials),
                   hits=hits, trials=trials)


# noise values per block (128 KiB of float64): a Monte-Carlo run and every pass over
# a labeling block work on chunks of this many values, so a chunk and the temporaries
# of the passes over it stay in the L2 cache.  On a 2 MiB-L2 Xeon, 2^15-2^16 values
# ran no faster and 2^13 slower (Python overhead per block).
_MC_BLOCK = 16_384
# a Monte-Carlo block with fewer classes than this that needs counting is counted class by
# class (``mechanisms._argmax_counts``), not by a per-row argmax.  Per block of _MC_BLOCK
# values on the same Xeon, class by class against argmax: 32 against 100-132 µs at 3
# classes, 36 against 68-98 at 5, 55 against 51-77 at 8 and 59 against 45-69 at 10.  The
# argmax gains with longer rows, and most where one class wins most rows, as in the flip
# blocks that the screen does not settle.
_FEW_CLASSES = 8


def row_chunks(rows: int, num_classes: int):
    """Consecutive slices of ``range(rows)``, each ``max(1, _MC_BLOCK // num_classes)`` rows
    long but the last: the chunks in which every pass over (rows, num_classes) values works."""
    step = max(1, _MC_BLOCK // num_classes)
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def noise_blocks(spec: NoiseSpec, num_classes: int, trials: int, rng: RngLike):
    """Yield ``trials`` rows of noise in consecutive (rows, num_classes) blocks from one generator.

    The one sampler of the mechanisms and the Monte-Carlo oracles.  The blocks
    are the ``row_chunks``, so each fits in the cache whatever the class count.
    A spec whose sensitivity is a (trials, 1) column of per-row sensitivities
    draws each block at its rows' slice of it; a scalar one at its scalar scale.
    The block size does not change the draws: numpy's Laplace and normal
    samplers give the same values drawn in blocks as in one (trials,
    num_classes) array.  Each block is a fresh array that the caller owns and
    may overwrite.
    """
    gen = ensure_generator(rng)
    column = np.ndim(spec.sensitivity) > 0
    for rows in row_chunks(trials, num_classes):
        block = replace(spec, sensitivity=spec.sensitivity[rows]) if column else spec
        yield block.sample(gen, size=(rows.stop - rows.start, num_classes))


def exceedance_probability_mc(
    spec: NoiseSpec,
    num_classes: int,
    threshold: float,
    trials: int,
    rng: RngLike,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of Pr(max_j |noise_j| >= threshold) over ``num_classes`` coordinates.

    A block is reduced through the positions of its hits, not a per-row ``any``: the
    positions where ``|noise| >= threshold``, divided by ``num_classes``, are the ascending
    rows of the hits, and the distinct ones are counted.  At the bench's thresholds a hit is
    one value in 20 (Laplace) or in 370 (Gaussian); a block where every value hits holds one
    position per value, and a 10^5-trial call then peaks at 0.41 MB instead of 0.27 MB.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    c = float(threshold)
    if not c >= 0.0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    hits = 0
    for noise in noise_blocks(spec, num_classes, trials, rng):
        np.abs(noise, out=noise)
        rows = np.flatnonzero(noise >= c)
        rows //= num_classes  # the row of each hit, ascending
        hits += int(rows.size and 1 + np.count_nonzero(rows[1:] != rows[:-1]))
    return MonteCarloEstimate.from_hits(hits, trials)
