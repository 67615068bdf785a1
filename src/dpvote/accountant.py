"""Privacy ledger: per-query moment bounds, composition, and (eps, delta) conversion."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Optional

from ._table import TYPE_CHECKS, field_types, format_table, read_table

__all__ = [
    "NOISE_KIND",
    "DEFAULT_ORDERS",
    "per_query_moment",
    "MomentCurve",
    "LedgerEntry",
    "PrivacyFigure",
    "PrivacyLedger",
    "delta_for_eps",
    "eps_for_delta",
    "advanced_composition",
    "simple_composition",
    "classical_gaussian_epsilon",
]

# the noise each mechanism adds; the one place a mechanism name decides it
NOISE_KIND = {"lnmax": "laplace", "nzc-laplace": "laplace", "nzc-gaussian": "gaussian"}
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(1, 33))


def per_query_moment(gamma: float, order: int) -> float:
    """Moment bound 2 * gamma^2 * l * (l + 1) for one Laplace-calibrated query."""
    if order < 1 or int(order) != order:
        raise ValueError(f"moment order must be a positive integer, got {order!r}")
    g = float(gamma)
    if g < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    return 2.0 * g * g * order * (order + 1)


@dataclass(frozen=True)
class MomentCurve:
    """Accumulated log moment-generating-function bounds, one per order of DEFAULT_ORDERS."""

    orders = DEFAULT_ORDERS
    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} moment bounds, one per order, "
                             f"got {len(self.alpha)}")
        if any(a < 0.0 for a in self.alpha):
            raise ValueError("moment bounds must be non-negative")

    @classmethod
    def zero(cls) -> "MomentCurve":
        return cls((0.0,) * len(cls.orders))

    @classmethod
    def for_laplace(cls, gamma: float) -> "MomentCurve":
        return cls(tuple(per_query_moment(gamma, o) for o in cls.orders))

    def __add__(self, other: "MomentCurve") -> "MomentCurve":
        return MomentCurve(tuple(a + b for a, b in zip(self.alpha, other.alpha)))


def delta_for_eps(curve: MomentCurve, eps: float) -> float:
    """Tail-bound conversion: min over the grid of exp(alpha - order * eps), clamped to [0, 1]."""
    e = float(eps)
    if not 0.0 <= e < math.inf:
        raise ValueError(f"eps must be a finite non-negative number, got {eps!r}")
    best = min(a - o * e for o, a in zip(curve.orders, curve.alpha))
    if best >= 0.0:
        return 1.0
    return math.exp(best) if best > -745.0 else 0.0


def eps_for_delta(curve: MomentCurve, delta: float) -> float:
    """Smallest eps on the grid with delta_for_eps(curve, eps) <= delta."""
    d = float(delta)
    if not 0.0 < d <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    log_inv = math.log(1.0 / d)
    return min((a + log_inv) / o for o, a in zip(curve.orders, curve.alpha))


def advanced_composition(num_queries: int, gamma: float, delta: float) -> float:
    """Closed-form budget for T queries at (2*gamma, 0) each: 4T gamma^2 + 2 gamma sqrt(2T ln(1/delta))."""
    if num_queries < 0:
        raise ValueError(f"query count must be non-negative, got {num_queries}")
    g = float(gamma)
    if g < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    d = float(delta)
    if not 0.0 < d <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    t = float(num_queries)
    return 4.0 * t * g * g + 2.0 * g * math.sqrt(2.0 * t * math.log(1.0 / d))


def simple_composition(num_queries: int, gamma: float) -> float:
    """Pure-DP sum over T queries at (2*gamma, 0) each."""
    if num_queries < 0:
        raise ValueError(f"query count must be non-negative, got {num_queries}")
    g = float(gamma)
    if g < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    return 2.0 * g * num_queries


def classical_gaussian_epsilon(sigma: float, delta: float) -> Optional[float]:
    """Per-query eps from the sigma >= sqrt(2 ln(1.25/delta)) / eps calibration.

    Returns None when the solved eps is 1 or larger, where this calibration
    gives no guarantee; callers should report the bound as inapplicable
    rather than extrapolate.
    """
    s = float(sigma)
    if not s > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    d = float(delta)
    if not 0.0 < d < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    eps = math.sqrt(2.0 * math.log(1.25 / d)) / s
    return eps if eps < 1.0 else None


@dataclass(frozen=True)
class LedgerEntry:
    """One answered query: mechanism kind, its noise parameter, and the sensitivity used."""

    mechanism: str
    gamma: Optional[float] = None
    sigma: Optional[float] = None
    sensitivity: float = field(kw_only=True)

    def __post_init__(self) -> None:
        kind = NOISE_KIND.get(self.mechanism)
        if kind is None:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; "
                             f"expected one of {', '.join(NOISE_KIND)}")
        param, other = ("gamma", "sigma") if kind == "laplace" else ("sigma", "gamma")
        if getattr(self, param) is None or getattr(self, other) is not None:
            raise ValueError(f"a {self.mechanism} entry carries {param} and no {other}")
        if self.gamma is not None and not self.gamma >= 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma!r}")
        if self.sigma is not None and not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not self.sensitivity > 0.0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity!r}")

    @property
    def epsilon(self) -> Optional[float]:
        """Per-query pure-DP cost 2*gamma; None for Gaussian entries."""
        return 2.0 * self.gamma if self.gamma is not None else None


@dataclass(frozen=True)
class PrivacyFigure:
    """One privacy figure of a ledger: its accounting, the definition it rests on, (eps, delta)."""

    accounting: str  # a fixed name, such as paper-simple
    definition: str  # one line that names the source
    eps: Optional[float]  # None where the accounting gives no guarantee at this delta
    delta: float


def _fsum_counted(counts: Counter, term) -> float:
    """Exact sum of ``term(g)`` taken ``counts[g]`` times per g, evaluating ``term`` once per g."""
    return math.fsum(chain.from_iterable(repeat(term(g), n) for g, n in counts.items()))


# ledger.csv columns: the row position, then the LedgerEntry fields in their order
_ENTRY_TYPES = field_types(LedgerEntry)
_ROW_TYPES = {"index": (int, False), **_ENTRY_TYPES}


class PrivacyLedger:
    """Ordered per-query privacy records with exact moment composition.

    Single writer; ``record`` appends and the accumulated curve is the exact
    sum of the per-entry curves (order of recording does not matter).
    """

    orders = DEFAULT_ORDERS

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrivacyLedger):
            return NotImplemented
        return self.entries == other.entries

    @property
    def query_count(self) -> int:
        return len(self.entries)

    def record(self, *entries: LedgerEntry) -> None:
        """Append ``entries`` in order."""
        for entry in entries:
            if not isinstance(entry, LedgerEntry):
                raise TypeError(f"expected a LedgerEntry, got {type(entry).__name__}")
        self.entries.extend(entries)

    def _gamma_counts(self) -> Counter:
        """How many entries carry each gamma (Gaussian entries carry none)."""
        return Counter(e.gamma for e in self.entries if e.gamma is not None)

    def moment_curve(self) -> MomentCurve:
        """Pointwise exact sum of the per-entry moment bounds (Gaussian entries contribute none)."""
        counts = self._gamma_counts()
        return MomentCurve(tuple(_fsum_counted(counts, lambda g: per_query_moment(g, o))
                                 for o in self.orders))

    def simple_epsilon(self) -> float:
        """Exact sum of the per-entry pure-DP costs (Gaussian entries contribute none)."""
        return _fsum_counted(self._gamma_counts(), lambda g: 2.0 * g)

    def delta_for_eps(self, eps: float) -> float:
        return delta_for_eps(self.moment_curve(), eps)

    def eps_for_delta(self, delta: float) -> float:
        return eps_for_delta(self.moment_curve(), delta)

    def figures(self, delta: float) -> tuple[PrivacyFigure, ...]:
        """Every privacy figure of this ledger at ``delta``, in a fixed order; none when empty."""
        gammas = [e.gamma for e in self.entries if e.gamma is not None]
        sigmas = [e.sigma for e in self.entries if e.sigma is not None]
        figures = []
        if gammas:
            figures += [
                PrivacyFigure("paper-moments", "moments accountant: 2*gamma^2*l*(l+1) per query "
                              "at orders 1..32, tail bound (paper; Abadi et al. 2016)",
                              self.eps_for_delta(delta), delta),
                PrivacyFigure("paper-simple", "pure eps: 2*gamma per query, summed (paper)",
                              self.simple_epsilon(), 0.0),
                PrivacyFigure("paper-advanced", "advanced composition: 4*T*gamma^2 + "
                              "2*gamma*sqrt(2*T*ln(1/delta)) at the largest gamma "
                              "(paper; Dwork, Rothblum & Vadhan 2010)",
                              advanced_composition(len(gammas), max(gammas), delta), delta),
            ]
        if sigmas:
            per_query = classical_gaussian_epsilon(min(sigmas), delta / len(sigmas))
            figures.append(PrivacyFigure(
                "classical-gaussian", "classical Gaussian: sqrt(2*ln(1.25*T/delta))/sigma per "
                "query at the smallest sigma, summed; inapplicable unless each is < 1 "
                "(Dwork & Roth 2014, Thm A.1)",
                None if per_query is None else per_query * len(sigmas), delta))
        return tuple(figures)

    def export_text(self) -> str:
        """ledger.csv text: one row per query of what it spent; every cost is derived on load."""
        columns = [list(map(attrgetter(name), self.entries)) for name in _ENTRY_TYPES]
        return format_table(_ROW_TYPES, [range(self.query_count), *columns])

    def export(self, path) -> None:
        Path(path).write_text(self.export_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "PrivacyLedger":
        """Read an exported ledger; every error is one line naming ``path:line``."""
        ledger = cls()
        ledger.entries = read_table(path, _ROW_TYPES, TYPE_CHECKS,
                                    lambda index, *row: LedgerEntry(*row[:-1], sensitivity=row[-1]))
        return ledger
