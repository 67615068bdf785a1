"""Privacy ledger: per-query moment bounds, composition, and (eps, delta) conversion."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Optional

__all__ = [
    "DEFAULT_ORDERS",
    "per_query_moment",
    "MomentCurve",
    "LedgerEntry",
    "PrivacyLedger",
    "delta_for_eps",
    "eps_for_delta",
    "advanced_composition",
    "simple_composition",
    "classical_gaussian_epsilon",
]

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
    sensitivity: float
    gamma: Optional[float] = None
    sigma: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.gamma is None) == (self.sigma is None):
            raise ValueError("a ledger entry carries exactly one of gamma or sigma")
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


def _fsum_counted(counts: Counter, term) -> float:
    """Exact sum of ``term(g)`` taken ``counts[g]`` times per g, evaluating ``term`` once per g."""
    return math.fsum(chain.from_iterable(repeat(term(g), n) for g, n in counts.items()))


_COLUMNS = ("index", "mechanism", "gamma", "sigma", "sensitivity")
_HEADER = ",".join(_COLUMNS)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.12g}"


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

    def export_text(self) -> str:
        """Line-oriented export, 12 significant digits, one record per query.

        A row holds only what was spent: mechanism, gamma or sigma, and the
        sensitivity.  Every cost is derived from gamma on load.
        """
        lines = [_HEADER]
        cells: dict[LedgerEntry, str] = {}  # the cells after the index, once per distinct entry
        for i, entry in enumerate(self.entries):
            text = cells.get(entry)
            if text is None:
                text = cells[entry] = ",".join((entry.mechanism, _fmt(entry.gamma),
                                                _fmt(entry.sigma), _fmt(entry.sensitivity)))
            lines.append(f"{i},{text}")
        return "\n".join(lines) + "\n"

    def export(self, path) -> None:
        Path(path).write_text(self.export_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "PrivacyLedger":
        """Read an exported ledger; every error is one line naming ``path:line``."""
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not any(lines):
            raise ValueError(f"{path}: empty ledger file")
        if lines[0] != _HEADER:
            raise ValueError(f"{path}:1: expected the ledger header {_HEADER!r}")
        ledger = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            cells = line.split(",")
            try:
                if len(cells) != len(_COLUMNS):
                    raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(cells)}")
                gamma, sigma = (_parse_number(cells[i], _COLUMNS[i]) if cells[i] else None
                                for i in (2, 3))
                sensitivity = _parse_number(cells[4], "sensitivity")
                ledger.record(LedgerEntry(cells[1], sensitivity, gamma=gamma, sigma=sigma))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return ledger


def _parse_number(cell: str, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {cell!r}")
    return value
