"""Privacy ledger: per-query moment bounds, composition, and (eps, delta) conversion."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Optional

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


def _check_orders(orders: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(o) for o in orders)
    if not out:
        raise ValueError("the moment-order grid must not be empty")
    if any(o < 1 for o in out):
        raise ValueError("moment orders must be positive integers")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("moment orders must be strictly increasing")
    return out


@dataclass(frozen=True)
class MomentCurve:
    """Accumulated log moment-generating-function bounds on a fixed order grid."""

    orders: tuple[int, ...]
    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", _check_orders(self.orders))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.orders) != len(self.alpha):
            raise ValueError("orders and alpha must have the same length")
        if any(a < 0.0 for a in self.alpha):
            raise ValueError("moment bounds must be non-negative")

    @classmethod
    def zero(cls, orders: Iterable[int] = DEFAULT_ORDERS) -> "MomentCurve":
        orders = _check_orders(orders)
        return cls(orders=orders, alpha=(0.0,) * len(orders))

    @classmethod
    def for_laplace(cls, gamma: float, orders: Iterable[int] = DEFAULT_ORDERS) -> "MomentCurve":
        orders = _check_orders(orders)
        return cls(orders=orders, alpha=tuple(per_query_moment(gamma, o) for o in orders))

    def __add__(self, other: "MomentCurve") -> "MomentCurve":
        if self.orders != other.orders:
            raise ValueError("cannot combine moment curves on different order grids")
        return MomentCurve(self.orders, tuple(a + b for a, b in zip(self.alpha, other.alpha)))


def delta_for_eps(curve: MomentCurve, eps: float) -> float:
    """Tail-bound conversion: min over the grid of exp(alpha - order * eps), clamped to [0, 1]."""
    e = float(eps)
    if e < 0.0:
        raise ValueError(f"eps must be non-negative, got {eps!r}")
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

    def moments(self, orders: Iterable[int]) -> Optional[tuple[float, ...]]:
        if self.gamma is None:
            return None
        return tuple(per_query_moment(self.gamma, o) for o in orders)


def _fsum_counted(counts: Counter, term) -> float:
    """Exact sum of ``term(g)`` taken ``counts[g]`` times per g, evaluating ``term`` once per g."""
    return math.fsum(chain.from_iterable(repeat(term(g), n) for g, n in counts.items()))


_FMT = "{:.12g}"


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else _FMT.format(value)


class PrivacyLedger:
    """Ordered per-query privacy records with exact moment composition.

    Single writer; ``record`` appends and the accumulated curve is the exact
    sum of the per-entry curves (order of recording does not matter).
    """

    def __init__(self, orders: Iterable[int] = DEFAULT_ORDERS) -> None:
        self.orders = _check_orders(orders)
        self.entries: list[LedgerEntry] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrivacyLedger):
            return NotImplemented
        return self.orders == other.orders and self.entries == other.entries

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
        alpha = tuple(_fsum_counted(counts, lambda g: per_query_moment(g, o)) for o in self.orders)
        return MomentCurve(self.orders, alpha)

    def simple_epsilon(self) -> float:
        """Exact sum of the per-entry pure-DP costs (Gaussian entries contribute none)."""
        return _fsum_counted(self._gamma_counts(), lambda g: 2.0 * g)

    def delta_for_eps(self, eps: float) -> float:
        return delta_for_eps(self.moment_curve(), eps)

    def eps_for_delta(self, delta: float) -> float:
        return eps_for_delta(self.moment_curve(), delta)

    def export_text(self) -> str:
        """Line-oriented export, 12 significant digits, one record per query.

        The per-order moment columns are derived from the printed (rounded)
        gamma so the file is self-consistent and survives load/re-export
        byte-for-byte.
        """
        header = ["index", "mechanism", "gamma", "sigma", "sensitivity", "epsilon"]
        header += [f"alpha_{o}" for o in self.orders]
        lines = [",".join(header)]
        cells: dict[LedgerEntry, str] = {}  # the cells after the index, once per distinct entry
        for i, entry in enumerate(self.entries):
            text = cells.get(entry)
            if text is None:
                text = cells[entry] = self._cells(entry)
            lines.append(f"{i},{text}")
        return "\n".join(lines) + "\n"

    def _cells(self, entry: LedgerEntry) -> str:
        row = [entry.mechanism, _fmt(entry.gamma), _fmt(entry.sigma), _fmt(entry.sensitivity)]
        if entry.gamma is None:
            row += [""] * (1 + len(self.orders))
        else:
            printed_gamma = float(_FMT.format(entry.gamma))
            row.append(_FMT.format(2.0 * printed_gamma))
            row += [_FMT.format(per_query_moment(printed_gamma, o)) for o in self.orders]
        return ",".join(row)

    def export(self, path) -> None:
        Path(path).write_text(self.export_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "PrivacyLedger":
        """Read an exported ledger; every error is one line naming ``path:line``.

        The epsilon and moment columns are derived from gamma, so only the
        gamma, sigma and sensitivity cells are read back.
        """
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not any(lines):
            raise ValueError(f"{path}: empty ledger file")
        header = lines[0].split(",")
        fixed = ["index", "mechanism", "gamma", "sigma", "sensitivity", "epsilon"]
        if header[: len(fixed)] != fixed:
            raise ValueError(f"{path}:1: unrecognized ledger header")
        orders = []
        for name in header[len(fixed):]:
            order = name[len("alpha_"):]
            if not (name.startswith("alpha_") and order.isdigit()):
                raise ValueError(f"{path}:1: unrecognized ledger column {name!r}")
            orders.append(int(order))
        try:
            ledger = cls(orders)
        except ValueError as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            cells = line.split(",")
            try:
                if len(cells) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(cells)}")
                gamma, sigma = (_parse_number(cells[i], fixed[i]) if cells[i] else None for i in (2, 3))
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
