"""Privacy ledger: per-query moment bounds, composition, and (eps, delta) conversion."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from ._table import field_types, format_table, read_table, write_fresh
from .noise import GAUSSIAN, LAPLACE, NoiseKind

__all__ = [
    "NOISE_KIND",
    "DEFAULT_ORDERS",
    "per_query_moment",
    "LedgerEntry",
    "PrivacyFigure",
    "PrivacyLedger",
    "advanced_composition",
    "classical_gaussian_epsilon",
]

# the noise each mechanism adds; the one place a mechanism name decides it
NOISE_KIND = {"lnmax": LAPLACE, "nzc-laplace": LAPLACE, "nzc-gaussian": GAUSSIAN}
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(1, 33))


def per_query_moment(gamma: float, order: int) -> float:
    """Moment bound 2 * gamma^2 * l * (l + 1) for one Laplace-calibrated query."""
    if order < 1 or int(order) != order:
        raise ValueError(f"moment order must be a positive integer, got {order!r}")
    g = float(gamma)
    if g < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    return 2.0 * g * g * order * (order + 1)


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
    return 4.0 * t * g * g + 2.0 * g * math.sqrt(2.0 * t * -math.log(d))


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
        if getattr(self, kind.param) is None or getattr(self, kind.other) is not None:
            raise ValueError(f"a {self.mechanism} entry carries {kind.param} and no {kind.other}")
        if self.gamma is not None and not self.gamma >= 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma!r}")
        if self.sigma is not None and not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not self.sensitivity > 0.0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity!r}")
        for name in (kind.param, "sensitivity"):  # ledger.csv holds only finite floats
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")

    @property
    def epsilon(self) -> Optional[float]:
        """Per-query pure-DP cost 2*gamma; None for Gaussian entries."""
        kind = NOISE_KIND[self.mechanism]
        return None if kind.epsilon is None else kind.epsilon(getattr(self, kind.param))


@dataclass(frozen=True)
class PrivacyFigure:
    """One privacy figure of a ledger: its accounting, the definition it rests on, (eps, delta)."""

    accounting: str  # a fixed name, such as paper-simple
    definition: str  # one line that names the source
    eps: Optional[float]  # None where the accounting gives no guarantee at this delta
    delta: float


def _fsum_counted(counts: Counter, term) -> float:
    """fsum of ``term(g)`` taken ``counts[g]`` times per g, with ``term`` evaluated once per g.

    Finite terms are integers over powers of two; their exact sum is rounded once by an int
    division (inf on overflow).  Non-finite terms, and a zero sum's sign, take fsum's result.
    """
    terms = [(term(g), n) for g, n in counts.items()]
    total, scale = 0, 1  # the exact sum so far is total / scale
    for t, n in terms:
        if not math.isfinite(t):
            return math.fsum(t for t, _ in terms if not math.isfinite(t))
        m, d = t.as_integer_ratio()
        if d > scale:
            total, scale = total * (d // scale), d
        total += n * m * (scale // d)
    if not total:
        return math.fsum(t for t, _ in terms)
    try:
        return total / scale
    except OverflowError:
        return math.inf if total > 0 else -math.inf


# ledger.csv columns: the row position, then the LedgerEntry fields in their order
_ENTRY_TYPES = field_types(LedgerEntry)
_ROW_TYPES = {"index": (int, False), **_ENTRY_TYPES}


class PrivacyLedger:
    """Ordered per-query privacy records with exact moment composition.

    Each distinct charge (a ``LedgerEntry`` object) is held once, with the number of
    queries it was charged to; each query is a row that indexes its charge.  Single
    writer; ``record`` appends and the accumulated curve is the exact sum of the
    per-query curves (order of recording does not matter).
    """

    orders = DEFAULT_ORDERS

    def __init__(self) -> None:
        self._charges: list[LedgerEntry] = []  # distinct by identity: -0.0 == 0.0
        self._tallies: list[int] = []  # queries charged to each
        self._slots: dict[int, int] = {}  # id of a charge -> its index in _charges
        self._rows: list[np.ndarray] = []  # per record call, each query's index in _charges

    def _row_slots(self) -> np.ndarray:
        """Each query's index in ``_charges``, in order."""
        return np.concatenate([np.empty(0, dtype=np.intp), *self._rows])

    @property
    def entries(self) -> list[LedgerEntry]:
        """A fresh list of each query's entry, in order."""
        return list(map(self._charges.__getitem__, self._row_slots().tolist()))

    @property
    def query_count(self) -> int:
        return sum(self._tallies)

    def record(self, *entries: LedgerEntry, rows=None) -> None:
        """Append one query per entry in order, or, with ``rows``, one per row: query i
        is charged ``entries[rows[i]]``."""
        for entry in entries:
            if not isinstance(entry, LedgerEntry):
                raise TypeError(f"expected a LedgerEntry, got {type(entry).__name__}")
        rows = np.arange(len(entries)) if rows is None else np.asarray(rows)
        if rows.ndim != 1 or rows.size and rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be a 1-D integer array, got {rows.dtype} "
                             f"of shape {rows.shape}")
        index = rows.astype(np.intp, copy=False)
        tallies = None
        # bincount refuses a negative row; the max goes first, as near 2**63 its length overflows
        if not rows.size or rows.max() < len(entries):
            try:
                tallies = np.bincount(index, minlength=len(entries))
            except ValueError:
                pass
        if tallies is None:
            raise ValueError(f"rows must index the {len(entries)} entries, "
                             f"got values from {rows.min()} to {rows.max()}")
        slots = []
        for entry, tally in zip(entries, tallies.tolist()):
            slot = self._slots.get(id(entry))
            if slot is None:
                slot = self._slots[id(entry)] = len(self._charges)
                self._charges.append(entry)
                self._tallies.append(0)
            self._tallies[slot] += tally
            slots.append(slot)
        self._rows.append(np.array(slots, dtype=np.intp)[index])

    def _counts(self, kind: NoiseKind) -> Counter:
        """How many queries are charged each value of ``kind``'s parameter, other kinds left out."""
        counts = Counter()
        for charge, tally in zip(self._charges, self._tallies):
            counts[getattr(charge, kind.param)] += tally
        del counts[None]
        return +counts  # a charge no row uses adds nothing

    def moment_curve(self) -> tuple[float, ...]:
        """Exact sum of the entries' moment bounds at each of ``orders``; Gaussian entries add none."""
        counts = self._counts(LAPLACE)
        return tuple(_fsum_counted(counts, lambda g: per_query_moment(g, o)) for o in self.orders)

    def simple_epsilon(self) -> float:
        """Exact sum of the per-entry pure-DP costs (Gaussian entries contribute none)."""
        return _fsum_counted(self._counts(LAPLACE), LAPLACE.epsilon)

    def delta_for_eps(self, eps: float) -> float:
        """Tail-bound conversion: min over the orders of exp(alpha - order * eps), clamped to [0, 1]."""
        e = float(eps)
        if not 0.0 <= e < math.inf:
            raise ValueError(f"eps must be a finite non-negative number, got {eps!r}")
        best = min(a - o * e for o, a in zip(self.orders, self.moment_curve()))
        if best >= 0.0:
            return 1.0
        return math.exp(best) if best > -745.0 else 0.0

    def eps_for_delta(self, delta: float) -> float:
        """Smallest eps on the order grid with delta_for_eps(eps) <= delta."""
        d = float(delta)
        if not 0.0 < d <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
        log_inv = -math.log(d)  # 1 / d overflows for a subnormal delta
        return min((a + log_inv) / o for o, a in zip(self.orders, self.moment_curve()))

    def figures(self, delta: float) -> tuple[PrivacyFigure, ...]:
        """Every privacy figure of this ledger at ``delta``, in a fixed order; none when empty."""
        gammas, sigmas = self._counts(LAPLACE), self._counts(GAUSSIAN)
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
                              advanced_composition(gammas.total(), max(gammas), delta), delta),
            ]
        if sigmas:
            per_query = classical_gaussian_epsilon(min(sigmas), delta / sigmas.total())
            figures.append(PrivacyFigure(
                "classical-gaussian", "classical Gaussian: sqrt(2*ln(1.25*T/delta))/sigma per "
                "query at the smallest sigma, summed; inapplicable unless each is < 1 "
                "(Dwork & Roth 2014, Thm A.1)",
                None if per_query is None else per_query * sigmas.total(), delta))
        return tuple(figures)

    def export_text(self) -> str:
        """ledger.csv text: one row per query of what it spent; every cost is derived on load."""
        columns = [list(map(attrgetter(name), self._charges)) for name in _ENTRY_TYPES]
        return format_table(_ROW_TYPES, [range(self.query_count), *columns], rows=self._row_slots())

    def export(self, path) -> None:
        """Write ``export_text()`` to a new file at ``path``; the file that was there is replaced,
        not truncated (``_table.write_fresh``)."""
        write_fresh(path, self.export_text())

    @classmethod
    def load(cls, path) -> "PrivacyLedger":
        """Read an exported ledger, one entry per distinct row; every error is one line
        naming ``path:line``."""
        charges, rows = read_table(path, _ROW_TYPES,
                                   lambda index, *row: LedgerEntry(*row[:-1], sensitivity=row[-1]))
        ledger = cls()
        ledger.record(*charges, rows=rows)
        return ledger
