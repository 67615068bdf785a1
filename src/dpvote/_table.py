"""Declared field types, their checks, and the one grammar of queries.csv and ledger.csv.

A table is a header of column names, then one row per record starting with its
position (0, 1, ...): ints in full, floats at 12 significant digits, None as an
empty cell.  Empty lines are skipped on reading.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import fields
from pathlib import Path


def field_types(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (base type, whether None is allowed), read from the annotations."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        optional = len(args) < len(typing.get_args(hint))
        out[f.name] = (args[0] if optional else typing.get_origin(hint) or hint, optional)
    return out


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether ``value`` is a real that converts to a float other than NaN; infinities count."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return not math.isnan(float(value))
    except OverflowError:  # an integer beyond the float range
        return False


# declared base type -> (what the error message asks for, check)
TYPE_CHECKS = {
    int: ("an integer", _is_int),
    float: ("a finite number", lambda v: _is_number(v) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
}
# a privacy figure may be infinite: a summary eps or a query's 2 * gamma can overflow to inf
PRIVACY_CHECKS = {**TYPE_CHECKS, float: ("a number", _is_number)}


def check_type(where: str, name: str, value, declared: tuple[type, bool],
               checks: dict = TYPE_CHECKS) -> None:
    """Raise a one-line ValueError naming ``where`` and ``name`` unless ``value`` fits ``declared``.

    ``declared`` is a (base type, whether None is allowed) pair from ``field_types``.
    """
    base, optional = declared
    wanted, fits = checks[base]
    if not (optional if value is None else fits(value)):
        raise ValueError(f"{where} {name} must be {wanted}{' or null' if optional else ''}, "
                         f"got {value!r}")


def format12(value) -> str:
    """A float at 12 significant digits, the precision of every float a report holds."""
    return f"{value:.12g}"


def _column_cells(values, base: type):
    """The cells of one column; each distinct float is formatted once."""
    if base is not float:
        return ["" if value is None else str(value) for value in values]
    text = {value: "" if value is None else format12(value) for value in set(values)}
    if 0.0 in text:  # 0.0 and -0.0 are one key, but -0.0 is written "-0"
        return ["" if value is None else format12(value) for value in values]
    return map(text.__getitem__, values)


def format_table(types: dict[str, tuple[type, bool]], columns) -> str:
    """The text of a table of the columns that ``types`` names and declares.

    ``columns`` holds each column's values, the row positions first.
    """
    cells = [_column_cells(values, base) for values, (base, _) in zip(columns, types.values())]
    return "\n".join([",".join(types), *map(",".join, zip(*cells))]) + "\n"


def read_table(path, types: dict[str, tuple[type, bool]], checks: dict, make) -> list:
    """The rows of a ``format_table`` file, each ``make(position, *values of the other cells)``.

    Every error is one ValueError line naming ``path:line``: a header other than
    the names of ``types``, a row without one cell per column or whose first cell
    is not its position, or a cell that does not fit its declared type in ``checks``.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = ",".join(types)
    if not lines or lines[0] != header:
        raise ValueError(f"{path}:1: expected the header {header!r}")
    position, *names = types
    parsers = [_cell_parser(name, types[name], checks) for name in names]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) != len(types):
                raise ValueError(f"expected {len(types)} fields, got {len(cells)}")
            if cells[0] != str(len(rows)):
                raise ValueError(f"{position} must be {len(rows)}, got {cells[0]!r}")
            rows.append(make(len(rows), *[parse(c) for parse, c in zip(parsers, cells[1:])]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def _cell_parser(name: str, declared: tuple[type, bool], checks: dict):
    """Cell text -> value; each distinct cell is checked once, an int only as ``str`` writes it."""
    base, optional = declared
    wanted, fits = checks[base]
    known = {"": None} if optional else {}

    def parse(cell: str):
        if cell not in known:
            try:
                value = base(cell)
            except ValueError:
                value = None
            if value is None or not fits(value) or (base is int and str(value) != cell):
                raise ValueError(f"{name} must be {wanted}, got {cell!r}")
            known[cell] = value
        return known[cell]

    return parse
