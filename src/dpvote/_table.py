"""Field types and their checks, the one grammar of queries.csv and ledger.csv, the one writer
of every report file (``write_fresh``) and the one refusal of any other (``_first_difference``).

A table is a header of column names, then one row per record starting with its
position (0, 1, ...): ints in full, floats in their shortest round-trip form
(``repr`` without a trailing ``.0``: 1.0 is ``1``, -0.0 is ``-0``), None as an
empty cell.  A float reads back as the float written, so a figure derived from
a table is the run's own; a reader takes only the text written for what it read.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import typing
from dataclasses import fields
from itertools import zip_longest
from operator import itemgetter

import numpy as np


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


def _is_finite(value) -> bool:
    """Whether ``value`` is a real, not a bool, whose float is finite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# declared base type -> (what the error message asks for, check)
TYPE_CHECKS = {
    int: ("an integer", _is_int),
    float: ("a finite number", _is_finite),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
}


def check_type(where: str, name: str, value, declared: tuple[type, bool]) -> None:
    """Raise a one-line ValueError naming ``where`` and ``name`` unless ``value`` fits ``declared``.

    ``declared`` is a (base type, whether None is allowed) pair from ``field_types``.
    """
    base, optional = declared
    wanted, fits = TYPE_CHECKS[base]
    if not (optional if value is None else fits(value)):
        raise ValueError(f"{where} {name} must be {wanted}{' or null' if optional else ''}, "
                         f"got {value!r}")


def _format_float(value) -> str:
    """The table cell of a float: its shortest round-trip form, without a trailing ``.0``."""
    return repr(float(value)).removesuffix(".0")


def _column_cells(values, base: type):
    """The cells of one column other than the positions.

    Each distinct value is formatted once.  A column of two or more distinct values
    looks its cells up in one ``itemgetter`` call; with no row or one distinct value
    there is nothing to look up (and ``itemgetter`` takes two keys or more).
    """
    write = _format_float if base is float else str
    text = {value: "" if value is None else write(value) for value in set(values)}
    if base is float and 0.0 in text:  # 0.0 and -0.0 are one key, but -0.0 is written "-0"
        return ["" if value is None else _format_float(value) for value in values]
    if len(text) < 2:
        return [*text.values()] * len(values)
    return itemgetter(*values)(text)


def format_table(types: dict[str, tuple[type, bool]], columns, rows=None) -> str:
    """The text of a table of the columns that ``types`` names and declares.

    ``columns`` holds each column's values, the row positions first.  With ``rows``,
    the other columns hold distinct records and row i is record ``rows[i]``.
    """
    positions, *values = columns
    cells = list(map(_column_cells, values, [base for base, _ in list(types.values())[1:]]))
    if rows is not None:  # each distinct record is joined once
        cells = [np.array(list(map(",".join, zip(*cells))), dtype=object)[rows].tolist()]
    lines = map(",".join, zip([str(p) for p in positions], *cells))
    return "\n".join([",".join(types), *lines]) + "\n"


def write_fresh(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a new file at ``path``, replacing the file that was there.

    The old file is unlinked rather than truncated, which spares the writeback a
    filesystem may start when a file is truncated and rewritten.  So a symlink or a
    hard link at ``path`` is replaced, and its target or other name keeps the old
    bytes; so does a reader that has the old file open.  The new file's mode comes
    from the umask, and the directory must be writable.  The text is written as it
    is, so a line ends in ``\n`` on every platform.
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    data = memoryview(text.encode("utf-8"))
    with open(path, "wb", buffering=0) as file:  # unbuffered: no tty probe, no copy
        while data:
            data = data[file.write(data):]


SHOWN_WIDTH = 80  # characters of a line that a refusal shows


def _first_difference(path, expected: str, found: str) -> ValueError:
    """The error for a file whose text is ``found`` where it should be ``expected``: the
    first line that differs, each side cut to SHOWN_WIDTH characters (a line's end included)."""
    pairs = zip_longest(expected.splitlines(keepends=True), found.splitlines(keepends=True),
                        fillvalue="")  # "" past a text's end, which no line of it is
    number, lines = next((n, pair) for n, pair in enumerate(pairs, start=1) if pair[0] != pair[1])
    want, got = (repr(line[:SHOWN_WIDTH] + "..." * (len(line) > SHOWN_WIDTH)) for line in lines)
    return ValueError(f"{path}:{number}: expected {want}, found {got}")
