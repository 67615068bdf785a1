"""format_table formats each distinct value of a column once, with the per-cell rule's bytes."""

import random

import pytest

from dpvote import LedgerEntry, PrivacyLedger, _table
from dpvote._table import format_table
from dpvote.accountant import _ROW_TYPES
from dpvote.pipeline import _QUERY_TYPES


def _cell(value, base):
    # the per-cell rule: ints in full, floats in their shortest round-trip form without
    # the .0 of an integral value, None as an empty cell
    if value is None:
        return ""
    return repr(float(value)).removesuffix(".0") if base is float else str(value)


def _per_cell_table(types, columns):
    lines = [",".join(types)]
    for row in zip(*columns):
        lines.append(",".join(_cell(value, base) for value, (base, _) in zip(row, types.values())))
    return "\n".join(lines) + "\n"


# 0 and 0.0 are one dict key, and so are 0.0 and -0.0; ints beyond int64 stay exact
INTS = (0, 1, 7, -3, 2 ** 63, -(2 ** 64) - 1, 10 ** 30)
FLOATS = (0.0, -0.0, float("inf"), float("-inf"), 1.0, 0.1, 1 / 3, 5e-324, 1e300, 0, 2, 2 ** 70)


def _random_table(rng):
    types = {"index": (int, False)}
    for i in range(rng.randint(1, 5)):
        types[f"c{i}"] = (rng.choice([int, float]), rng.random() < 0.5)
    size = rng.randint(0, 60)
    columns = [list(range(size))]
    for base, optional in list(types.values())[1:]:
        pool = rng.sample(INTS if base is int else FLOATS, rng.randint(1, 4))
        pool += [None] * optional
        columns.append([rng.choice(pool) for _ in range(size)])
    return types, columns


def test_matches_the_per_cell_rule_on_random_tables():
    rng = random.Random(28)
    for _ in range(200):
        types, columns = _random_table(rng)
        assert format_table(types, columns) == _per_cell_table(types, columns)


def test_distinct_records_with_rows_match_the_per_cell_rule():
    rng = random.Random(29)
    for _ in range(200):
        types, distinct = _random_table(rng)
        if not distinct[0]:
            continue
        rows = [rng.randrange(len(distinct[0])) for _ in range(rng.randint(0, 40))]
        per_row = [list(range(len(rows)))] + [[column[r] for r in rows] for column in distinct[1:]]
        assert (format_table(types, [range(len(rows)), *distinct[1:]], rows=rows)
                == _per_cell_table(types, per_row))


@pytest.mark.parametrize("base", [int, float])
def test_each_distinct_value_is_formatted_once(monkeypatch, base):
    # no zero float, so no column takes the per-cell path that tells -0.0 from 0.0
    calls = []
    for name, write in (("str", str), ("_format_float", _table._format_float)):
        def counted(value, write=write):
            calls.append(value)
            return write(value)
        monkeypatch.setattr(_table, name, counted, raising=False)
    types = {"index": (int, False), "label": (int, False), "gap": (int, True), "x": (base, True)}
    columns = [list(range(1000)), [i % 10 for i in range(1000)],
               [None if i % 7 else i % 60 for i in range(1000)], [1 + i % 3 for i in range(1000)]]
    text = format_table(types, columns)
    assert text.count("\n") == 1001
    distinct = sum(len({v for v in column if v is not None}) for column in columns[1:])
    assert len(calls) <= 1000 + distinct  # the positions, then each distinct value at most once


# queries.csv and ledger.csv at 0, 1 and 2 rows, with a float column holding both 0.0 and -0.0;
# each expected text is the one the per-cell writer gave before cells were looked up in one call
QUERY_ROWS = [[0, 3, 3, None, 0, 1.0, 2.0], [1, 0, 1, 1, 7, -0.0, 0.0]]
QUERY_HEADER = "query_id,returned_label,clean_label,truth_label,gap,sensitivity,epsilon\n"
QUERY_TEXTS = [QUERY_HEADER, QUERY_HEADER + "0,3,3,,0,1,2\n",
               QUERY_HEADER + "0,3,3,,0,1,2\n1,0,1,1,7,-0,0\n"]
LEDGER_HEADER = "index,mechanism,gamma,sigma,sensitivity\n"
LEDGER_RECORDS = [["nzc-laplace", "nzc-gaussian", "lnmax"], [0.0, None, -0.0], [None, 2.5, None],
                  [0.5, 1.0, 1.0]]


@pytest.mark.parametrize("size", [0, 1, 2])
def test_queries_table_at_its_smallest_sizes(size):
    columns = [list(column) for column in zip(*QUERY_ROWS[:size])] or [[] for _ in _QUERY_TYPES]
    assert format_table(_QUERY_TYPES, columns) == QUERY_TEXTS[size]


@pytest.mark.parametrize("rows,text", [
    ([], LEDGER_HEADER),
    ([2], LEDGER_HEADER + "0,lnmax,-0,,1\n"),
    ([2, 0], LEDGER_HEADER + "0,lnmax,-0,,1\n1,nzc-laplace,0,,0.5\n"),
    ([1, 1], LEDGER_HEADER + "0,nzc-gaussian,,2.5,1\n1,nzc-gaussian,,2.5,1\n"),
])
def test_ledger_table_of_distinct_records_at_its_smallest_sizes(rows, text):
    assert format_table(_ROW_TYPES, [range(len(rows)), *LEDGER_RECORDS], rows=rows) == text


@pytest.mark.parametrize("size,text", [
    (0, LEDGER_HEADER),
    (1, LEDGER_HEADER + "0,nzc-laplace,0.1,,1\n"),
    (2, LEDGER_HEADER + "0,nzc-laplace,0.1,,1\n1,nzc-laplace,0.1,,0.36787944117144233\n"),
])
def test_exported_ledger_at_its_smallest_sizes(size, text):
    ledger = PrivacyLedger()
    if size:
        ledger.record(LedgerEntry("nzc-laplace", gamma=0.1, sensitivity=0.36787944117144233),
                      LedgerEntry("nzc-laplace", gamma=0.1, sensitivity=1.0), rows=[1, 0][:size])
    assert ledger.export_text() == text


@pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0, None, 2.0], [-0.0], [0.0] * 3])
def test_a_float_column_keeps_the_sign_of_each_zero(values):
    types = {"index": (int, False), "x": (float, True)}
    columns = [list(range(len(values))), values]
    assert format_table(types, columns) == _per_cell_table(types, columns)
