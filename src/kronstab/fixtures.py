"""Embedded reference tables and their recomputation.

Two comparison tables ship with the package, keyed by the ids "3.6.1"
(one-box growth direction ((1),(1),(1))) and "3.6.2" (growth direction
((1,1),(1,1),(2))).  Provenance is a property of a column: "fixture"
columns come from external sources whose formulas are not part of this
package and are only echoed, every other column is recomputed here and
compared against the stored value.  One cell is flagged, on its row, as
a known mismatch: the stored value disagrees with the formula
implemented here, and the discrepancy is reported rather than hidden.
"""

from typing import NamedTuple

from .partitions import Partition, format_triple
from .bounds import bound_values
from .stabilization import d_real

Triple = tuple[Partition, Partition, Partition]


class FixtureRow(NamedTuple):
    triple: Triple
    expected: tuple[int, ...]  # aligned with the table's columns
    known_mismatch: str | None = None  # column name


class TableFixture(NamedTuple):
    table_id: str
    family: str  # key of ``bounds.FAMILIES``
    columns: tuple[str, ...]
    rows: tuple[FixtureRow, ...]
    fixture_columns: frozenset[str] = frozenset()


TABLE_1 = TableFixture(
    "3.6.1", "murnaghan", ("D1", "Dm", "Dreal", "DB", "DV", "DBOR1", "DBOR2"), (
        FixtureRow(((8, 5, 2), (6, 5, 2, 2), (4, 4, 3, 3, 1)),
                   (6, 5, 5, 5, 5, 5, 6), known_mismatch="DBOR2"),
        FixtureRow(((4, 3, 3), (3, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1, 1)),
                   (4, 4, 3, 5, 5, 4, 4)),
        FixtureRow(((5, 5, 4, 4), (6, 6, 6), (3, 3, 2, 2, 2, 2, 1, 1, 1, 1)),
                   (5, 5, 5, 10, 11, 6, 9)),
        FixtureRow(((6, 5, 5), (8, 8), (4, 4, 3, 3, 2)),
                   (4, 4, 4, 6, 7, 4, 7)),
        FixtureRow(((5, 5, 5, 5), (4, 4, 4, 4, 4), (2, 2, 2, 2) + (1,) * 12),
                   (5, 4, 4, 13, 14, 6, 10)),
        FixtureRow(((6, 6, 6), (3,) * 6, (2,) * 6 + (1,) * 6),
                   (7, 6, 6, 11, 11, 7, 9)),
        FixtureRow(((5, 5, 4, 4), (6, 6, 6), (3,) + (2,) * 6 + (1,) * 3),
                   (4, 4, 4, 9, 11, 5, 8)),
        FixtureRow(((7, 6), (6, 5, 2), (7, 3, 2, 1)),
                   (3, 3, 3, 3, 4, 3, 3)),
        FixtureRow(((8, 4, 3, 3, 1), (7, 3, 3, 3, 3), (14, 3, 2)),
                   (0, 0, 0, 0, 0, 0, 0)),
        FixtureRow(((8, 5, 3, 1), (2,) + (1,) * 15, (4, 3, 3, 2, 2, 1, 1, 1)),
                   (3, 1, 1, 6, 7, 2, 6)),
        FixtureRow(((6, 6, 4), (8, 8), (5, 5, 4, 1, 1)),
                   (7, 6, 6, 7, 7, 7, 8)),
        FixtureRow(((8, 6, 6, 2, 1), (14, 5, 4), (5, 5, 5, 5, 3)),
                   (6, 6, 5, 6, 8, 5, 6)),
    ),
    fixture_columns=frozenset({"DV", "DBOR1"}),
)

TABLE_2 = TableFixture("3.6.2", "squares", ("D2", "Dreal"), (
    FixtureRow(((5, 5, 4, 4), (6, 6, 6), (3, 3, 2, 2, 2, 2, 1, 1, 1, 1)), (5, 4)),
    FixtureRow(((5, 5, 5, 5), (4, 4, 4, 4, 4), (2, 2, 2, 2) + (1,) * 12), (5, 4)),
    FixtureRow(((6, 5, 5), (6, 5, 5), (3, 3, 2, 2, 2, 2, 1, 1)), (4, 4)),
    FixtureRow(((8, 5, 2), (6, 5, 2, 2), (4, 4, 3, 2, 2)), (4, 4)),
    FixtureRow(((4, 3, 3), (4, 3, 3), (2, 2, 2, 1, 1, 1, 1)), (3, 3)),
    FixtureRow(((5, 4, 4), (5, 4, 4), (3, 2, 2, 2, 1, 1, 1, 1)), (3, 3)),
    FixtureRow(((6, 5, 5), (8, 8), (4, 4, 3, 3, 2)), (3, 2)),
    FixtureRow(((6, 6, 6), (9, 9), (6, 4, 3, 3, 2)), (3, 1)),
    FixtureRow(((10, 8, 6), (12, 12), (6, 5, 4, 4, 3, 2)), (1, 1)),
    FixtureRow(((8, 2), (6, 4), (5, 4, 1)), (1, 1)),
    FixtureRow(((6, 6), (8, 4), (6, 4, 2)), (0, 0)),
    FixtureRow(((20, 5), (13, 12), (11, 10, 3, 1)), (2, 1)),
))

TABLES: dict[str, TableFixture] = {t.table_id: t for t in (TABLE_1, TABLE_2)}


def evaluate_row(table: TableFixture, row: FixtureRow) -> dict:
    """Recompute every bound of the table's family and the certified
    index of one row, and compare them with the stored values.

    Returns the row as the table's JSON prints it: the triple's text and,
    per column, the expected and computed values (computed is None for
    fixture columns), the provenance and a status of "match",
    "mismatch-known" or "mismatch".
    """
    computed = bound_values(table.family, *row.triple)
    computed["Dreal"] = d_real(table.family, row.triple).d_real
    cells = {}
    for name, expected in zip(table.columns, row.expected):
        if name in table.fixture_columns:
            got, provenance, status = None, "fixture", "match"
        else:
            got, provenance = computed[name], "computed"
            status = ("match" if got == expected
                      else "mismatch-known" if name == row.known_mismatch else "mismatch")
        cells[name] = {"expected": expected, "computed": got,
                       "provenance": provenance, "status": status}
    return {"triple": format_triple(row.triple), "cells": cells}
