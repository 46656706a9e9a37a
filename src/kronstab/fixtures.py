"""Embedded reference tables and their recomputation.

Two comparison tables ship with the package, keyed by the ids "3.6.1"
(one-box growth direction ((1),(1),(1))) and "3.6.2" (growth direction
((1,1),(1,1),(2))).  Every expected cell carries a provenance tag:
"computed" cells are recomputed here and compared against the stored
value, "fixture" cells come from external sources whose formulas are not
part of this package and are only echoed.  One cell is flagged as a
known mismatch: the stored value disagrees with the formula implemented
here, and the discrepancy is reported rather than hidden.
"""

from dataclasses import dataclass

from .partitions import Partition, format_triple
from .bounds import CERTIFIED, bound_values
from .stabilization import DIRECTIONS, d_real

Triple = tuple[Partition, Partition, Partition]


@dataclass(frozen=True)
class Cell:
    expected: int
    provenance: str  # "computed" or "fixture"
    known_mismatch: bool = False


@dataclass(frozen=True)
class FixtureRow:
    triple: Triple
    cells: tuple[tuple[str, Cell], ...]

    def cell(self, name: str) -> Cell:
        return dict(self.cells)[name]


@dataclass(frozen=True)
class TableFixture:
    table_id: str
    family: str  # stabilization direction key
    columns: tuple[str, ...]
    rows: tuple[FixtureRow, ...]


def _row(triple: Triple, names: tuple[str, ...], values: tuple[int, ...],
         fixture_cols: frozenset[str] = frozenset(),
         mismatch_cols: frozenset[str] = frozenset()) -> FixtureRow:
    cells = tuple(
        (
            name,
            Cell(
                value,
                "fixture" if name in fixture_cols else "computed",
                name in mismatch_cols,
            ),
        )
        for name, value in zip(names, values)
    )
    return FixtureRow(triple, cells)


_COLS_1 = ("D1", "Dm", "Dreal", "DB", "DV", "DBOR1", "DBOR2")
_FIXTURE_1 = frozenset({"DV", "DBOR1"})

_ROWS_1 = (
    _row(((8, 5, 2), (6, 5, 2, 2), (4, 4, 3, 3, 1)), _COLS_1,
         (6, 5, 5, 5, 5, 5, 6), _FIXTURE_1, frozenset({"DBOR2"})),
    _row(((4, 3, 3), (3, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1, 1)), _COLS_1,
         (4, 4, 3, 5, 5, 4, 4), _FIXTURE_1),
    _row(((5, 5, 4, 4), (6, 6, 6), (3, 3, 2, 2, 2, 2, 1, 1, 1, 1)), _COLS_1,
         (5, 5, 5, 10, 11, 6, 9), _FIXTURE_1),
    _row(((6, 5, 5), (8, 8), (4, 4, 3, 3, 2)), _COLS_1,
         (4, 4, 4, 6, 7, 4, 7), _FIXTURE_1),
    _row(((5, 5, 5, 5), (4, 4, 4, 4, 4),
          (2, 2, 2, 2) + (1,) * 12), _COLS_1,
         (5, 4, 4, 13, 14, 6, 10), _FIXTURE_1),
    _row(((6, 6, 6), (3,) * 6, (2,) * 6 + (1,) * 6), _COLS_1,
         (7, 6, 6, 11, 11, 7, 9), _FIXTURE_1),
    _row(((5, 5, 4, 4), (6, 6, 6), (3,) + (2,) * 6 + (1,) * 3), _COLS_1,
         (4, 4, 4, 9, 11, 5, 8), _FIXTURE_1),
    _row(((7, 6), (6, 5, 2), (7, 3, 2, 1)), _COLS_1,
         (3, 3, 3, 3, 4, 3, 3), _FIXTURE_1),
    _row(((8, 4, 3, 3, 1), (7, 3, 3, 3, 3), (14, 3, 2)), _COLS_1,
         (0, 0, 0, 0, 0, 0, 0), _FIXTURE_1),
    _row(((8, 5, 3, 1), (2,) + (1,) * 15,
          (4, 3, 3, 2, 2, 1, 1, 1)), _COLS_1,
         (3, 1, 1, 6, 7, 2, 6), _FIXTURE_1),
    _row(((6, 6, 4), (8, 8), (5, 5, 4, 1, 1)), _COLS_1,
         (7, 6, 6, 7, 7, 7, 8), _FIXTURE_1),
    _row(((8, 6, 6, 2, 1), (14, 5, 4), (5, 5, 5, 5, 3)), _COLS_1,
         (6, 6, 5, 6, 8, 5, 6), _FIXTURE_1),
)

_COLS_2 = ("D2", "Dreal")

_ROWS_2 = (
    _row(((5, 5, 4, 4), (6, 6, 6), (3, 3, 2, 2, 2, 2, 1, 1, 1, 1)),
         _COLS_2, (5, 4)),
    _row(((5, 5, 5, 5), (4, 4, 4, 4, 4), (2, 2, 2, 2) + (1,) * 12),
         _COLS_2, (5, 4)),
    _row(((6, 5, 5), (6, 5, 5), (3, 3, 2, 2, 2, 2, 1, 1)),
         _COLS_2, (4, 4)),
    _row(((8, 5, 2), (6, 5, 2, 2), (4, 4, 3, 2, 2)), _COLS_2, (4, 4)),
    _row(((4, 3, 3), (4, 3, 3), (2, 2, 2, 1, 1, 1, 1)), _COLS_2, (3, 3)),
    _row(((5, 4, 4), (5, 4, 4), (3, 2, 2, 2, 1, 1, 1, 1)), _COLS_2, (3, 3)),
    _row(((6, 5, 5), (8, 8), (4, 4, 3, 3, 2)), _COLS_2, (3, 2)),
    _row(((6, 6, 6), (9, 9), (6, 4, 3, 3, 2)), _COLS_2, (3, 1)),
    _row(((10, 8, 6), (12, 12), (6, 5, 4, 4, 3, 2)), _COLS_2, (1, 1)),
    _row(((8, 2), (6, 4), (5, 4, 1)), _COLS_2, (1, 1)),
    _row(((6, 6), (8, 4), (6, 4, 2)), _COLS_2, (0, 0)),
    _row(((20, 5), (13, 12), (11, 10, 3, 1)), _COLS_2, (2, 1)),
)

TABLE_1 = TableFixture("3.6.1", "murnaghan", _COLS_1, _ROWS_1)
TABLE_2 = TableFixture("3.6.2", "squares", _COLS_2, _ROWS_2)

TABLES: dict[str, TableFixture] = {t.table_id: t for t in (TABLE_1, TABLE_2)}


@dataclass(frozen=True)
class CellResult:
    name: str
    expected: int
    computed: int | None  # None for fixture-only columns
    provenance: str
    status: str  # "match" | "mismatch-known" | "mismatch"


@dataclass(frozen=True)
class RowResult:
    triple: Triple
    cells: tuple[CellResult, ...]

    @property
    def triple_text(self) -> str:
        return format_triple(self.triple)

    def cell(self, name: str) -> CellResult:
        return {c.name: c for c in self.cells}[name]


def evaluate_row(table: TableFixture, row: FixtureRow) -> RowResult:
    """Recompute every bound of the table's family and the certified
    index of one row, and compare them with the stored cells."""
    computed = bound_values(table.family, *row.triple)
    cert = CERTIFIED[table.family]
    res = d_real(row.triple, DIRECTIONS[table.family], computed[cert], certificate=cert)
    computed["Dreal"] = res.d_real
    cells = []
    for name, cell in row.cells:
        if cell.provenance == "fixture":
            cells.append(CellResult(name, cell.expected, None, "fixture", "match"))
            continue
        got = computed[name]
        status = ("match" if got == cell.expected
                  else "mismatch-known" if cell.known_mismatch else "mismatch")
        cells.append(CellResult(name, cell.expected, got, "computed", status))
    return RowResult(row.triple, tuple(cells))
