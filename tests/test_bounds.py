import itertools
import random

import pytest

from kronstab import bounds
from kronstab.bounds import (
    FAMILIES,
    DegenerateTripleError,
    bound_D1,
    bound_D2,
    bound_DB,
    bound_DB_improved,
    bound_DBOR2,
    bound_DBOR2_improved,
    bound_D2E2,
    bound_Dm,
    bound_E2,
    bound_hyperoct,
    bound_values,
)
from kronstab.fixtures import TABLE_1, TABLE_2
from kronstab.partitions import PartitionError, check_triple, partitions_of


def _random_triples(count, seed=7, max_size=18):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, max_size)
        ps = partitions_of(n)
        lam, mu, nu = (rng.choice(ps) for _ in range(3))
        if len(lam) >= 2 and len(mu) >= 2:
            out.append((lam, mu, nu))
    return out


def _stored(table, row, name):
    return row.expected[table.columns.index(name)]


def test_one_box_bound_on_reference_rows():
    for row in TABLE_1.rows:
        assert bound_D1(*row.triple) == _stored(TABLE_1, row, "D1")


def test_converted_bound_on_reference_rows():
    for row in TABLE_1.rows:
        assert bound_DB(*row.triple) == _stored(TABLE_1, row, "DB")


def test_second_converted_bound_on_reference_rows():
    for row in TABLE_1.rows:
        expected = _stored(TABLE_1, row, "DBOR2")
        got = bound_DBOR2(*row.triple)
        if row.known_mismatch == "DBOR2":
            assert got != expected  # the recorded discrepancy stays
        else:
            assert got == expected


def test_combined_bound_on_reference_rows():
    for row in TABLE_1.rows:
        assert bound_Dm(*row.triple) == _stored(TABLE_1, row, "Dm")


def test_two_box_bound_on_reference_rows():
    for row in TABLE_2.rows:
        assert bound_D2(*row.triple) == _stored(TABLE_2, row, "D2")


def test_improvements_never_worse():
    triples = [row.triple for row in TABLE_1.rows] + _random_triples(50)
    for lam, mu, nu in triples:
        assert bound_DB_improved(lam, mu, nu) <= bound_DB(lam, mu, nu)
        assert bound_DBOR2_improved(lam, mu, nu) <= bound_DBOR2(lam, mu, nu)


def test_combined_bound_never_worse_than_parts():
    for lam, mu, nu in _random_triples(30, seed=11):
        dm = bound_Dm(lam, mu, nu)
        assert dm <= bound_DB_improved(lam, mu, nu)
        assert dm <= bound_DBOR2_improved(lam, mu, nu)


def test_values_clamp_at_zero():
    for lam, mu, nu in _random_triples(30, seed=13):
        for f in (bound_DB, bound_DBOR2, bound_DBOR2_improved, bound_Dm):
            assert f(lam, mu, nu) >= 0


def test_degenerate_triples():
    # two single-row partitions: a constant Kronecker delta from d = 0
    assert bound_D1((3,), (3,), (2, 1)) == 0
    assert bound_Dm((3,), (3,), (2, 1)) == 0
    assert bound_values("murnaghan", (3,), (3,), (2, 1))["D1"] == 0
    with pytest.raises(DegenerateTripleError):
        bound_D1((3,), (3,), (2, 1), minimize_over_orderings=False)
    for squares in (bound_D2, bound_E2, bound_D2E2):
        with pytest.raises(DegenerateTripleError):
            squares((3,), (2, 1), (2, 1))
    with pytest.raises(DegenerateTripleError):
        bound_hyperoct(((3,), (1, 1)), ((2, 2), (1,)), ((2, 1, 1), (1,)))


def test_every_bound_rejects_unequal_sizes():
    # Each public bound validates its triple as bound_values does, so a
    # triple of unequal sizes gets the same error, not a number.
    cases = [
        ("murnaghan", ((3, 1), (2, 2), (9,))),
        ("murnaghan", ((2, 1), (2, 1), (2,))),
        ("squares", ((2, 1), (2, 1), (5,))),
        ("hyperoct", (((3, 1), (1,)), ((2, 2), (1,)), ((2, 1, 1), (2, 1, 1)))),
    ]
    for family, triple in cases:
        with pytest.raises(ValueError) as expected:
            bound_values(family, *triple)
        assert "differ; all three partitions must have the same size" in str(expected.value)
        calls = [getattr(bounds, fn) for fn in FAMILIES[family].bounds.values()]
        if family == "murnaghan":
            calls.append(lambda *t: bound_D1(*t, minimize_over_orderings=False))
        for call in calls:
            with pytest.raises(ValueError) as err:
                call(*triple)
            assert str(err.value) == str(expected.value)


def test_hyperoct_bound_validates_halves():
    with pytest.raises(PartitionError):
        bound_hyperoct(((1, 2), (1,)), ((2, 1), ()), ((2, 1), (1,)))
    with pytest.raises(PartitionError):
        bound_hyperoct(((2, 1), (0,)), ((2, 1), ()), ((2, 1), (1,)))
    triple = (((3, 1), (1,)), ((2, 2), (1,)), ((2, 1), (1, 1)))
    as_lists = [[list(plus), list(minus)] for plus, minus in triple]
    assert bound_hyperoct(*as_lists) == bound_hyperoct(*triple)


def test_two_box_bound_swap_symmetric():
    for lam, mu, nu in _random_triples(30, seed=17):
        assert bound_D2(lam, mu, nu) == bound_D2(mu, lam, nu)
        assert bound_E2(lam, mu, nu) == bound_E2(mu, lam, nu)


def test_squares_maximum_covers_where_d2_fails():
    # D2 is 0 on this triple but its sequence is 1, 2, 2, 2; E2 is 1.
    assert bound_D2((3, 1), (3, 1), (2, 2)) == 0
    assert bound_E2((3, 1), (3, 1), (2, 2)) == bound_D2E2([3, 1], [3, 1], [2, 2]) == 1
    # On table 3.6.2 the maximum raises rows 2, 4, 10 and 12 above D2.
    raised = {i: (bound_D2(*row.triple), bound_D2E2(*row.triple))
              for i, row in enumerate(TABLE_2.rows, 1)
              if bound_D2E2(*row.triple) != bound_D2(*row.triple)}
    assert raised == {2: (5, 6), 4: (4, 5), 10: (1, 2), 12: (2, 4)}


def test_reordering_only_helps():
    for row in TABLE_1.rows:
        lam, mu, nu = row.triple
        fixed = bound_D1(lam, mu, nu, minimize_over_orderings=False)
        assert bound_D1(lam, mu, nu) <= fixed


def test_one_box_bound_minimizes_over_all_orderings():
    # The fixed form is symmetric in its first two partitions, so three
    # role choices reach every value the six orderings do.
    for n in range(7):
        for triple in itertools.product(partitions_of(n), repeat=3):
            fixed = [
                bound_D1(a, b, c, minimize_over_orderings=False)
                for a, b, c in itertools.permutations(triple)
                if len(a) >= 2 and len(b) >= 2
            ]
            assert bound_D1(*triple) == min(fixed, default=0)


def test_hyperoct_bound_reduces_to_one_box_bound():
    cases = [
        ((8, 5, 2), (6, 5, 2, 2), (4, 4, 3, 3, 1)),
        ((7, 6), (6, 5, 2), (7, 3, 2, 1)),
        ((4, 3, 3), (3, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1, 1)),
    ]
    for lam, mu, nu in cases:
        assert bound_hyperoct((lam, ()), (mu, ()), (nu, ())) == bound_D1(
            lam, mu, nu, minimize_over_orderings=False
        )


def test_bound_values():
    values = bound_values("murnaghan", *TABLE_1.rows[0].triple)
    assert list(values) == ["D1", "DB", "DB_improved", "DBOR2", "DBOR2_improved", "Dm"]
    assert values["D1"] == 6 and values["Dm"] == 5 and values["DB"] == 5
    assert bound_values("squares", *TABLE_2.rows[9].triple) == {"D2": 1, "D2E2": 2}
    double = (((3, 1), (1,)), ((2, 2), (1,)), ((2, 1, 1), (1,)))
    assert bound_values("hyperoct", *double) == {"D_hyperoct": bound_hyperoct(*double)}
    with pytest.raises(ValueError):
        bound_values("nope", (1,), (1,), (1,))
    for family in FAMILIES.values():
        assert family.certified in family.bounds


@pytest.mark.parametrize("name", FAMILIES)
def test_family_declares_the_kind_of_its_direction(name):
    # The record, not the shape of the data, says whether a family's
    # triples hold double partitions; its own direction must agree.
    record = FAMILIES[name]
    assert check_triple(record.direction, record.double) == record.direction
    with pytest.raises(PartitionError):
        check_triple(record.direction, not record.double)
    assert record.double == (name == "hyperoct")
