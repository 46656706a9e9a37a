import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronstab.partitions import (
    PartitionError,
    add_scaled,
    check_partition,
    conjugate,
    dim_gl,
    dim_sn,
    format_partition,
    parse_partition,
    part_at,
    partitions_of,
    z_order,
)

from oracles import ssyt_weights, standard_tableaux_count

partitions = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_parse_examples():
    assert parse_partition("2^3,1^4") == (2, 2, 2, 1, 1, 1, 1)
    assert parse_partition("8,5,2") == (8, 5, 2)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert parse_partition(" 3 , 1 ") == (3, 1)


def test_parse_rejects_garbage():
    for bad in ("1,2", "0", "a", "2,,1", "3^0^1"):
        with pytest.raises(PartitionError):
            parse_partition(bad)


def test_format_examples():
    assert format_partition(()) == "-"
    assert format_partition((2, 2, 2, 1, 1, 1, 1)) == "2^3,1^4"
    assert format_partition((8, 5, 2)) == "8,5,2"


@given(partitions)
def test_parse_format_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_check_partition_rejects():
    for bad in ((1, 2), (2, -1), (0,)):
        with pytest.raises(PartitionError):
            check_partition(bad)


@given(partitions)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_conjugate_against_column_counts():
    # the run-length construction against counting the rows longer than
    # each column index
    for n in range(21):
        for lam in partitions_of(n):
            expected = tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()
            assert conjugate(lam) == expected


def test_part_at():
    assert part_at((3, 2), 1) == 3
    assert part_at((3, 2), 2) == 2
    assert part_at((3, 2), 5) == 0


def test_add_scaled():
    assert add_scaled((3, 2), 2, (1, 1)) == (5, 4)
    assert add_scaled((3,), 0, (1,)) == (3,)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


def test_partitions_of_max_part():
    assert partitions_of(4, max_part=2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_dim_sn_against_tableau_count():
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert dim_sn(lam) == standard_tableaux_count(lam)


def test_dim_sn_conjugate_invariant():
    for lam in partitions_of(6):
        assert dim_sn(lam) == dim_sn(conjugate(lam))


def test_dim_sn_squares_sum():
    for n in range(1, 8):
        assert sum(dim_sn(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_dim_gl_against_tableau_count():
    for size in range(1, 6):
        for lam in partitions_of(size):
            for n in range(1, 5):
                assert dim_gl(lam, n) == len(ssyt_weights(lam, n))


def test_z_order_class_sizes():
    for n in range(1, 9):
        total = sum(math.factorial(n) // z_order(rho) for rho in partitions_of(n))
        assert total == math.factorial(n)
