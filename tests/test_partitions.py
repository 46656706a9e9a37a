import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronstab.bounds import bound_values
from kronstab.kronecker import kron
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
)

from oracles import ssyt_weights, standard_tableaux_count, z_order

partitions = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_parse_examples():
    assert parse_partition("2^3,1^4") == (2, 2, 2, 1, 1, 1, 1)
    assert parse_partition("8,5,2") == (8, 5, 2)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert parse_partition(" 3 , 1 ") == (3, 1)


def test_non_partitions_raise_named_errors():
    with pytest.raises(PartitionError, match=r"got \(1, 2\)$"):
        conjugate((1, 2))
    with pytest.raises(PartitionError, match=r"got 0$"):
        conjugate((0,))
    with pytest.raises(PartitionError, match=r"got None$"):
        check_partition(None)
    with pytest.raises(PartitionError, match=r"got 3$"):
        parse_partition(3)


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
    # Each bad input, and the text its message must name; a float, a
    # bool or a string part fails the fast check and is named by the loop.
    table = [
        ((1.0,), "1.0"),
        ((2, True), "True"),
        (("1",), "'1'"),
        ((0,), "0"),
        ((2, -1), "-1"),
        ((1, 2), "(1, 2)"),
        ((2, (1,)), "(1,)"),
    ]
    for bad, named in table:
        with pytest.raises(PartitionError) as info:
            check_partition(bad)
        assert named in str(info.value), bad
    assert check_partition([3, 1, 1]) == check_partition((3, 1, 1)) == (3, 1, 1)
    assert check_partition([]) == check_partition(()) == ()


def test_bool_parts_rejected():
    # True == 1, so these calls once returned values for a triple of bools.
    with pytest.raises(PartitionError, match="got True"):
        kron((True, True), (2,), (1, 1))
    with pytest.raises(PartitionError, match="got True"):
        bound_values("murnaghan", (2, True), (2, 1), (3,))


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


def test_dimensions_validate_their_shape():
    # Validated before the cache: a list works, and a non-partition is a
    # PartitionError, not a failed exactness check or a silent 0.
    assert dim_sn([3, 1]) == dim_sn((3, 1)) == 3
    assert dim_gl([2, 1], 3) == dim_gl((2, 1), 3) == 8
    for bad in ((1, 2), (2, 0), (2, -1)):
        with pytest.raises(PartitionError):
            dim_sn(bad)
        with pytest.raises(PartitionError):
            dim_gl(bad, 3)


def test_z_order_class_sizes():
    for n in range(1, 9):
        total = sum(math.factorial(n) // z_order(rho) for rho in partitions_of(n))
        assert total == math.factorial(n)
