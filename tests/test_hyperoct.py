import itertools

import pytest

from kronstab.hyperoct import (
    SizeCapError,
    dim_wreath,
    format_double_partition,
    hyperoct_coeff,
    parse_double_partition,
    total_size,
)
from kronstab.kronecker import kron
from kronstab.partitions import PartitionError, partitions_of

from oracles import wreath_character, wreath_tensor_oracle


def double_partitions(n):
    return [
        (plus, minus)
        for k in range(n + 1)
        for plus in partitions_of(k)
        for minus in partitions_of(n - k)
    ]


def test_parse_and_format():
    assert parse_double_partition("2;2") == ((2,), (2,))
    assert parse_double_partition("3,1;1") == ((3, 1), (1,))
    assert parse_double_partition("1;-") == ((1,), ())
    assert parse_double_partition("-;2,2") == ((), (2, 2))
    for dp in double_partitions(3):
        assert parse_double_partition(format_double_partition(dp)) == dp


def test_parse_needs_separator():
    with pytest.raises(PartitionError):
        parse_double_partition("2,1")


def test_dimension_at_identity():
    for n in range(1, 4):
        ident = (tuple([0] * n), tuple(range(n)))
        for dp in double_partitions(n):
            assert wreath_character(dp, n)[ident] == dim_wreath(dp)


def test_against_explicit_group_oracle():
    for n in range(1, 4):
        dps = double_partitions(n)
        for a, b, c in itertools.product(dps, repeat=3):
            assert hyperoct_coeff(a, b, c) == wreath_tensor_oracle(a, b, c)


def test_symmetric_in_first_two_arguments():
    dps = double_partitions(3)
    for a, b, c in itertools.combinations(dps, 3):
        assert hyperoct_coeff(a, b, c) == hyperoct_coeff(b, a, c)


def test_reduces_to_kronecker_with_empty_minus_parts():
    for n in range(1, 5):
        for a in partitions_of(n):
            for b in partitions_of(n):
                for c in partitions_of(n):
                    assert hyperoct_coeff((a, ()), (b, ()), (c, ())) == kron(a, b, c)


def test_dimension_consistency():
    for n in range(1, 6):
        dps = double_partitions(n)
        for a in dps:
            for b in dps:
                total = sum(
                    hyperoct_coeff(a, b, c) * dim_wreath(c) for c in dps
                )
                assert total == dim_wreath(a) * dim_wreath(b)


def test_scaled_square_pairs_stay_simple():
    for d in range(1, 3):
        alpha = ((2 * d,), (2 * d,))
        assert hyperoct_coeff(alpha, alpha, alpha) == 1


def test_size_cap():
    big = ((6, 5), (5, 5))
    with pytest.raises(SizeCapError) as err:
        hyperoct_coeff(big, big, big)
    assert str(err.value) == (
        "total size 21 of 6,5;5,5 / 6,5;5,5 / 6,5;5,5 exceeds the desk-scale limit of 20"
    )
    assert total_size(big) == 21


def test_size_20_query_under_the_default_cap():
    # One block of size 19, of which the cycle uses a single entry.
    a, c = ((10, 9), (1,)), ((10, 10), ())
    assert hyperoct_coeff(a, a, c) == 1


def test_list_input_equals_tuple_input():
    a, b, c = ((2, 1), (1,)), ((3,), (1,)), ((2,), (1, 1))
    as_lists = [[list(p), list(m)] for p, m in (a, b, c)]
    assert hyperoct_coeff(*as_lists) == hyperoct_coeff(a, b, c) == 1
    with pytest.raises(PartitionError):
        hyperoct_coeff(((2, 0), ()), b, c)


def test_size_18_query():
    # The value the earlier nested-loop engine gave, in 15.8 s.
    a = ((4, 3, 3), (4, 3, 1))
    assert hyperoct_coeff(a, a, a, size_cap=18) == 312073


def test_size_mismatch_is_zero():
    assert hyperoct_coeff(((2,), ()), ((1,), ()), ((1,), (1,))) == 0
