import itertools
import random

import pytest

from kronstab import SizeCapError
from kronstab.hyperoct import (
    _lr_block,
    dim_wreath,
    hyperoct_coeff,
    total_size,
)
from kronstab.kronecker import kron
from kronstab.lr import _skew, schur_product_expand
from kronstab.partitions import PartitionError, format_double_partition, parse_double_partition, partitions_of

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


def test_dimension_validates_both_halves():
    assert dim_wreath(([2, 1], [1])) == dim_wreath(((2, 1), (1,))) == 8
    for bad in (((1, 2), ()), ((2,), (0,))):
        with pytest.raises(PartitionError):
            dim_wreath(bad)


def test_against_explicit_group_oracle():
    for n in range(1, 4):
        dps = double_partitions(n)
        for a, b, c in itertools.product(dps, repeat=3):
            assert hyperoct_coeff(a, b, c) == wreath_tensor_oracle(a, b, c)


def test_symmetric_in_first_two_arguments():
    dps = double_partitions(3)
    for a, b, c in itertools.combinations(dps, 3):
        assert hyperoct_coeff(a, b, c) == hyperoct_coeff(b, a, c)


def test_symmetric_in_all_arguments():
    # Every irreducible character of the hyperoctahedral group is real,
    # so the multiplicity is the same under every order of the triple.
    # The third shape is drawn among the constituents of the product of
    # the first two, so no triple is trivially zero.
    rng = random.Random(27)
    for _ in range(40):
        dps = double_partitions(rng.randint(1, 8))
        a, b = rng.choice(dps), rng.choice(dps)
        c = rng.choice([c for c in dps if hyperoct_coeff(a, b, c)])
        values = {hyperoct_coeff(*p) for p in itertools.permutations((a, b, c))}
        assert len(values) == 1, (a, b, c)


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


def test_lr_blocks_match_product_expansion():
    # Each row comes from one walk over the LR tableaux of lam/x; the
    # product expansion shares no code with it.  Every lam of size at
    # most 9, every degree s.
    for n in range(10):
        expected = {lam: [{} for _ in range(n + 1)] for lam in partitions_of(n)}
        for s in range(n + 1):
            for x in partitions_of(s):
                for y in partitions_of(n - s):
                    for lam, c in schur_product_expand(x, y).items():
                        expected[lam][s].setdefault(x, {})[y] = c
        for lam, blocks in expected.items():
            for s, block in enumerate(blocks):
                assert _lr_block(lam, s) == block, (lam, s)


def test_lr_block_rows_are_shared_and_left_unchanged():
    # This query reads the blocks of degree 2 of (3,2,1) and of degree 4
    # of (4,1,1), among others.
    a, b, c = ((3, 2, 1), (2, 1, 1)), ((6,), (1, 1, 1, 1)), ((4, 1, 1), (4,))
    used = (((3, 2, 1), 2), ((4, 1, 1), 4))
    before = {key: {x: dict(row) for x, row in _lr_block(*key).items()} for key in used}
    assert hyperoct_coeff(a, b, c) == 2
    for (lam, s), block in before.items():
        rows = _lr_block(lam, s)
        assert all(rows[x] is _skew(x, lam) for x in rows)
        assert rows == block


@pytest.mark.parametrize("triple, expected", [
    ("4,2,2,1;2^3,1 / 6,1^4;2^3 / 7,7,1;1", 48),
    ("7,2,2;3,2 / 2^4;6,2 / 3,2^3;4,2,1", 2228),
    ("3,3,2,1,1;2^3 / 4,2,1;6,1^3 / 4,2,1;4,2,2,1", 53209),
    ("5,3,3;3,3 / 3,2,2,1^4;3,1^3 / 2,2,1^7;4,2", 1104),
    ("8,2,2;2,2,1 / 4,1,1;3,2^4 / 11;3,2,1", 11),
    ("2,1^4;7,4,1 / 3,1^3;7,4,1 / 5,3,2,1,1;3,1^3", 101286),
    ("4,3,3,1,1;4,2 / 4,2,2;3,3,1^4 / 3,3,1,1;9,1", 13039),
    ("5,4,2,2,1^5;- / 2;7,7,1,1 / 2;4^3,2,2", 507),
    ("3^3,1,1;4,1^4 / 1;3^3,2,2,1^5 / 6,3;2^5", 92),
    ("2,2,1^7;4,4 / 5,2,1,1;2,2,1^6 / 2^5,1;3,3,2", 524),
    ("8,3,2,2;2,2,1 / 6,1,1;5,3,3,1 / 1^5;6,5,1^4", 43522),
    ("7,2^3,1;4,1,1 / 2,1^3;7,4,2,2 / 1;5,4,1^10", 3462),
])
def test_pinned_values_at_sizes_16_to_20(triple, expected):
    # Two or three triples of each total size 16-20, in that order; the
    # values are those of the engine that traced all eight blocks around
    # the cycle for every term.
    assert hyperoct_coeff(*map(parse_double_partition, triple.split("/"))) == expected
