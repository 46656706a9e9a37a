import itertools
import sys
from math import comb

import pytest

from kronstab.lr import _skew, lr, schur_product_expand
from kronstab.partitions import PartitionError, check_partition, dim_gl, dim_sn, partitions_of

from oracles import is_horizontal_strip, lr_oracle


def _pairs(max_a, max_b):
    for a in range(max_a + 1):
        for b in range(max_b + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    yield lam, mu


def test_against_brute_force_fillings():
    for lam, mu in _pairs(3, 3):
        n = sum(lam) + sum(mu)
        for nu in partitions_of(n):
            assert lr(lam, mu, nu) == lr_oracle(lam, mu, nu)


def test_symmetric_in_first_two_arguments():
    for lam, mu in _pairs(4, 4):
        n = sum(lam) + sum(mu)
        for nu in partitions_of(n):
            assert lr(lam, mu, nu) == lr(mu, lam, nu)


def test_pieri_rule():
    # multiplying by a one-row shape adds a horizontal strip
    for lam in itertools.chain.from_iterable(
        partitions_of(a) for a in range(5)
    ):
        for k in range(1, 4):
            for nu in partitions_of(sum(lam) + k):
                expected = 1 if is_horizontal_strip(lam, nu) else 0
                assert lr(lam, (k,), nu) == expected


def test_two_row_even_shape_detects_equal_rows():
    # the only way to build (2d) from two shapes of size d is (d) + (d)
    for d in range(1, 6):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                expected = 1 if lam == mu == (d,) else 0
                assert lr(lam, mu, (2 * d,)) == expected


def test_product_expansion_against_brute_force_fillings():
    for lam, mu in _pairs(4, 4):
        n = sum(lam) + sum(mu)
        expansion = schur_product_expand(lam, mu)
        for nu in partitions_of(n):
            assert expansion.get(nu, 0) == lr_oracle(lam, mu, nu)


def test_product_expansion_matches_pointwise_lr():
    # the two engines share no code, so each checks the other; the
    # expansion holds no zero coefficients and no shape of another size,
    # and its keys are partitions: no zero row of the walk is left over
    for lam, mu in _pairs(6, 6):
        n = sum(lam) + sum(mu)
        expected = {nu: c for nu in partitions_of(n) if (c := lr(lam, mu, nu))}
        expansion = schur_product_expand(lam, mu)
        assert [check_partition(nu) for nu in expansion] == list(expansion)
        assert expansion == expected


def test_product_expansion_is_symmetric():
    # the expansion may swap the factors, or transpose both
    for lam, mu in _pairs(5, 5):
        assert schur_product_expand(lam, mu) == schur_product_expand(mu, lam)


def test_product_expansion_symmetric_group_dimensions():
    # inducing from S_a x S_b to S_{a+b}: sum of c f^nu = C(n, a) f^lam f^mu
    for lam, mu in _pairs(6, 6):
        n = sum(lam) + sum(mu)
        total = sum(c * dim_sn(nu) for nu, c in schur_product_expand(lam, mu).items())
        assert total == comb(n, sum(lam)) * dim_sn(lam) * dim_sn(mu)


def test_product_expansion_dimension_identity():
    for lam, mu in _pairs(3, 3):
        expansion = schur_product_expand(lam, mu)
        for m in range(1, 5):
            total = sum(c * dim_gl(nu, m) for nu, c in expansion.items())
            assert total == dim_gl(lam, m) * dim_gl(mu, m)


def test_size_mismatch_is_zero():
    assert lr((2,), (1,), (2, 1, 1)) == 0
    assert lr((3,), (1,), (3,)) == 0


def test_containment_required():
    assert lr((2, 2), (1,), (4, 1)) == 0
    assert lr((3,), (2,), (2, 2, 1)) == 0


def test_long_shapes_do_not_exhaust_the_stack():
    # skew shapes with more cells than the recursion limit: a search that
    # recursed once per cell would raise RecursionError
    limit = sys.getrecursionlimit()
    for k in (limit - 10, limit + 10, 3000):
        assert lr((k,), (k,), (2 * k,)) == 1
    for k in (limit - 10, limit + 10):
        assert lr((1,) * k, (1,) * k, (2,) * k) == 1
    assert lr((1200,), (1200,), (1200, 1200)) == 1
    assert lr((1200,), (1200,), (2398, 1, 1)) == 0


def test_letter_slots_grow_with_the_skew_cells_not_the_box():
    # nu/lam is one row of 2^14 cells inside a 2^15 box: its letters take
    # 2^14 + 2 slots, far under CELL_CAP, where a grid over the box of nu
    # would not fit
    assert lr((2**14,), (2**14,), (2**15,)) == 1


def test_long_product_expansions_do_not_exhaust_the_stack():
    # strips with more cells, or more rows, than the recursion limit: a
    # walk that recursed once per cell or per row would raise
    # RecursionError.  s_k s_k is the sum of s_(2k-j, j) over j <= k,
    # and 1^k x 1^k transposes to it.
    k = sys.getrecursionlimit() + 10
    assert len(schur_product_expand((k,), (k,))) == k + 1
    assert len(schur_product_expand((1,) * k, (1,) * k)) == k + 1
    assert schur_product_expand((1,) * k, (1,)) == {(2,) + (1,) * (k - 1): 1, (1,) * (k + 1): 1}


def test_long_column_times_long_column():
    # Backtracking from the one filling, each cell meets a letter v whose
    # v - 1 is not yet placed; the scan must stop there, not run on to
    # the row's cap, or 1^k x 1^k costs time quadratic in k (0.6 s
    # instead of 0.015 s on a 2-vCPU VM).
    k = 3000
    assert lr((1,) * k, (1,) * k, (2,) * k) == 1
    assert lr((1,) * k, (1,) * k, (2,) * (k - 1) + (1, 1)) == 1


def test_skew_rows_against_pointwise_lr():
    # The walk without a content counts every LR tableau of nu/lam by its
    # content: the row {mu: lr(lam, mu, nu)}, empty unless lam fits.
    for n in range(8):
        for nu in partitions_of(n):
            assert _skew((), nu) == {nu: 1}
            for s in range(n + 1):
                for lam in partitions_of(s):
                    expected = {mu: c for mu in partitions_of(n - s) if (c := lr(lam, mu, nu))}
                    assert _skew(lam, nu) == expected
    assert _skew((2, 2), (3, 1)) == {}
    assert _skew((3, 3), (4, 3, 2)) == {(3,): 1, (2, 1): 1}  # s_1 s_2


def test_skew_rows_of_long_shapes():
    # as for lr: no recursion per cell, and no letter scan past a missing
    # smaller letter
    k = 3000
    assert _skew((1,) * k, (2,) * k) == {(1,) * k: 1}
    assert _skew((k,), (2 * k,)) == {(k,): 1}
    assert _skew((k,), (k, k)) == {(k,): 1}


def test_list_input_equals_tuple_input():
    assert lr([2, 1], [1], [2, 1, 1]) == lr((2, 1), (1,), (2, 1, 1)) == 1
    with pytest.raises(PartitionError):
        lr((2, 0), (1,), (3,))
    assert lr.cache_info().currsize > 0
