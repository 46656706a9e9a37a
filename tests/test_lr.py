import itertools
import sys
from math import comb

import pytest

from kronstab.lr import lr, schur_product_expand
from kronstab.partitions import PartitionError, dim_gl, dim_sn, partitions_of

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
    # expansion holds no zero coefficients and no shape of another size
    for lam, mu in _pairs(6, 6):
        n = sum(lam) + sum(mu)
        expected = {nu: c for nu in partitions_of(n) if (c := lr(lam, mu, nu))}
        assert schur_product_expand(lam, mu) == expected


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


def test_list_input_equals_tuple_input():
    assert lr([2, 1], [1], [2, 1, 1]) == lr((2, 1), (1,), (2, 1, 1)) == 1
    with pytest.raises(PartitionError):
        lr((2, 0), (1,), (3,))
    assert lr.cache_info().currsize > 0
