import itertools

import pytest

from kronstab import kronecker
from kronstab.kronecker import KRON_SIZE_CAP, kron, kron_block, weak_stability_probe
from kronstab.partitions import ConsistencyError, SizeCapError, add_scaled, conjugate, dim_sn, partitions_of


def test_against_group_average_oracle():
    from oracles import kron_oracle

    for n in range(1, 5):
        ps = partitions_of(n)
        for a, b, c in itertools.product(ps, repeat=3):
            assert kron(a, b, c) == kron_oracle(a, b, c)


def test_symmetric_in_all_arguments():
    for n in range(2, 6):
        ps = partitions_of(n)
        for a, b, c in itertools.combinations_with_replacement(ps, 3):
            values = {
                kron(*perm) for perm in itertools.permutations((a, b, c))
            }
            assert len(values) == 1


def test_trivial_component():
    # tensoring with the trivial representation
    for n in range(1, 7):
        for a in partitions_of(n):
            for b in partitions_of(n):
                assert kron(a, b, (n,)) == (1 if a == b else 0)


def test_sign_component():
    for n in range(1, 7):
        for a in partitions_of(n):
            for b in partitions_of(n):
                assert kron(a, b, (1,) * n) == (1 if a == conjugate(b) else 0)


def test_conjugation_invariance():
    for n in range(2, 6):
        ps = partitions_of(n)
        for a, b, c in itertools.product(ps, repeat=3):
            assert kron(a, b, c) == kron(conjugate(a), conjugate(b), c)


def test_dimension_consistency():
    for n in range(1, 7):
        ps = partitions_of(n)
        for a in ps:
            for b in ps:
                total = sum(kron(a, b, c) * dim_sn(c) for c in ps)
                assert total == dim_sn(a) * dim_sn(b)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        kron((2,), (1, 1), (3,))


def test_size_cap():
    assert KRON_SIZE_CAP == 50
    with pytest.raises(SizeCapError) as err:
        kron((51,), (50, 1), (26, 25))
    assert str(err.value) == (
        "size 51 of 51 / 50,1 / 26,25 exceeds the desk-scale limit of 50"
    )


def test_table_row_grown_beyond_oracle_range():
    # Table 3.6.1 row 3 at d = 12 along (1), (1), (1): n = 30, far above
    # what the group-average oracle can check.
    row = ((5, 5, 4, 4), (6, 6, 6), (3, 3, 2, 2, 2, 2, 1, 1, 1, 1))
    assert kron(*(add_scaled(lam, 12, (1,)) for lam in row)) == 318


def test_weak_stability_probe_examples():
    assert weak_stability_probe((1,), (1,), (1,), 4) == (True, None, None)
    assert weak_stability_probe((1, 1), (1, 1), (2,), 4) == (True, None, None)
    ok, d, value = weak_stability_probe((1, 1), (1, 1), (1, 1), 4)
    assert not ok and d == 1 and value == 0


def test_weak_stability_probe_rejects():
    with pytest.raises(ValueError):
        weak_stability_probe((1,), (1,), (1,), 0)
    with pytest.raises(ValueError):
        weak_stability_probe((2,), (1,), (1,), 3)


def test_block_equals_pointwise_kron():
    for n in range(9):
        ps = partitions_of(n)
        for d in ps:
            block = kron_block(d, ps, ps)
            assert block == {x: {y: g for y in ps if (g := kron(d, x, y))} for x in ps}


def test_block_stores_no_zeros_and_keeps_every_row():
    ps = partitions_of(6)
    block = kron_block((3, 3), ps, ps[::2])
    assert list(block) == list(ps)
    assert all(g > 0 for row in block.values() for g in row.values())
    assert block[(1,) * 6] == {}  # (3,3) times the sign is (2,2,2), not listed
    assert kron_block([2, 1], [[2, 1]], [[3]]) == {(2, 1): {(3,): 1}}


def test_block_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kron_block((2,), [(2,), (1,)], [(2,)])
    with pytest.raises(ValueError):
        kron_block((2,), [(2,)], [(1, 1), (3,)])
    with pytest.raises(SizeCapError) as err:
        kron_block((51,), [(51,)], [(50, 1)])
    assert str(err.value) == "size 51 of the block of 51 exceeds the desk-scale limit of 50"


@pytest.mark.parametrize("sizes, message", [
    # true class sizes of 3 are (1, 3, 2), in class order 1^3, (2,1), (3)
    ((2, 3, 2), "class sum 14 not divisible by 3! for (2, 1), (2, 1), (2, 1)"),
    ((1, 3, 14), "negative multiplicity -1 for (2, 1), (2, 1), (2, 1)"),
])
def test_block_and_kron_share_exactness_checks(monkeypatch, sizes, message):
    monkeypatch.setattr(kronecker, "size_column", lambda n: sizes)
    for compute in (lambda: kron_block((2, 1), [(2, 1)], [(2, 1)]), lambda: kron((2, 1), (2, 1), (2, 1))):
        with pytest.raises(ConsistencyError) as err:
            compute()
        assert str(err.value) == message
