import itertools

import pytest

from kronstab import clear_caches, kronecker
from kronstab.kronecker import KRON_SIZE_CAP, kron, kron_block_unchecked, weak_stability_probe
from kronstab.lr import lr
from kronstab.partitions import ConsistencyError, SizeCapError, add_scaled, conjugate, dim_sn, partitions_of


def test_against_group_average_oracle():
    from oracles import kron_oracle

    for n in range(1, 5):
        ps = partitions_of(n)
        for a, b, c in itertools.product(ps, repeat=3):
            assert kron(a, b, c) == kron_oracle(a, b, c)


def test_against_two_row_coproduct_oracle():
    # Every multiset of three shapes of size n <= 9 with a shape of at
    # most two rows, that shape last: 4 482 triples, no character used.
    from oracles import two_row_kron

    triples = 0
    for n in range(1, 10):
        ps = partitions_of(n)
        for gamma in (p for p in ps if len(p) <= 2):
            for a, b in itertools.combinations_with_replacement(ps, 2):
                assert kron(a, b, gamma) == two_row_kron(a, b, gamma), (a, b, gamma)
                triples += 1
    assert triples == 4482


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


def _grown(lam, n):
    """(n - |lam|, lam): ``lam`` below a first row grown to size n."""
    return (n - sum(lam), *lam)


def _stable_n(a, b, c):
    # Briand-Orellana-Rosas (J. Algebra 2011) show the whole product of
    # the Schur functions of a[n] and b[n] stable from
    # n = |a| + |b| + a_1 + b_1 on, and Brion (1993) one coefficient from
    # n = |b| + |c| + a_1 on, in any role.  With |c| = |a| + |b| both lie
    # at or below this n, which also leaves c[n] a partition.
    return max(1, sum(a) + sum(b) + sum(c) + max(a[:1] + b[:1] + c[:1], default=0))


def test_reduced_limit_is_lr_when_sizes_add_up():
    # g(a[n], b[n], c[n]) = c^c_{ab} at a stable n when |c| = |a| + |b|
    # (Murnaghan; Littlewood 1958), against lr, which shares no code with
    # the character recursion: every a, b of size at most 4 (1 616
    # triples, n at most 24).
    small = [lam for k in range(5) for lam in partitions_of(k)]
    for a, b in itertools.product(small, repeat=2):
        for c in partitions_of(sum(a) + sum(b)):
            n = _stable_n(a, b, c)
            assert kron(_grown(a, n), _grown(b, n), _grown(c, n)) == lr(a, b, c), (a, b, c)


@pytest.mark.parametrize("c, expected", [((6, 4, 3, 2, 1), 4), ((6, 5, 3, 2), 3), ((7, 5, 3, 1), 2)])
def test_reduced_limit_is_lr_at_size_40(c, expected):
    # c_1 is at most a_1 + b_1 = 7, so n = 40 is past _stable_n (at most 39).
    a, b = (4, 3, 1), (3, 3, 2)
    assert _stable_n(a, b, c) <= 40
    assert kron(_grown(a, 40), _grown(b, 40), _grown(c, 40)) == lr(a, b, c) == expected


@pytest.mark.parametrize("c, expected", [((5, 4, 3, 2, 2), 3), ((6, 4, 4, 2), 2)])
def test_reduced_limit_is_lr_at_size_48(c, expected):
    # The north star's largest size; c_1 is at most 6, so _stable_n is at
    # most 38.
    a, b = (4, 3, 1), (3, 3, 2)
    assert _stable_n(a, b, c) <= 48
    assert kron(_grown(a, 48), _grown(b, 48), _grown(c, 48)) == lr(a, b, c) == expected


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
            block = kron_block_unchecked(d, ps, ps)
            assert block == {x: {y: g for y in ps if (g := kron(d, x, y))} for x in ps}


def test_block_stores_no_zeros_and_keeps_every_row():
    ps = partitions_of(6)
    block = kron_block_unchecked((3, 3), ps, ps[::2])
    assert list(block) == list(ps)
    assert all(g > 0 for row in block.values() for g in row.values())
    assert block[(1,) * 6] == {}  # (3,3) times the sign is (2,2,2), not listed


@pytest.mark.parametrize("sizes, message", [
    # true class sizes of 3 are (1, 3, 2), in class order 1^3, (2,1), (3)
    ((2, 3, 2), "class sum 14 not divisible by 3! for (2, 1), (2, 1), (2, 1)"),
    ((1, 3, 14), "negative multiplicity -1 for (2, 1), (2, 1), (2, 1)"),
])
def test_block_and_kron_share_exactness_checks(monkeypatch, sizes, message):
    clear_caches()
    monkeypatch.setattr(kronecker, "size_column", lambda n: sizes)
    for compute in (lambda: kron_block_unchecked((2, 1), [(2, 1)], [(2, 1)]), lambda: kron((2, 1), (2, 1), (2, 1))):
        with pytest.raises(ConsistencyError) as err:
            compute()
        assert str(err.value) == message


def _spy_columns(monkeypatch):
    """Count the character columns the Kronecker engine fetches."""
    fetched = []
    inner = kronecker.column

    def spy(lam, *args):
        fetched.append(lam)
        return inner(lam, *args)

    monkeypatch.setattr(kronecker, "column", spy)
    return fetched


def test_every_order_of_a_triple_reads_one_cached_value(monkeypatch):
    clear_caches()
    triple = (4, 2), (3, 2, 1), (2, 2, 1, 1)
    first = kron(*triple)
    assert kron_block_unchecked(triple[0], [triple[1]], [triple[2]]) == {triple[1]: {triple[2]: first}}
    assert kronecker._values == {tuple(sorted(triple)): first}
    # The other five orders read that entry: no column, no class sizes.
    fetched = _spy_columns(monkeypatch)
    monkeypatch.setattr(kronecker, "size_column", None)
    for d, x, y in itertools.permutations(triple):
        assert kron_block_unchecked(d, [x], [y]) == {x: {y: first}}
    assert fetched == [] and len(kronecker._values) == 1


def test_cleared_values_are_computed_again(monkeypatch):
    clear_caches()
    triple = (3, 1), (2, 1, 1), (2, 2)
    value = kron(*triple)
    block = {triple[1]: {triple[2]: value}}
    assert kron_block_unchecked(triple[0], [triple[1]], [triple[2]]) == block
    assert kron_block_unchecked((2, 1), [(2, 1)], [(3,)]) == {(2, 1): {(3,): 1}}
    fetched = _spy_columns(monkeypatch)
    assert kron_block_unchecked(triple[0], [triple[1]], [triple[2]]) == block and fetched == []
    assert clear_caches()["kronecker._values"] == 2 and not kronecker._values
    assert kron_block_unchecked(triple[0], [triple[1]], [triple[2]]) == block and len(fetched) == 3
