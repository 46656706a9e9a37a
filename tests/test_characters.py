import math

import pytest

from kronstab import characters, clear_caches
from kronstab.characters import (
    KRON_SIZE_CAP,
    _memo,
    _row,
    _size,
    beta_mask,
    character,
    column,
    count,
    rank,
    size_column,
)
from kronstab.kronecker import kron
from kronstab.partitions import PartitionError, SizeCapError, add_scaled, conjugate, dim_sn, partitions_of

from oracles import character_oracle, coin_change_counts, z_order


def test_against_alternant_oracle():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert character(lam, rho) == character_oracle(lam, rho)


def test_against_alternant_oracle_degree_6():
    # The oracle costs ~0.8 s on the classes of 6 with at most three parts;
    # all eleven classes would take ~4 s.
    for rho in partitions_of(6):
        if len(rho) <= 3:
            for lam in partitions_of(6):
                assert character(lam, rho) == character_oracle(lam, rho), (lam, rho)


def test_value_at_identity_is_dimension():
    for n in range(1, 21):
        one = (1,) * n
        for lam in partitions_of(n):
            assert character(lam, one) == dim_sn(lam)


def test_row_orthogonality():
    for n in range(2, 13):
        sizes = size_column(n)
        nfact = math.factorial(n)
        assert sum(sizes) == nfact
        ps = partitions_of(n)
        classes = list(reversed(ps))
        values = {lam: [character(lam, rho) for rho in classes] for lam in ps}
        for lam in ps:
            for mu in ps:
                total = sum(size * a * b for size, a, b in zip(sizes, values[lam], values[mu]))
                assert total == (nfact if lam == mu else 0), (lam, mu)


def test_diagonal_orthogonality():
    # Both diagonal relations on the full character table, O(p(n)^2):
    # the sum over shapes of chi(rho)^2 is z(rho), and the class-weighted
    # sum over classes of chi^2 is n!.
    for n in range(1, 21):
        ps = partitions_of(n)
        sizes = size_column(n)
        cols = [column(lam) for lam in ps]
        for rho in reversed(ps):
            r = rank(rho)
            assert sum(col[r] ** 2 for col in cols) == z_order(rho), rho
        for lam, col in zip(ps, cols):
            assert sum(size * v * v for size, v in zip(sizes, col)) == math.factorial(n), lam
        clear_caches(n)


def test_sign_twist():
    for n in range(1, 13):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                sign = (-1) ** (n - len(rho))
                assert character(conjugate(lam), rho) == sign * character(lam, rho)


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for rho in partitions_of(n):
            assert character((n,), rho) == 1
            assert character((1,) * n, rho) == (-1) ** (n - len(rho))


def test_cache_eviction_preserves_values():
    lam, rho = (4, 2, 1), (3, 2, 1, 1)
    before = character(lam, rho)
    clear_caches(7)
    assert character(lam, rho) == before
    clear_caches()
    assert character(lam, rho) == before


def test_memo_keys_are_canonical():
    # Strips ending on bit 0 leave zero parts; each shape must still have
    # exactly one mask, so equal subproblems share one column.  Every
    # column is a whole number of blocks: a prefix of class order.
    clear_caches()
    for lam in partitions_of(8):
        for rho in partitions_of(8):
            character(lam, rho)
    kron((4, 3, 2), (3, 3, 3), (5, 2, 1, 1))
    for degree, table in _memo.items():
        masks = {beta_mask(lam) for lam in partitions_of(degree)}
        lengths = {count(degree, k) for k in range(degree + 1)}
        for mask, col in table.items():
            assert mask in masks, (degree, mask)
            assert len(col) in lengths, (degree, mask, len(col))


def test_clear_one_degree_keeps_the_other_columns():
    # Columns and class sizes are cleared together, for every degree or
    # for one.
    triple = (4, 3, 2), (3, 3, 3), (5, 2, 1, 1)
    values = {rho: character((3, 2, 1), rho) for rho in partitions_of(6)}
    kron(*triple)
    clear_caches()
    assert not _memo and not _size and not _row.cache_info().currsize
    assert {rho: character((3, 2, 1), rho) for rho in partitions_of(6)} == values
    kron(*triple)
    assert 5 in _memo and 5 in _size
    kept = {degree: {m: list(c) for m, c in table.items()} for degree, table in _memo.items() if degree != 5}
    kept_sizes = {degree: list(s) for degree, s in _size.items() if degree != 5}
    rows = _row.cache_info().currsize
    clear_caches(5)
    assert 5 not in _memo and 5 not in _size
    assert _memo == kept and _size == kept_sizes and _row.cache_info().currsize == rows > 1
    assert {rho: character((3, 2, 1), rho) for rho in partitions_of(6)} == values


def test_rank_is_the_position_in_class_order():
    for n in range(21):
        classes = list(reversed(partitions_of(n)))
        assert [rank(rho) for rho in classes] == list(range(len(classes)))
        assert [count(n, k) for k in range(n + 1)] == [
            sum(1 for rho in classes if not rho or rho[0] <= k) for k in range(n + 1)
        ]


def test_counts_against_coin_change():
    table = coin_change_counts(KRON_SIZE_CAP)
    for n in range(KRON_SIZE_CAP + 1):
        assert [count(n, k) for k in range(n + 1)] == [table[k][n] for k in range(n + 1)], n
    assert count(0, 0) == 1
    assert [count(n, 0) for n in range(1, 6)] == [0] * 5
    assert count(7, 8) == count(7, 100) == count(7, 7) == 15
    assert count(-1, 0) == count(-3, 5) == 0


def test_rows_grown_at_once_or_one_degree_at_a_time():
    clear_caches()
    count(40, 1)
    assert _row.cache_info().currsize == 41
    at_once = [list(_row(n)) for n in range(41)]
    clear_caches()
    for n in range(41):
        count(n, n)
    assert [_row(n) for n in range(41)] == at_once
    clear_caches()


def test_size_column_of_a_built_degree_is_one_lookup(monkeypatch):
    clear_caches()
    sizes = size_column(20)
    inner = characters._sizes
    calls = []

    def spy(n, k):
        calls.append((n, k))
        return inner(n, k)

    monkeypatch.setattr(characters, "_sizes", spy)
    assert size_column(20) is sizes and calls == []
    # Degree 19 holds only the prefix the recursion for 20 needed, so it
    # is extended through the block loop.
    assert len(size_column(19)) == count(19, 19) and calls
    clear_caches()


def test_size_column_is_n_factorial_over_z():
    clear_caches()
    for n in range(31):
        nfact = math.factorial(n)
        assert size_column(n) == [nfact // z_order(rho) for rho in reversed(partitions_of(n))], n
        assert size_column(n) is _size[n]
    # Sizes of smaller degrees are cached as prefixes, a whole number of
    # blocks each, like the columns.
    assert set(_size) == set(range(31))
    for degree, sizes in _size.items():
        assert len(sizes) in {count(degree, k) for k in range(degree + 1)}, degree


def test_full_column_matches_character():
    for n in range(13):
        classes = list(reversed(partitions_of(n)))
        for lam in partitions_of(n):
            assert column(lam) == [character(lam, rho) for rho in classes], lam


def test_columns_extended_one_part_at_a_time(monkeypatch):
    # Every shape of n <= 14 asks for parts up to k = 1, 2, ..., n in
    # turn, the shapes interleaved, so the strip loop finds sub-columns
    # cached but shorter than a block and must extend them.  Each prefix
    # must match a column built cold in one call.  (5,5,3,3,1,1) has
    # five 2-strips of alternating sign, the first one odd.
    by_degree = {n: partitions_of(n) for n in range(1, 15)}
    by_degree[18] = [(5, 5, 3, 3, 1, 1)]
    cold = {}
    for shapes in by_degree.values():
        for lam in shapes:
            clear_caches()
            cold[lam] = list(column(lam))
    inner = characters._column
    depth = short = 0

    def spy(mask, n, k):
        nonlocal depth, short
        col = _memo[n].get(mask)
        short += depth > 0 and col is not None and len(col) < count(n, k)
        depth += 1
        try:
            return inner(mask, n, k)
        finally:
            depth -= 1

    monkeypatch.setattr(characters, "_column", spy)
    for n, shapes in by_degree.items():
        clear_caches()
        for k in range(1, n + 1):
            length = count(n, k)
            for lam in shapes:
                col = column(lam, k)
                assert len(col) >= length and col[:length] == cold[lam][:length], (lam, k)
    assert short > 0
    lam = (5, 5, 3, 3, 1, 1)
    assert cold[lam][0] == dim_sn(lam)
    # orthogonal to itself with norm 18! and to the trivial character
    sizes = size_column(18)
    assert sum(size * v * v for size, v in zip(sizes, cold[lam])) == math.factorial(18)
    assert sum(size * v for size, v in zip(sizes, cold[lam])) == 0
    clear_caches()


def test_cold_kron_at_size_48():
    # Table 3.6.1 row 3 grown by 30 along (1), (1), (1); the per-class
    # engine this one replaced gives 318 too.
    clear_caches()
    row = ((5, 5, 4, 4), (6, 6, 6), (3, 3, 2, 2, 2, 2, 1, 1, 1, 1))
    assert kron(*(add_scaled(lam, 30, (1,)) for lam in row)) == 318
    clear_caches()


def test_cycle_type_in_any_order():
    assert character((3, 1), (1, 2, 1)) == character((3, 1), (2, 1, 1)) == 1


@pytest.mark.parametrize(
    "lam, rho",
    [((1, 2), (2, 1)), ((2,), (2, 0)), ((1.5, 1.5), (3,))],
)
def test_invalid_input_rejected(lam, rho):
    with pytest.raises(PartitionError):
        character(lam, rho)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character((2, 1), (2,))


def test_size_cap():
    assert KRON_SIZE_CAP == 50
    with pytest.raises(SizeCapError) as err:
        character((26, 25), (51,))
    assert str(err.value) == (
        "size 51 of shape 26,25 and cycle type 51 exceeds the desk-scale limit of 50"
    )
    # Huge parts are rejected before any bitmask is built.
    with pytest.raises(SizeCapError):
        character((10**18,), (10**18,))
    assert character((25, 25), (1,) * 50) == dim_sn((25, 25))
