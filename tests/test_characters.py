import math

import pytest

from kronstab.characters import _first, _ids, _memo, _rest, beta_mask, character, clear_character_cache
from kronstab.partitions import PartitionError, class_sizes, conjugate, dim_sn, partitions_of

from oracles import character_oracle


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
        classes = class_sizes(n)
        nfact = math.factorial(n)
        assert sum(size for _, size in classes) == nfact
        ps = partitions_of(n)
        values = {lam: [character(lam, rho) for rho, _ in classes] for lam in ps}
        for lam in ps:
            for mu in ps:
                total = sum(
                    size * a * b
                    for (_, size), a, b in zip(classes, values[lam], values[mu])
                )
                assert total == (nfact if lam == mu else 0), (lam, mu)


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
    clear_character_cache(7)
    assert character(lam, rho) == before
    clear_character_cache()
    assert character(lam, rho) == before


def test_memo_keys_are_canonical():
    # Strips ending on bit 0 leave zero parts; each shape must still have
    # exactly one mask, so equal subproblems share one memo entry.
    clear_character_cache()
    for lam in partitions_of(8):
        for rho in partitions_of(8):
            character(lam, rho)
    for degree, table in _memo.items():
        masks = {beta_mask(lam) for lam in partitions_of(degree)}
        for key in table:
            # A key is the class id above the degree + 1 bits of the mask.
            assert key & ((1 << degree + 1) - 1) in masks, (degree, key)
            pid, parts = key >> degree + 1, []
            while pid:
                parts.append(_first[pid])
                pid = _rest[pid]
            assert sum(parts) == degree, (degree, key, parts)


def test_clear_resets_class_registry():
    values = {rho: character((3, 2, 1), rho) for rho in partitions_of(6)}
    clear_character_cache()
    assert _ids == {(): 0} and _first == [0] and _rest == [0]
    assert {rho: character((3, 2, 1), rho) for rho in partitions_of(6)} == values
    character((2, 2), (2, 1, 1))
    kept = {degree: dict(table) for degree, table in _memo.items() if degree != 4}
    registered = dict(_ids)
    clear_character_cache(4)
    assert 4 not in _memo and _ids == registered
    assert {degree: _memo[degree] for degree in kept} == kept
    assert {rho: character((3, 2, 1), rho) for rho in partitions_of(6)} == values


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
