import json
from pathlib import Path

import pytest

from kronstab import plethysm
from kronstab.partitions import ConsistencyError, SizeCapError, dim_gl, partitions_of
from kronstab.plethysm import (
    BITS,
    DEGREE_CAP,
    SymFunc,
    _classes,
    _code,
    _compose,
    plethysm_coeff,
    plethysm_powersum,
    schur_to_powersum,
)

from oracles import plethysm_oracle, powersum_composition, powersum_to_schur

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_schur_powersum_round_trip():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert powersum_to_schur(schur_to_powersum(lam)) == {lam: 1}


def test_code_fields_cannot_overflow():
    # A multiplicity is at most the degree, so raising the cap must widen
    # the fields.
    assert 1 << BITS > DEGREE_CAP


def _composition_agrees(lam, mu):
    f, g = schur_to_powersum(lam), schur_to_powersum(mu)
    comp = plethysm_powersum(f, g)
    assert comp == powersum_composition(f, g)
    return comp


def test_class_map_follows_class_order():
    for n in range(DEGREE_CAP + 1):
        assert _classes(n) == {_code(rho): i for i, rho in enumerate(reversed(partitions_of(n)))}


def test_coded_composition_against_tuple_reference():
    pairs = 0
    for la in range(1, 13):
        for lb in range(1, 12 // la + 1):
            for lam in partitions_of(la):
                for mu in partitions_of(lb):
                    _composition_agrees(lam, mu)
                    pairs += 1
    assert pairs == 688


def test_coded_composition_on_benchmark_pairs():
    pairs = {(tuple(lam), tuple(mu)) for lam, mu, _, _ in json.loads(REFERENCE.read_text())["plethysm"]}
    assert {sum(lam) * sum(mu) for lam, mu in pairs} == {18, 24}
    for lam, mu in sorted(pairs):
        comp = _composition_agrees(lam, mu)
        # The last index is p_1 to the degree: the widest field, full.
        assert comp.coeffs[-1][0] == (1,) * comp.degree()


def test_coded_composition_with_long_runs():
    # One-row and one-column outer shapes put runs of up to 13 equal
    # parts in their indices, so powers of p_k[g] up to the 13th are
    # built, by squares and by products, at degrees 13 to 24.
    outers = [(m,) for m in range(7, 13)] + [(1,) * m for m in range(7, 13)]
    for lam in outers:
        for mu in ((2,), (1, 1)):
            _composition_agrees(lam, mu)
    for lam in ((13,), (1,) * 13, (8,), (2, 2, 2, 1, 1)):
        for mu in ((1,), (3,), (2, 1), (1, 1, 1)):
            if sum(lam) * sum(mu) <= DEGREE_CAP:
                _composition_agrees(lam, mu)


def test_coded_composition_with_big_squares():
    # An outer shape of size 2 squares p_1[g] for an inner shape of size
    # 10 to 12: up to 77 terms, at degrees 20 to 24.
    inners = ((10,), (6, 4), (4, 3, 2, 1), (11,), (5, 3, 2, 1), (12,), (3, 3, 3, 3), (7, 2, 2, 1))
    for lam in ((2,), (1, 1)):
        for mu in inners:
            _composition_agrees(lam, mu)


def test_empty_index_composes_to_its_coefficient():
    # p_() = 1 composed with anything is 1: no factor, and the coefficient
    # over its own denominator.
    for g in (schur_to_powersum((2, 1)), schur_to_powersum(())):
        assert _compose(SymFunc((((), 3),), 4), g) == ({0: 3}, 4)
        assert _compose(schur_to_powersum(()), g) == ({0: 1}, 1)


def test_composition_degree_cap():
    with pytest.raises(SizeCapError) as err:
        plethysm_powersum(schur_to_powersum((5,)), schur_to_powersum((5,)))
    assert str(err.value) == "degree 25 of the composition exceeds the desk-scale limit of 24"


def test_against_weight_multiset_oracle():
    for la in range(1, 7):
        for lb in range(1, 7):
            if la * lb > 6:
                continue
            for lam in partitions_of(la):
                for mu in partitions_of(lb):
                    for nu in partitions_of(la * lb):
                        assert plethysm_coeff(lam, mu, nu) == plethysm_oracle(
                            lam, mu, nu
                        )


def test_symmetric_square_of_inner_shape():
    # composing a one-row outer shape of size d with mu always contains
    # the stretched shape d*mu exactly once
    for d in range(1, 4):
        for size in range(1, 5):
            for mu in partitions_of(size):
                target = tuple(d * p for p in mu)
                assert plethysm_coeff((d,), mu, target) == 1


def test_single_row_target_vanishes_for_tall_inner():
    for d in range(1, 4):
        for size in range(2, 5):
            for mu in partitions_of(size):
                if len(mu) < 2:
                    continue
                assert plethysm_coeff((d,), mu, (d * size,)) == 0


def test_dimension_consistency():
    for lam, mu in (((2,), (2,)), ((1, 1), (2, 1)), ((2,), (2, 2)), ((2, 1), (2,))):
        deg = sum(lam) * sum(mu)
        assert deg <= 8
        comp = plethysm_powersum(schur_to_powersum(lam), schur_to_powersum(mu))
        schur = powersum_to_schur(comp)
        for n in range(1, 4):
            total = sum(c * dim_gl(nu, n) for nu, c in schur.items())
            assert total == dim_gl(lam, dim_gl(mu, n))


def test_size_mismatch_is_zero():
    assert plethysm_coeff((2,), (2,), (3,)) == 0


def test_degree_cap():
    with pytest.raises(SizeCapError) as err:
        plethysm_coeff((5,), (5,), (25,))
    assert str(err.value) == (
        "degree 25 of 5 / 5 / 25 exceeds the desk-scale limit of 24"
    )


def test_empty_factor_is_capped_too():
    # The degree |lam|*|mu| is 0 when a factor is empty, so the cap must
    # hold for each Schur function the composition expands.
    for triple in (((45,), (), ()), ((), (45,), ())):
        with pytest.raises(SizeCapError) as err:
            plethysm_coeff(*triple)
        assert str(err.value) == "size 45 of 45 exceeds the desk-scale limit of 24"
    # s_lam[1] = 1 exactly when lam is one row, and s_0[g] = 1.
    assert plethysm_coeff((3,), (), ()) == 1
    assert plethysm_coeff((2, 1), (), ()) == 0
    assert plethysm_coeff((), (3,), ()) == 1


# Values the engine produced for perfbench/reference.json before its
# coefficients became integers over one common denominator; they pin it
# at the sizes the benchmark runs.
@pytest.mark.parametrize(
    "lam, mu, nu, expected",
    [
        ((3, 1, 1, 1), (2, 2), (8, 4, 3, 2, 2, 2, 2, 1), 81),
        ((5, 1), (4,), (11, 7, 3, 2, 1), 24),
        ((8,), (3,), (9, 7, 5, 2, 1), 4),
        ((11, 1), (2,), (12, 12), 0),
        ((3,), (4, 2), (8, 4, 2, 2, 1, 1), 1),
    ],
)
def test_reference_values(lam, mu, nu, expected):
    assert plethysm_coeff(lam, mu, nu) == expected


@pytest.mark.parametrize(
    "lam, mu", [((3,), (4,)), ((2, 1), (2, 2)), ((2, 1), (3, 2)), ((4,), (2, 2))]
)
def test_dimension_consistency_above_degree_8(lam, mu):
    schur = powersum_to_schur(
        plethysm_powersum(schur_to_powersum(lam), schur_to_powersum(mu))
    )
    for n in range(2, 5):
        total = sum(c * dim_gl(nu, n) for nu, c in schur.items())
        assert total == dim_gl(lam, dim_gl(mu, n))


def test_empty_shapes():
    # s_lam[1] = <s_lam, h_n>: 1 for one row (and for the empty shape,
    # through 0! = 1), 0 otherwise
    for lam, expected in (((), 1), ((2,), 1), ((3,), 1), ((1, 1), 0), ((2, 1), 0)):
        assert plethysm_coeff(lam, (), ()) == expected
    assert plethysm_coeff((), (2, 1), ()) == 1


COLUMN = plethysm.column


@pytest.mark.parametrize("edit, message", [
    # s_2[s_2] holds s_4 once: 8/8 with the true column.
    (lambda col: col[:-1] + [col[-1] + 1], "plethysm coefficient came out 10/8 for 2 / 2 / 4"),
    (lambda col: [-v for v in col], "plethysm coefficient came out -8/8 for 2 / 2 / 4"),
])
def test_exactness_check_names_the_triple(monkeypatch, edit, message):
    # Only the final lookup passes a largest part, so only it is edited.
    monkeypatch.setattr(plethysm, "column", lambda nu, *top: edit(COLUMN(nu, *top)) if top else COLUMN(nu))
    with pytest.raises(ConsistencyError) as err:
        plethysm_coeff((2,), (2,), (4,))
    assert str(err.value) == message


def test_lists_are_accepted():
    assert plethysm_coeff([2], [1, 1], [2, 2]) == 1
