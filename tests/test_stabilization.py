import pytest

from kronstab import bounds, stabilization
from kronstab.bounds import FAMILIES, bound_D1, bound_values
from kronstab.lr import lr
from kronstab.fixtures import TABLE_1, TABLE_2
from kronstab.partitions import ConsistencyError, PartitionError, add_scaled
from kronstab.stabilization import (
    CertificateViolationError,
    d_real,
    empirical_scan,
    hyperoct_term,
    sequence_term,
)

ONE_BOX = FAMILIES["murnaghan"].direction
HYPEROCT = FAMILIES["hyperoct"].direction

# cheap reference rows (small degrees): index -> expected d_real
CHEAP_1 = {1: 3, 3: 4, 7: 3, 8: 0, 9: 1}
CHEAP_2 = {4: 3, 6: 2, 9: 1, 10: 0, 11: 1}


# Rows whose direction keeps a shape of at most two rows, so that every
# term can be checked by an oracle that uses no character.
TWO_ROW_ROWS = [(TABLE_1, i) for i in (4, 8, 11)] + [(TABLE_2, i) for i in range(7, 13)]


@pytest.mark.parametrize("table, index", TWO_ROW_ROWS,
                         ids=[f"{table.table_id}-row{i}" for table, i in TWO_ROW_ROWS])
def test_margin_terms_of_two_row_rows_match_the_coproduct_oracle(table, index):
    # The terms d_real reads the limit from, from the certified bound to
    # the margin (n up to 33), against LR coproduct rows.
    from oracles import two_row_kron

    base = table.rows[index - 1].triple
    family = FAMILIES[table.family]
    bound = bound_values(table.family, *base)[family.certified]
    for d in range(bound, bound + 3):
        triple = tuple(add_scaled(p, d, a) for p, a in zip(base, family.direction))
        short = next(i for i, p in enumerate(triple) if len(p) <= 2)
        a, b, c = triple[short + 1:] + triple[:short + 1]
        assert two_row_kron(a, b, c) == sequence_term(base, family.direction, d)


def test_sequence_term_examples():
    assert sequence_term(((1,), (1,), (1,)), ONE_BOX, 4) == 1
    assert sequence_term(((1, 1), (2,), (2,)), ONE_BOX, 0) == 0
    row1 = TABLE_1.rows[0].triple
    limit = sequence_term(row1, ONE_BOX, 5)
    for d in (6, 7):
        assert sequence_term(row1, ONE_BOX, d) == limit


def test_direction_of_unequal_sizes_is_named():
    # Every term beyond d = 0 would have unequal sizes; d = 0 alone must
    # not hide that.
    base = ((2, 1), (2, 1), (2, 1))
    for d in (0, 1):
        with pytest.raises(ValueError, match=r"^sizes 1, 1, 2 of direction 1 / 1 / 2 differ"):
            sequence_term(base, ((1,), (1,), (2,)), d)


def test_certified_index_on_cheap_rows():
    for idx, expected in CHEAP_1.items():
        triple = TABLE_1.rows[idx].triple
        res = d_real("murnaghan", triple)
        assert res.d_real == expected
        assert res.d_real <= bound_D1(*triple)
    for idx, expected in CHEAP_2.items():
        res = d_real("squares", TABLE_2.rows[idx].triple)
        assert res.d_real == expected


@pytest.mark.parametrize("a, b, c, expected", [
    ((2, 1), (2, 1), (3, 2, 1), 2),
    ((2, 1), (2, 1), (2, 2, 1, 1), 1),
    ((2, 1), (2, 1), (6,), 0),
    ((3, 1), (2, 2), (4, 3, 1), 1),
    ((4, 3, 1), (3, 3, 2), (6, 4, 3, 2, 1), 4),
])
def test_certified_limit_is_the_reduced_lr_coefficient(a, b, c, expected):
    # With |c| = |a| + |b|, g(a[n], b[n], c[n]) along one box on each
    # first row tends to c^c_{ab} (Murnaghan; Briand-Orellana-Rosas,
    # J. Algebra 2011), and lr shares no code with kron or the bounds.
    # The base is the least n at which all three are partitions.
    n = max(sum(x) + x[0] for x in (a, b, c))
    base = tuple((n - sum(x), *x) for x in (a, b, c))
    assert d_real("murnaghan", base).limit == lr(a, b, c) == expected


def test_sequence_invariants():
    triple = TABLE_1.rows[1].triple
    res = d_real("murnaghan", triple)
    assert res.horizon == len(res.sequence) - 1
    assert all(v == res.limit for v in res.sequence[res.d_real:])
    if res.d_real > 0:
        assert res.sequence[res.d_real - 1] != res.limit


def test_margin_independence():
    for idx in (1, 7, 8, 9):
        triple = TABLE_1.rows[idx].triple
        values = {d_real("murnaghan", triple, margin=m).d_real for m in range(5)}
        assert len(values) == 1


def test_shift_consistency():
    # adding one box to every first row translates the index by at most 1
    for idx in (1, 3, 7, 8, 9):
        lam, mu, nu = TABLE_1.rows[idx].triple
        base_res = d_real("murnaghan", (lam, mu, nu))
        shifted = tuple(
            (p[0] + 1,) + p[1:] for p in (lam, mu, nu)
        )
        shifted_res = d_real("murnaghan", shifted)
        assert abs(base_res.d_real - shifted_res.d_real) <= 1


def test_certificate_violation_detected(monkeypatch):
    # bound 0 is not sound for this triple: the sequence still moves.
    # d_real reads the certified bound at call time, so the patch holds.
    monkeypatch.setattr(bounds, "bound_Dm", lambda *triple: 0)
    triple = TABLE_1.rows[1].triple
    with pytest.raises(CertificateViolationError) as info:
        d_real("murnaghan", triple, margin=3)
    message = str(info.value)
    assert message.startswith("Dm = 0 is not a bound for ")
    assert "4,3,3 / 3,2^3,1 / 2^3,1^4 along 1 / 1 / 1" in message
    assert "not constant on [0, 3]" in message


@pytest.mark.parametrize("scan", [
    lambda family, base: d_real(family, base),
    lambda family, base: empirical_scan(base, FAMILIES[family].direction, 4),
])
def test_decreasing_sequence_is_a_fault(monkeypatch, scan):
    # both built-in Kronecker directions have g(a, b, c) = 1, so their
    # sequences weakly increase; a decrease can only be an arithmetic fault
    # 5, 4, 3, 3, 3: constant beyond d = 2, decreasing before it
    monkeypatch.setattr(stabilization, "sequence_term", lambda base, direction, d: max(5 - d, 3))
    base = ((2, 1), (2, 1), (2, 1))
    for family in ("murnaghan", "squares"):
        record = FAMILIES[family]
        monkeypatch.setattr(bounds, record.bounds[record.certified], lambda *triple: 2)
        with pytest.raises(ConsistencyError, match=r"2,1 / 2,1 / 2,1 along .* d = 1"):
            scan(family, base)


def test_decrease_without_a_covariant_is_not_a_fault(monkeypatch):
    def term(base, direction, d):
        return max(5 - d, 3)

    monkeypatch.setattr(stabilization, "sequence_term", term)
    monkeypatch.setattr(stabilization, "hyperoct_term", term)
    monkeypatch.setattr(bounds, "bound_hyperoct", lambda *triple: 2)
    # g((2), (2), (1,1)) = 0: no covariant, so no monotonicity claim
    assert empirical_scan(((2, 1), (2, 1), (2, 1)), ((2,), (2,), (1, 1)), 4).d_real == 2
    # nor is one established for hyperoctahedral sequences
    assert d_real("hyperoct", (((2, 1), ()),) * 3).d_real == 2


def test_hyperoct_lists_work_like_tuples():
    # the family declares the kind, so lists read as tuples do
    base = (((1, 1), (2,)), ((1, 1), (2,)), ((), (3, 1)))
    as_lists = [[list(plus), list(minus)] for plus, minus in base]
    assert [hyperoct_term(base, HYPEROCT, d) for d in range(3)] == [0, 3, 4]
    for d in range(3):
        expected = hyperoct_term(base, HYPEROCT, d)
        assert hyperoct_term(as_lists, [[[1], []]] * 3, d) == expected
        assert hyperoct_term(as_lists, HYPEROCT, d) == expected
    res = d_real("hyperoct", as_lists)
    assert res.sequence == d_real("hyperoct", base).sequence == (0, 3, 4, 4, 4)


def test_hyperoct_direction_sizes_must_agree():
    base = (((2,), (1,)), ((2,), (1,)), ((1, 1), (1,)))
    with pytest.raises(ValueError, match=r"^sizes 1, 1, 2 of direction 1;- / 1;- / 1;1 differ"):
        hyperoct_term(base, (((1,), ()), ((1,), ()), ((1,), (1,))), 0)


def test_triples_of_two_entries_are_named():
    pair, double_pair = ((2, 1), (2, 1)), (((2,), (1,)),) * 2
    message = r"^2,1 / 2,1 holds 2 entries, not three$"
    with pytest.raises(ValueError, match=message):
        sequence_term(pair, ONE_BOX, 0)
    with pytest.raises(ValueError, match=message):
        empirical_scan(pair, ONE_BOX, 2)
    # checked before the certified bound unpacks it
    with pytest.raises(ValueError, match=message):
        d_real("murnaghan", pair)
    with pytest.raises(ValueError, match=r"^2;1 / 2;1 holds 2 entries, not three$"):
        hyperoct_term(double_pair, HYPEROCT, 0)
    with pytest.raises(ValueError, match=r"^direction 1 / 1 holds 2 entries, not three$"):
        sequence_term(((2, 1),) * 3, ONE_BOX[:2], 0)


def test_certificate_is_recorded():
    triple = TABLE_2.rows[10].triple
    res = d_real("squares", triple)
    assert res.certified and res.certificate == "D2"
    assert res.d_real == 0


def test_empirical_scan_is_labeled():
    res = empirical_scan(((2, 1), (2, 1), (2, 1)), ((2,), (1, 1), (1, 1)), 4)
    assert not res.certified
    assert res.certificate.startswith("empirical")
    assert len(res.sequence) == 5


def test_invalid_inputs():
    with pytest.raises(ValueError):
        d_real("murnaghan", ((1,), (1,), (1,)), -1)
    with pytest.raises(ValueError):
        empirical_scan(((1,), (1,), (1,)), ONE_BOX, -2)
    with pytest.raises(ValueError, match=r"^unknown bound family 'nope'$"):
        d_real("nope", ((1,), (1,), (1,)))
    # non-integers are named here, not by ``range`` deep inside
    with pytest.raises(ValueError, match=r"^margin must be an integer of at least 0, got 2\.0$"):
        d_real("murnaghan", ((1,), (1,), (1,)), margin=2.0)
    with pytest.raises(ValueError, match=r"^horizon must be an integer of at least 0, got 2\.0$"):
        empirical_scan(((1,), (1,), (1,)), ONE_BOX, 2.0)


def test_float_direction_part_is_named():
    with pytest.raises(PartitionError, match=r"^parts must be positive integers, got 1\.0$"):
        empirical_scan(((2, 1), (2, 1), (2, 1)), ((1.0,), (1,), (1,)), 3)
