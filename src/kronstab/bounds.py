"""Closed-form stabilization bounds for shifted coefficient sequences.

All bounds certify an index from which the shifted coefficient sequence
is constant.  ``FAMILIES`` is the one place that records a family of
sequences: the direction they grow along, its bounds in display order
and the bound its certified index is read from.  Formula values are
clamped at 0 since sequences are indexed by natural numbers.  Parts
beyond a partition's length read as 0 throughout; runs of parts are
summed as tuple slices, which read past the end as empty.  Each public
``bound_*`` validates its triple once through ``check_triple``: its
parts, and sizes (total sizes) that agree.  Bounds built from others
call their unchecked cores.
"""

from typing import NamedTuple

from .partitions import DoublePartition, Partition, check_triple, format_triple, is_double, part_at


class DegenerateTripleError(ValueError):
    """The triple, in the order given, fails a formula's length
    preconditions."""


def _check_two_rows(lam: Partition, mu: Partition, nu: Partition) -> None:
    if len(lam) < 2 or len(mu) < 2:
        raise DegenerateTripleError(
            f"first two partitions of {format_triple((lam, mu, nu))} need length >= 2"
        )


def _ceil_half(x: int) -> int:
    return -((-x) // 2)


def _one_box_tail(nu: Partition, side: int, P: int) -> int:
    """2(nu_2 - nu_P) + sum over k = 1..side of (nu_{k+2} - nu_{P-k}): the
    maximum over the dual tensor flag of dimension P, last position on
    weight 0, whose weights (2, 1^side, 0, ..., (-1)^side, -2) are the
    pairwise sums of two (1, -1, 0, ...) spaces of lengths adding up to
    side + 4."""
    return (
        2 * (sum(nu[1:2]) - sum(nu[P - 1:P]))
        + sum(nu[2:side + 2]) - sum(nu[P - side - 1:P - 1])
    )


def _d1_fixed(lam: Partition, mu: Partition, nu: Partition) -> int:
    n1, n2 = len(lam), len(mu)
    _check_two_rows(lam, mu, nu)
    expr = -lam[0] + lam[1] - mu[0] + mu[1] + _one_box_tail(nu, n1 + n2 - 4, n1 * n2)
    return max(0, _ceil_half(expr))


def bound_D1(
    lam: Partition, mu: Partition, nu: Partition,
    minimize_over_orderings: bool = True,
) -> int:
    """Bound for the murnaghan family from the one-box scenario.

    With minimization, the least value over which partition plays the
    third role (the formula is symmetric in the other two), among the
    choices whose other two have length at least 2, and 0 when none
    qualifies: at most one partition then has two or more rows, so the
    sequence is a constant Kronecker delta from d = 0.  The fixed
    ordering uses the arguments as given and raises
    ``DegenerateTripleError`` when they fail the length preconditions.
    """
    lam, mu, nu = check_triple((lam, mu, nu), False)
    if not minimize_over_orderings:
        return _d1_fixed(lam, mu, nu)
    return _d1(lam, mu, nu)


def _d1(lam: Partition, mu: Partition, nu: Partition) -> int:
    return min(
        (_d1_fixed(a, b, c) for a, b, c in ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu))
         if len(a) >= 2 and len(b) >= 2),
        default=0,
    )


def bound_D2(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Bound for the squares family, with the branch structure on the
    lengths of the first two partitions (the formula is symmetric under
    swapping them, so a two-row second partition is swapped first)."""
    return _d2(*check_triple((lam, mu, nu), False))


def _d2(lam: Partition, mu: Partition, nu: Partition) -> int:
    _check_two_rows(lam, mu, nu)
    if len(mu) == 2 < len(lam):
        lam, mu = mu, lam
    n1, n2 = len(lam), len(mu)
    m = max(-lam[1] - mu[0], -lam[0] - mu[1])
    if n1 >= 3:  # then mu has three rows too, or the swap above would have run
        expr = m + lam[2] + mu[2] + _one_box_tail(nu, n1 + n2 - 4, n1 * n2)
    else:
        expr = m + part_at(mu, 3) + 2 * part_at(nu, 2) - part_at(nu, 2 * n2) + sum(nu[2:n2 + 1])
    return max(0, _ceil_half(expr))


def bound_E2(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Bound for the squares family from the scenario that pins weights
    0 and 1 in the same order on both small flags (``hm.tau_E2``);
    symmetric in the first two partitions."""
    return _e2(*check_triple((lam, mu, nu), False))


def _e2(lam: Partition, mu: Partition, nu: Partition) -> int:
    _check_two_rows(lam, mu, nu)
    s, P = len(lam) + len(mu), len(lam) * len(mu)
    # nu_k is subtracted once for s < k <= 2s - 4 and twice up to k = P.
    expr = (
        sum(lam[2:]) - lam[1] + sum(mu[2:]) - mu[1]
        + 2 * part_at(nu, 2) + sum(nu[2:4])
        - sum(nu[s:2 * s - 4]) - 2 * sum(nu[2 * s - 4:P])
    )
    return max(0, _ceil_half(expr))


def bound_D2E2(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The larger of D2 and E2 for the squares family.  D2 alone is not
    a bound: on 3,1 / 3,1 / 2,2 it is 0, but the sequence is 1, 2, 2.
    The maximum is checked against every sequence through n = 10, not
    proved."""
    triple = check_triple((lam, mu, nu), False)
    return max(_d2(*triple), _e2(*triple))


def bound_DB(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Converted external bound for the murnaghan family, minimized over
    which partition plays the third role (the formula is symmetric in the
    other two)."""
    return _db(*check_triple((lam, mu, nu), False), improved=False)


def bound_DB_improved(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Long-third-partition improvement of the converted bound: the tail
    parts beyond position len(a)+len(b)-1 of the third partition are
    subtracted.  Minimized over the role choice; equals the unimproved
    bound when the third partition is short."""
    return _db(*check_triple((lam, mu, nu), False), improved=True)


def _db(lam: Partition, mu: Partition, nu: Partition, improved: bool) -> int:
    def fixed(a, b, c):
        n1, n2 = len(a), len(b)
        tail = sum(c[max(n1 + n2, 1) - 1:n1 * n2]) if improved else 0
        return max(0, sum(b) - part_at(a, 1) - part_at(b, 1) + part_at(c, 2) - tail)

    return min(fixed(lam, mu, nu), fixed(mu, nu, lam), fixed(nu, lam, mu))


def bound_DBOR2(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Second converted external bound; fully symmetric in the triple
    because the three sizes agree."""
    return _dbor2(*check_triple((lam, mu, nu), False))


def _dbor2(lam: Partition, mu: Partition, nu: Partition) -> int:
    num = (
        sum(mu)
        + part_at(lam, 2) - part_at(lam, 1)
        + part_at(mu, 2) - part_at(mu, 1)
        + part_at(nu, 2) - part_at(nu, 1)
    )
    return max(0, num // 2)


def dbor2_improved_fixed(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The long-third-partition refinement of the second converted
    bound, for the argument order as given (no clamping or role
    minimization); exposed for scenario cross-checks."""
    n1, n2 = len(lam), len(mu)
    _check_two_rows(lam, mu, nu)
    P = n1 * n2
    expr = (
        -lam[0] + lam[1]
        + 2 * mu[1] + sum(mu) - mu[0] - mu[1]
        - part_at(nu, 1) + part_at(nu, 2)
        - sum(nu[n1 + n2 - 2:P - n1 - n2 + 2])
        - 2 * sum(nu[P - n1 - n2 + 2:P - 1])
        - 3 * sum(nu[P - 1:P])
    )
    return _ceil_half(expr)


def dbor2_improvement_orderings(
    lam: Partition, mu: Partition, nu: Partition
) -> list[tuple[Partition, Partition, Partition]]:
    """Role assignments on which the long-third-partition refinement is
    valid: the weight pattern behind it needs at least three rows in
    each of the first two partitions, and a third partition reaching
    position len(a)+len(b)-1 (otherwise the refinement subtracts nothing
    and only the unimproved floor form is available).  Only a partition
    two rows longer than both others can be third, so at most one is;
    the other two follow in both orders, as ``permutations`` lists them."""
    for a, b, c in ((lam, mu, nu), (lam, nu, mu), (mu, nu, lam)):
        if len(a) >= 3 and len(b) >= 3 and len(c) >= len(a) + len(b) - 1:
            return [(a, b, c), (b, a, c)]
    return []


def bound_DBOR2_improved(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Improved second converted bound: the refinement minimized over
    the admissible role assignments, never exceeding the unimproved
    bound (the subtracted tail contains at least one positive part)."""
    return _dbor2_improved(*check_triple((lam, mu, nu), False))


def _dbor2_improved(lam: Partition, mu: Partition, nu: Partition) -> int:
    best = _dbor2(lam, mu, nu)
    for a, b, c in dbor2_improvement_orderings(lam, mu, nu):
        best = min(best, max(0, dbor2_improved_fixed(a, b, c)))
    return best


def bound_Dm(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The best bound available for the murnaghan family: minimum of the
    reordered one-box bound and both improved converted bounds."""
    triple = check_triple((lam, mu, nu), False)
    return min(_d1(*triple), _db(*triple, improved=True), _dbor2_improved(*triple))


def bound_hyperoct(lam: DoublePartition, mu: DoublePartition, nu: DoublePartition) -> int:
    """Stabilization bound for hyperoctahedral tensor sequences grown by
    one box on every plus part's first row."""
    (lp, lm), (mp, mm), (np_, nm) = check_triple((lam, mu, nu), True)
    a1, a2 = len(lp), len(lm)
    b1, b2 = len(mp), len(mm)
    if a1 < 2 or b1 < 2:
        triple = format_triple(((lp, lm), (mp, mm), (np_, nm)))
        raise DegenerateTripleError(f"first two plus parts of {triple} need length >= 2")
    m = a1 * b1 + a2 * b2
    n = a1 * b2 + a2 * b1
    expr = (
        -part_at(lp, 1) + part_at(lp, 2) - part_at(mp, 1) + part_at(mp, 2)
        + _one_box_tail(np_, a1 + b1 - 4, m)
        + sum(nm[:a2 + b2]) - sum(nm[n - a2 - b2:n])
    )
    return max(0, _ceil_half(expr))


class Family(NamedTuple):
    """A family of shifted sequences: the direction added at each step, the
    function of this module behind each bound name, in display order and
    looked up at call time, and the bound the certified index is read from."""

    direction: tuple
    bounds: dict[str, str]
    certified: str


FAMILIES = {
    "murnaghan": Family(((1,), (1,), (1,)), {name: f"bound_{name}" for name in (
        "D1", "DB", "DB_improved", "DBOR2", "DBOR2_improved", "Dm")}, "Dm"),
    # D2 stays certified: D2E2 raises four rows of table 3.6.2, to n = 37.
    "squares": Family(((1, 1), (1, 1), (2,)), {"D2": "bound_D2", "D2E2": "bound_D2E2"}, "D2"),
    # One box on every plus part's first row; an empty plus part grows as (d).
    "hyperoct": Family((((1,), ()),) * 3, {"D_hyperoct": "bound_hyperoct"}, "D_hyperoct"),
}


def bound_values(family: str, lam, mu, nu) -> dict[str, int]:
    """Every bound of a family for one triple, in display order.  The
    triple holds partitions, or double partitions where the family's
    direction does, and its sizes (total sizes) must agree."""
    record = FAMILIES.get(family)
    if record is None:
        raise ValueError(f"unknown bound family {family!r}")
    triple = check_triple((lam, mu, nu), is_double(record.direction))
    return {name: globals()[fn](*triple) for name, fn in record.bounds.items()}
