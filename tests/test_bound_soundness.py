"""Every registered bound against its sequence, on all small triples.

A bound b is sound for a triple when the shifted sequence is constant on
[b, b + MARGIN], the window ``d_real`` checks.  The murnaghan family is
symmetric in the three partitions and so is its direction, so each
multiset of three partitions is checked once.  The squares direction is
symmetric in the first two partitions only, and D2 needs both of them to
have two or more rows.  So is the hyperoctahedral coefficient in its
first two double partitions, and ``bound_hyperoct`` needs both of their
plus parts to have two or more rows.  Every sequence is the family's own:
``sequence_term``, or ``hyperoct_term`` where the family declares double
partitions, along its registered direction.
"""

from functools import cache
from itertools import combinations_with_replacement

import pytest

from kronstab.bounds import FAMILIES, bound_values
from kronstab.partitions import partitions_of
from kronstab.stabilization import hyperoct_term, sequence_term

MARGIN = 2
MAX_SIZE = {"murnaghan": 8, "squares": 7, "hyperoct": 5}


def _triples(family):
    for n in range(MAX_SIZE[family] + 1):
        if FAMILIES[family].double:
            shapes = [(p, m) for k in range(n + 1)
                      for p in partitions_of(k) for m in partitions_of(n - k)]
            long = [dp for dp in shapes if len(dp[0]) >= 2]
        else:
            shapes = partitions_of(n)
            long = [p for p in shapes if len(p) >= 2]
        if family == "murnaghan":
            yield from combinations_with_replacement(shapes, 3)
            continue
        for lam, mu in combinations_with_replacement(long, 2):
            for nu in shapes:
                yield lam, mu, nu


@cache
def _term(family, triple, d):
    record = FAMILIES[family]
    return (hyperoct_term if record.double else sequence_term)(triple, record.direction, d)


def _gate(family):
    return [
        pytest.param(
            family, name,
            # D2 is the paper's formula and is not a bound: on
            # (3,1), (3,1), (2,2) it is 0 but the sequence is 1, 2, 2, 2.
            marks=pytest.mark.xfail(strict=True, reason="D2 is not sound")
            if name == "D2" else (),
        )
        for name in FAMILIES[family].bounds
    ]


@pytest.mark.parametrize("family, name", [p for family in FAMILIES for p in _gate(family)])
def test_bound_is_sound(family, name):
    violations = []
    for triple in _triples(family):
        b = bound_values(family, *triple)[name]
        if len({_term(family, triple, d) for d in range(b, b + MARGIN + 1)}) > 1:
            violations.append(triple)
    assert violations == []
