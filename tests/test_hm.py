import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronstab.bounds import (
    bound_D1,
    bound_D2,
    bound_DB_improved,
    bound_DBOR2,
    bound_DBOR2_improved,
    bound_hyperoct,
    dbor2_improved_fixed,
    dbor2_improvement_orderings,
)
from kronstab.hm import (
    ScenarioError,
    ScenarioFactor,
    hm_bound,
    hm_max_destabilization,
    solve_assignment,
    tau0_hyperoct,
    tau0_murnaghan,
    tau_B,
    tau_BOR2,
    tau_squares,
)
from kronstab.fixtures import TABLE_1, TABLE_2
from kronstab.partitions import partitions_of

matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(matrices)
def test_assignment_solver_against_brute_force(profit):
    n = len(profit)
    best = max(
        sum(profit[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )
    assert solve_assignment(profit) == best


def test_pinned_factor_with_restricted_last_position():
    # Weight 1 is pinned at position 1 and the last position must take
    # weight 0, so the only admissible assignment is (1, -1, 0):
    # 1e10 - 2e10 + 0.
    f = ScenarioFactor((10**10, 2 * 10**10, 3 * 10**10), (1, -1, 0), pinned=(1,), last=(0,))
    assert hm_max_destabilization([f]) == -(10**10)


def test_factor_maximum_against_brute_force():
    # Every weight multiset of dimension 1-5 over -2..2, two coefficient
    # vectors each (a fixed seed; both signs, with ties), a pinned prefix
    # of every length plus an unavailable pin, and ``last`` None, every
    # singleton and every pair: about 50 000 factors.
    rng = random.Random(20)
    lasts = [None] + [(w,) for w in range(-2, 3)] + list(itertools.combinations(range(-2, 3), 2))
    for dim in range(1, 6):
        for weights in itertools.combinations_with_replacement(range(-2, 3), dim):
            perms = set(itertools.permutations(weights))
            for span in (9, 2):
                coeffs = tuple(rng.randint(-span, span) for _ in range(dim))
                value = {perm: sum(c * w for c, w in zip(coeffs, perm)) for perm in perms}
                prefixes = [tuple(rng.sample(weights, k)) for k in range(dim + 1)] + [(3,)]
                for pins in prefixes:
                    # best admissible value for each weight at the last position
                    best = {}
                    for perm, v in value.items():
                        if perm[: len(pins)] == pins:
                            best[perm[-1]] = max(v, best.get(perm[-1], v))
                    for last in lasts:
                        f = ScenarioFactor(coeffs, weights, pins, last)
                        admissible = [v for w, v in best.items() if last is None or w in last]
                        if admissible:
                            assert hm_max_destabilization([f]) == max(admissible), f
                        else:
                            with pytest.raises(ScenarioError):
                                hm_max_destabilization([f])


def test_factor_weight_multiplicities_checked():
    f = ScenarioFactor((-2, -1, 0), (1, 0))
    with pytest.raises(ScenarioError):
        hm_bound([f], 1)


def test_pinned_weight_must_exist():
    f = ScenarioFactor((-2, -1), (1, 0), pinned=(5,))
    with pytest.raises(ScenarioError):
        hm_bound([f], 1)


def test_one_box_scenario_matches_closed_form():
    for row in TABLE_1.rows:
        lam, mu, nu = row.triple
        try:
            factors, base = tau0_murnaghan(lam, mu, nu)
        except ScenarioError:
            continue
        assert hm_bound(factors, base) == bound_D1(
            lam, mu, nu, minimize_over_orderings=False
        )


def test_two_box_scenarios_match_closed_form():
    for row in TABLE_2.rows:
        lam, mu, nu = row.triple
        scens = tau_squares(lam, mu, nu)
        assert max(hm_bound(f, b) for f, b in scens) == bound_D2(lam, mu, nu)


def test_converted_scenario_matches_improved_bound():
    for row in TABLE_1.rows:
        lam, mu, nu = row.triple
        candidates = []
        for a, b, c in ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu)):
            factors, base = tau_B(a, b, c)
            candidates.append(hm_bound(factors, base))
        assert min(candidates) == bound_DB_improved(lam, mu, nu)


def test_refined_scenario_matches_fixed_formula():
    for row in TABLE_1.rows:
        lam, mu, nu = row.triple
        candidates = [bound_DBOR2(lam, mu, nu)]
        for a, b, c in dbor2_improvement_orderings(lam, mu, nu):
            factors, base = tau_BOR2(a, b, c)
            value = hm_bound(factors, base)
            assert value == max(0, dbor2_improved_fixed(a, b, c))
            candidates.append(value)
        assert min(candidates) == bound_DBOR2_improved(lam, mu, nu)


def test_refined_scenario_needs_three_rows():
    with pytest.raises(ScenarioError):
        tau_BOR2((2, 1), (3, 2), (3, 2, 1))


def test_hyperoct_scenario_matches_closed_form():
    cases = [
        (((3, 1), (1,)), ((2, 2), (1,)), ((2, 1, 1), (2, 1, 1))),
        (((2, 2), ()), ((3, 1), ()), ((2, 1, 1), ())),
        (((4, 2), (2, 1)), ((3, 3), (2, 1)), ((3, 2, 1), (2, 1, 1, 1, 1))),
    ]
    for lam, mu, nu in cases:
        factors, base = tau0_hyperoct(lam, mu, nu)
        assert hm_bound(factors, base) == bound_hyperoct(lam, mu, nu)


def _scenario_and_closed_form(lam, mu, nu):
    """Each scenario's bound beside its closed form, for the scenarios
    whose length preconditions the ordered triple meets."""
    n1, n2, n3 = len(lam), len(mu), len(nu)
    pairs = {}
    if min(n1, n2) >= 2:
        pairs["D1"] = (
            hm_bound(*tau0_murnaghan(lam, mu, nu)),
            bound_D1(lam, mu, nu, minimize_over_orderings=False),
        )
        pairs["D2"] = (
            max(hm_bound(*s) for s in tau_squares(lam, mu, nu)),
            bound_D2(lam, mu, nu),
        )
    if min(n1, n2, n3) >= 2:
        rotations = ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu))
        pairs["DB_improved"] = (
            min(hm_bound(*tau_B(*t)) for t in rotations),
            bound_DB_improved(lam, mu, nu),
        )
    if min(n1, n2) >= 3:
        pairs["DBOR2_fixed"] = (
            hm_bound(*tau_BOR2(lam, mu, nu)),
            max(0, dbor2_improved_fixed(lam, mu, nu)),
        )
    return pairs


def test_every_scenario_matches_its_closed_form_on_small_triples():
    # All ordered triples with n <= 6, and all double-partition triples
    # of total size <= 4 whose first two plus parts have two or more rows.
    disagreements = []
    for n in range(1, 7):
        for triple in itertools.product(partitions_of(n), repeat=3):
            for name, (hm, closed) in _scenario_and_closed_form(*triple).items():
                if hm != closed:
                    disagreements.append((name, triple, hm, closed))
    for n in range(1, 5):
        shapes = [(p, m) for k in range(n + 1)
                  for p in partitions_of(k) for m in partitions_of(n - k)]
        long = [dp for dp in shapes if len(dp[0]) >= 2]
        for triple in itertools.product(long, long, shapes):
            hm, closed = hm_bound(*tau0_hyperoct(*triple)), bound_hyperoct(*triple)
            if hm != closed:
                disagreements.append(("D_hyperoct", triple, hm, closed))
    assert disagreements == []
