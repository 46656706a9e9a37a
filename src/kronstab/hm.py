"""Generic destabilization maximizer over flag-position weight scenarios.

A scenario describes one product of flag varieties.  Each factor gives
the objective coefficient at every flag position, the multiset of torus
weights on the ambient space, the weights pinned at the first positions
(basis lines the scenario fixes), and the weights allowed at the last
position when the factor sits under a projectivized dual with a fixed
kernel.

The maximizer returns the largest achievable total objective over all
admissible assignments of weights to positions.  The weights are sorted
once; the pinned prefix takes its weights out of that list by bisection,
and the free positions, sorted, are paired with what is left in order
(rearrangement inequality), trying each allowed weight, also taken out
by bisection, for a restricted last position.  ``solve_assignment`` is a
general exact assignment solver that no scenario needs; it stays because
the benchmark's call tracer (``perfbench/calltrace.py``) lists it among
its sites.
"""

from bisect import bisect_left
from operator import mul, neg
from typing import NamedTuple

from .partitions import Partition


class ScenarioError(ValueError):
    """The scenario's constraints cannot be satisfied."""


class ScenarioFactor(NamedTuple):
    coeffs: tuple[int, ...]  # objective coefficient at each flag position
    weights: tuple[int, ...]  # torus weights, one per flag position
    pinned: tuple[int, ...] = ()  # weights of the first positions
    last: tuple[int, ...] | None = None  # weights allowed at the last position


def solve_assignment(profit: list[list[int]]) -> int:
    """Maximum-total assignment on a square profit matrix, by the
    Hungarian method with potentials (exact integer arithmetic)."""
    n = len(profit)
    if n == 0:
        return 0
    # maximize by negating and solving the min-cost assignment
    cost = [[-profit[i][j] for j in range(n)] for i in range(n)]
    INF = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # column -> row (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        mins = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta, j1 = INF, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < mins[j]:
                        mins[j] = cur
                        way[j] = j0
                    if mins[j] < delta:
                        delta = mins[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    mins[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(profit[match[j] - 1][j - 1] for j in range(1, n + 1))


def _max_factor(factor: ScenarioFactor) -> int:
    coeffs, weights, pins, last = factor
    n, k = len(coeffs), len(pins)
    if len(weights) != n:
        raise ScenarioError(f"{len(weights)} weights for {n} flag positions")
    pool = sorted(weights)
    for w in pins:
        i = bisect_left(pool, w)
        if pool[i:i + 1] != [w]:
            raise ScenarioError(f"pinned weight {w} not available")
        del pool[i]
    total = sum(map(mul, coeffs, pins))
    if last is None:
        return total + sum(map(mul, sorted(coeffs[k:]), pool))
    if k == n > 0:
        if pins[-1] not in last:
            raise ScenarioError(f"pinned weight {pins[-1]} not allowed in the last position")
        return total
    free = sorted(coeffs[k:-1])
    candidates = []
    for w in set(last):
        i = bisect_left(pool, w)
        if pool[i:i + 1] == [w]:
            # pool without its entry i, still sorted, against the free positions
            candidates.append(
                coeffs[-1] * w + sum(map(mul, free[:i], pool)) + sum(map(mul, free[i:], pool[i + 1:]))
            )
    if not candidates:
        raise ScenarioError("no admissible weight for the last position")
    return total + max(candidates)


def hm_max_destabilization(factors: list[ScenarioFactor]) -> int:
    """Maximum of the negated line-bundle weight over the fiber: the sum
    of per-factor maxima (the factors are independent)."""
    return sum(map(_max_factor, factors))


def hm_bound(factors: list[ScenarioFactor], mu_lbar: int) -> int:
    """Stabilization bound from a scenario: the ceiling of the maximum
    destabilization divided by the base weight, clamped at 0."""
    if mu_lbar <= 0:
        raise ScenarioError("base line-bundle weight must be positive")
    m = hm_max_destabilization(factors)
    return max(0, -((-m) // mu_lbar))


# ---------------------------------------------------------------------------
# scenario builders
#
# A scenario puts torus weights on the small spaces; each tensor line
# U_i ⊗ V_j carries the sum of its factors' weights.  A small flag's
# coefficient at position p is -λ_p; the big flag enters dually, so its
# coefficient at position p of dim is ν_{dim+1-p}.


def _parts(objective: Partition, dim: int) -> tuple[int, ...]:
    """The first dim parts, padded with zeros."""
    return tuple(objective[:dim]) + (0,) * (dim - len(objective))


def _small(objective: Partition, weights: list[int], *pins: int) -> ScenarioFactor:
    """A small space's flag, with ``pins`` at its first positions: one
    weight per part of ``objective``."""
    return ScenarioFactor(tuple(map(neg, objective)), tuple(weights), pins)


def _tensor(objective: Partition, blocks: list, last: tuple[int, ...] | None = None,
            moved: tuple[int, int] | None = None) -> ScenarioFactor:
    """The dual big flag on the direct sum of the products U ⊗ V in
    ``blocks``, weighted by pairwise sums; ``moved=(old, new)`` relabels
    one line of weight old as new."""
    sums = [a + b for u, v in blocks for a in u for b in v]
    if moved:
        sums.remove(moved[0])
        sums.append(moved[1])
    return ScenarioFactor(_parts(objective, len(sums))[::-1], tuple(sums), last=last)


def tau0_murnaghan(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Destabilizing scenario for the one-box growth direction.

    Torus weights (1, -1, 0, ...) on both small spaces, with weight 1
    pinned first; the dual tensor factor keeps the last flag position on
    the zero weight class (the kernel of the base point's form contains
    no diagonal line).  Returns (factors, base weight).
    """
    n1, n2 = len(lam), len(mu)
    if n1 < 2 or n2 < 2:
        raise ScenarioError("both factor partitions need length >= 2")
    u, v = [1, -1] + [0] * (n1 - 2), [1, -1] + [0] * (n2 - 2)
    return [_small(lam, u, 1), _small(mu, v, 1), _tensor(nu, [(u, v)], last=(0,))], 2


def tau_squares(
    lam: Partition, mu: Partition, nu: Partition
) -> list[tuple[list[ScenarioFactor], int]]:
    """The two destabilizing scenarios for the two-box growth direction.

    Each small space of dimension >= 3 carries (1, -1, 0, ...), one of
    dimension 2 carries weights 1 and 0.  Both scenarios pin weights 0 and 1 at
    the first two positions of each small flag, in opposite orders on
    the two flags: (0, 1) and (1, 0), then (1, 0) and (0, 1).
    """
    n1, n2 = len(lam), len(mu)
    if n1 < 2 or n2 < 2:
        raise ScenarioError("both factor partitions need length >= 2")
    if n2 == 2 < n1:
        return tau_squares(mu, lam, nu)
    u, v = ([1, -1] + [0] * (n - 2) if n >= 3 else [1, 0] for n in (n1, n2))
    # With two rows each, D2 subtracts nu_4, so one line needs weight -1:
    # the paper's spectrum is {2, 1, 0, -1}, the pairwise sums {2, 1, 1, 0}.
    big = _tensor(nu, [(u, v)], last=(0,), moved=(1, -1) if n2 == 2 else None)
    return [([_small(lam, u, *p), _small(mu, v, *p[::-1]), big], 2) for p in ((0, 1), (1, 0))]


def tau_E2(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """A third scenario for the two-box growth direction: both small
    spaces carry (0, 1, -1, ..., -1), with weights 0 and 1 pinned at
    the first two positions of each flag in the same order; the dual
    tensor factor keeps the last position on weight 0."""
    n1, n2 = len(lam), len(mu)
    if n1 < 2 or n2 < 2:
        raise ScenarioError("both factor partitions need length >= 2")
    u, v = ([0, 1] + [-1] * (n - 2) for n in (n1, n2))
    return [_small(lam, u, 0, 1), _small(mu, v, 0, 1), _tensor(nu, [(u, v)], last=(0,))], 2


def tau_B(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Scenario behind the long-nu improvement of the first converted
    external bound: weights (1, 0, ..., 0) and (0, -1, ..., -1), with 1
    and 0 pinned first."""
    n1, n2 = len(lam), len(mu)
    if n1 < 1 or n2 < 2:
        raise ScenarioError("factor partitions too short for this scenario")
    u, v = [1] + [0] * (n1 - 1), [0] + [-1] * (n2 - 1)
    last = (0, -1) if min(n1, n2) >= 3 else (0,)
    return [_small(lam, u, 1), _small(mu, v, 0), _tensor(nu, [(u, v)], last=last)], 1


def tau_BOR2(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Scenario behind the improved second converted bound: weights
    (1, -1, 0, ..., 0) and (0, -2, -1, ..., -1), with 1 and 0 pinned
    first; every diagonal tensor line carries weight -1, which constrains
    the last flag position."""
    n1, n2 = len(lam), len(mu)
    if n1 < 3 or n2 < 3:
        raise ScenarioError("both factor partitions need length >= 3")
    u, v = [1, -1] + [0] * (n1 - 2), [0, -2] + [-1] * (n2 - 2)
    # The converted bound subtracts 2*nu_q on n1 + n2 - 3 positions, one
    # more than the pairwise sums give weight -2, so one -1 moves to -2.
    big = _tensor(nu, [(u, v)], last=(-1,), moved=(-1, -2))
    return [_small(lam, u, 1), _small(mu, v, 0), big], 2


def tau0_hyperoct(
    lam: tuple[Partition, Partition],
    mu: tuple[Partition, Partition],
    nu: tuple[Partition, Partition],
) -> tuple[list[ScenarioFactor], int]:
    """Hyperoctahedral analogue of the one-box scenario: the plus parts
    of both small spaces carry (1, -1, 0, ...), with weight 1 pinned
    first, and the minus parts are weight-free.  The plus big flag lives
    on plus ⊗ plus ⊕ minus ⊗ minus, the minus one on the two mixed
    products."""
    (lp, lm), (mp, mm), (np_, nm) = lam, mu, nu
    if len(lp) < 2 or len(mp) < 2:
        raise ScenarioError("plus parts need length >= 2")
    u, v = ([1, -1] + [0] * (len(p) - 2) for p in (lp, mp))
    x, y = [0] * len(lm), [0] * len(mm)
    return [
        _small(lp, u, 1), _small(mp, v, 1), _small(lm, x), _small(mm, y),
        _tensor(np_, [(u, v), (x, y)], last=(0,)), _tensor(nm, [(u, y), (x, v)]),
    ], 2
