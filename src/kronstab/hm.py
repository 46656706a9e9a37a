"""Generic destabilization maximizer over flag-position weight scenarios.

A scenario describes one product of flag varieties: for each factor, the
multiset of torus weights on the ambient space, the partition whose
parts act as objective coefficients along the flag positions, whether
the factor enters dually (reversed objective, positive sign), and
position constraints (pinned basis lines, and a restricted weight class
for the last position when the factor sits under a projectivized dual
with a fixed kernel).

The maximizer returns the largest achievable total objective over all
admissible assignments of weights to positions.  Pinned positions take
their weights first; the free positions are paired with the remaining
weights by descending sort (rearrangement inequality), trying each
admissible weight class for a restricted last position.
``solve_assignment`` is a general exact assignment solver that no
scenario needs.
"""

from dataclasses import dataclass

from .partitions import Partition, part_at


class ScenarioError(ValueError):
    """The scenario's constraints cannot be satisfied."""


@dataclass(frozen=True)
class ScenarioFactor:
    objective: Partition
    dimension: int
    weights: tuple[tuple[int, int], ...]  # (weight, multiplicity)
    dual: bool = False
    pinned: tuple[tuple[int, int], ...] = ()  # (1-based position, weight)
    last_classes: tuple[int, ...] | None = None

    def coeff(self, p: int) -> int:
        """Objective coefficient at 1-based position p."""
        if self.dual:
            return part_at(self.objective, self.dimension + 1 - p)
        return -part_at(self.objective, p)


def _weights_list(factor: ScenarioFactor) -> list[int]:
    out: list[int] = []
    for w, m in factor.weights:
        if m < 0:
            raise ScenarioError(f"negative multiplicity for weight {w}")
        out.extend([w] * m)
    if len(out) != factor.dimension:
        raise ScenarioError(
            f"weight multiplicities sum to {len(out)}, expected {factor.dimension}"
        )
    return out


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


def _greedy_pair(coeffs: list[int], weights: list[int]) -> int:
    coeffs = sorted(coeffs, reverse=True)
    weights = sorted(weights, reverse=True)
    return sum(c * w for c, w in zip(coeffs, weights))


def _max_factor(factor: ScenarioFactor) -> int:
    dim = factor.dimension
    if dim < 1:
        raise ScenarioError("factor dimension must be positive")
    pool = _weights_list(factor)
    total = 0
    free_positions = set(range(1, dim + 1))
    for pos, w in factor.pinned:
        if pos not in free_positions:
            raise ScenarioError(f"position {pos} pinned twice or out of range")
        if w not in pool:
            raise ScenarioError(f"pinned weight {w} not available")
        last = factor.last_classes
        if pos == dim and last is not None and w not in last:
            raise ScenarioError(f"pinned weight {w} not allowed in the last position")
        pool.remove(w)
        free_positions.remove(pos)
        total += factor.coeff(pos) * w
    if factor.last_classes is not None and dim in free_positions:
        c_last = factor.coeff(dim)
        rest_positions = [p for p in free_positions if p != dim]
        best = None
        for w in set(factor.last_classes):
            if w not in pool:
                continue
            remaining = pool.copy()
            remaining.remove(w)
            cand = c_last * w + _greedy_pair(
                [factor.coeff(p) for p in rest_positions], remaining
            )
            if best is None or cand > best:
                best = cand
        if best is None:
            raise ScenarioError("no admissible weight for the last position")
        return total + best
    return total + _greedy_pair([factor.coeff(p) for p in free_positions], pool)


def hm_max_destabilization(factors: list[ScenarioFactor]) -> int:
    """Maximum of the negated line-bundle weight over the fiber: the sum
    of per-factor maxima (the factors are independent)."""
    return sum(_max_factor(f) for f in factors)


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
# U_i ⊗ V_j carries the sum of its factors' weights.  The builders give
# the small weights as {weight: multiplicity} dicts and sum over those
# (at most three per space), never over the n1·n2 lines.


def _small(objective: Partition, weights: dict[int, int], *pins: int) -> ScenarioFactor:
    """A small space's flag; ``pins[i]`` is the weight at position i + 1."""
    return ScenarioFactor(
        objective, sum(weights.values()), tuple(weights.items()),
        pinned=tuple(enumerate(pins, 1)),
    )


def _tensor(objective: Partition, blocks: list, last: tuple[int, ...] | None = None,
            moved: tuple[int, int] | None = None) -> ScenarioFactor:
    """The dual big flag on the direct sum of the products U ⊗ V in
    ``blocks``, weighted by pairwise sums; ``moved=(old, new)`` relabels
    one line of weight old as new."""
    sums: dict[int, int] = {}
    for u, v in blocks:
        for a, i in u.items():
            for b, j in v.items():
                sums[a + b] = sums.get(a + b, 0) + i * j
    if moved:
        old, new = moved
        sums[old] -= 1
        sums[new] = sums.get(new, 0) + 1
    return ScenarioFactor(
        objective, sum(sums.values()), tuple(sums.items()), dual=True, last_classes=last
    )


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
    u, v = {1: 1, -1: 1, 0: n1 - 2}, {1: 1, -1: 1, 0: n2 - 2}
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
    u, v = ({1: 1, -1: 1, 0: n - 2} if n >= 3 else {1: 1, 0: 1} for n in (n1, n2))
    # With two rows each, D2 subtracts nu_4, so one line needs weight -1:
    # the paper's spectrum is {2, 1, 0, -1}, the pairwise sums {2, 1, 1, 0}.
    big = _tensor(nu, [(u, v)], last=(0,), moved=(1, -1) if n2 == 2 else None)
    return [([_small(lam, u, *p), _small(mu, v, *p[::-1]), big], 2) for p in ((0, 1), (1, 0))]


def tau_B(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Scenario behind the long-nu improvement of the first converted
    external bound: weights (1, 0, ..., 0) and (0, -1, ..., -1), with 1
    and 0 pinned first."""
    n1, n2 = len(lam), len(mu)
    if n1 < 1 or n2 < 2:
        raise ScenarioError("factor partitions too short for this scenario")
    u, v = {1: 1, 0: n1 - 1}, {0: 1, -1: n2 - 1}
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
    u, v = {1: 1, -1: 1, 0: n1 - 2}, {0: 1, -2: 1, -1: n2 - 2}
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
    products; factors of dimension 0 are dropped."""
    (lp, lm), (mp, mm), (np_, nm) = lam, mu, nu
    if len(lp) < 2 or len(mp) < 2:
        raise ScenarioError("plus parts need length >= 2")
    u, v = ({1: 1, -1: 1, 0: len(p) - 2} for p in (lp, mp))
    x, y = {0: len(lm)}, {0: len(mm)}
    factors = [
        _small(lp, u, 1), _small(mp, v, 1), _small(lm, x), _small(mm, y),
        _tensor(np_, [(u, v), (x, y)], last=(0,)), _tensor(nm, [(u, y), (x, v)]),
    ]
    return [f for f in factors if f.dimension], 2
