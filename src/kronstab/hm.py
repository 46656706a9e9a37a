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


def _weights(*pairs: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple((w, m) for w, m in pairs if m > 0)


def tau0_murnaghan(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Destabilizing scenario for the one-box growth direction.

    Torus weights (1, -1, 0, ...) on the first space and (-1, 1, 0, ...)
    on the second; the dual tensor factor keeps the last flag position on
    the zero weight class (the kernel of the base point's form contains
    no diagonal line).  Returns (factors, base weight).
    """
    n1, n2 = len(lam), len(mu)
    if n1 < 2 or n2 < 2:
        raise ScenarioError("both factor partitions need length >= 2")
    P = n1 * n2
    side = n1 + n2 - 4
    f1 = ScenarioFactor(lam, n1, _weights((1, 1), (-1, 1), (0, n1 - 2)), pinned=((1, 1),))
    f2 = ScenarioFactor(mu, n2, _weights((1, 1), (-1, 1), (0, n2 - 2)), pinned=((1, 1),))
    f3 = ScenarioFactor(
        nu,
        P,
        _weights((2, 1), (-2, 1), (1, side), (-1, side), (0, P - 2 - 2 * side)),
        dual=True,
        last_classes=(0,),
    )
    return [f1, f2, f3], 2


def tau_squares(
    lam: Partition, mu: Partition, nu: Partition
) -> list[tuple[list[ScenarioFactor], int]]:
    """The two destabilizing scenarios for the two-box growth direction.

    Both pin the first two positions of each small flag; they differ in
    which weights sit there.  Dimension-2 factors carry the truncated
    weight data implied by the corresponding closed-form branch.
    """
    n1, n2 = len(lam), len(mu)
    if n1 < 2 or n2 < 2:
        raise ScenarioError("both factor partitions need length >= 2")
    if n2 == 2 and n1 >= 3:
        return tau_squares(mu, lam, nu)
    P = n1 * n2

    def small_flag(objective: Partition, dim: int, first_w: int, second_w: int):
        if dim >= 3:
            ws = _weights((1, 1), (-1, 1), (0, dim - 2))
        else:
            ws = _weights((first_w, 1), (second_w, 1))
        return ScenarioFactor(
            objective, dim, ws, pinned=((1, first_w), (2, second_w))
        )

    if n1 >= 3 and n2 >= 3:
        side = n1 + n2 - 4
        tensor_ws = _weights(
            (2, 1), (-2, 1), (1, side), (-1, side), (0, P - 2 - 2 * side)
        )
    else:
        # n1 == 2 branch: one short factor flattens the weight spectrum
        tensor_ws = _weights((2, 1), (1, n2 - 1), (0, n2 - 1), (-1, 1))
    f3 = ScenarioFactor(nu, P, tensor_ws, dual=True, last_classes=(0,))
    return [
        ([small_flag(lam, n1, 0, 1), small_flag(mu, n2, 1, 0), f3], 2),
        ([small_flag(lam, n1, 1, 0), small_flag(mu, n2, 0, 1), f3], 2),
    ]


def tau_B(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Scenario behind the long-nu improvement of the first converted
    external bound: weights (1, 0, ...) and (-1, 0, -1, ..., -1)."""
    n1, n2 = len(lam), len(mu)
    if n1 < 1 or n2 < 2:
        raise ScenarioError("factor partitions too short for this scenario")
    P = n1 * n2
    f1 = ScenarioFactor(lam, n1, _weights((1, 1), (0, n1 - 1)), pinned=((1, 1),))
    f2 = ScenarioFactor(mu, n2, _weights((0, 1), (-1, n2 - 1)), pinned=((1, 0),))
    last = (0, -1) if min(n1, n2) >= 3 else (0,)
    f3 = ScenarioFactor(
        nu,
        P,
        _weights((1, 1), (0, n1 + n2 - 2), (-1, (n1 - 1) * (n2 - 1))),
        dual=True,
        last_classes=last,
    )
    return [f1, f2, f3], 1


def tau_BOR2(
    lam: Partition, mu: Partition, nu: Partition
) -> tuple[list[ScenarioFactor], int]:
    """Scenario behind the improved second converted bound: weights
    (1, -1, 0, ...) and (-2, 0, -1, ..., -1); every diagonal tensor line
    carries weight -1, which constrains the last flag position."""
    n1, n2 = len(lam), len(mu)
    if n1 < 3 or n2 < 3:
        raise ScenarioError("both factor partitions need length >= 3")
    P = n1 * n2
    f1 = ScenarioFactor(lam, n1, _weights((1, 1), (-1, 1), (0, n1 - 2)), pinned=((1, 1),))
    f2 = ScenarioFactor(mu, n2, _weights((-2, 1), (0, 1), (-1, n2 - 2)), pinned=((1, 0),))
    f3 = ScenarioFactor(
        nu,
        P,
        _weights(
            (1, 1),
            (0, n1 + n2 - 4),
            (-1, (n1 - 2) * (n2 - 2) + 1),
            (-2, n1 + n2 - 3),
            (-3, 1),
        ),
        dual=True,
        last_classes=(-1,),
    )
    return [f1, f2, f3], 2


def tau0_hyperoct(
    lam: tuple[Partition, Partition],
    mu: tuple[Partition, Partition],
    nu: tuple[Partition, Partition],
) -> tuple[list[ScenarioFactor], int]:
    """Hyperoctahedral analogue of the one-box scenario: the plus parts
    of the two small spaces carry the (1, -1, 0, ...) and (-1, 1, 0, ...)
    weights, the minus parts are weight-free, and the two big flags mix
    the blocks accordingly."""
    lp, lm = lam
    mp, mm = mu
    np_, nm = nu
    a1, a2 = len(lp), len(lm)
    b1, b2 = len(mp), len(mm)
    if a1 < 2 or b1 < 2:
        raise ScenarioError("plus parts need length >= 2")
    m = a1 * b1 + a2 * b2
    n = a1 * b2 + a2 * b1
    factors = [
        ScenarioFactor(lp, a1, _weights((1, 1), (-1, 1), (0, a1 - 2)), pinned=((1, 1),)),
        ScenarioFactor(mp, b1, _weights((1, 1), (-1, 1), (0, b1 - 2)), pinned=((1, 1),)),
    ]
    if a2:
        factors.append(ScenarioFactor(lm, a2, _weights((0, a2))))
    if b2:
        factors.append(ScenarioFactor(mm, b2, _weights((0, b2))))
    side = a1 + b1 - 4
    factors.append(
        ScenarioFactor(
            np_,
            m,
            _weights((2, 1), (-2, 1), (1, side), (-1, side), (0, m - 2 - 2 * side)),
            dual=True,
            last_classes=(0,),
        )
    )
    if n:
        cross = a2 + b2
        factors.append(
            ScenarioFactor(
                nm,
                n,
                _weights((1, cross), (-1, cross), (0, n - 2 * cross)),
                dual=True,
            )
        )
    return factors, 2
