"""Kronecker coefficients of the symmetric group, computed exactly."""

from math import factorial
from operator import mul

# ConsistencyError and character are re-exported for existing importers.
from .partitions import ConsistencyError, Partition, SizeCapError, check_partition, format_partition, format_triple, size_mismatch
from .characters import KRON_SIZE_CAP, character, column, size_column


def _multiplicity(total: int, nfact: int, alpha, beta, gamma) -> int:
    """The class sum ``total`` over ``nfact``, the factorial of the size:
    the Kronecker coefficient of the triple, checked to be a nonnegative
    integer."""
    g, rem = divmod(total, nfact)
    if rem:
        raise ConsistencyError(
            f"class sum {total} not divisible by {sum(alpha)}! for {alpha}, {beta}, {gamma}"
        )
    if g < 0:
        raise ConsistencyError(
            f"negative multiplicity {g} for {alpha}, {beta}, {gamma}"
        )
    return g


def kron(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """Multiplicity of the irreducible of shape ``gamma`` in the tensor
    product of the irreducibles of shapes ``alpha`` and ``beta``.

    Evaluated as the class-weighted sum of triple character products,
    entirely in integer arithmetic: the three full character columns
    are zipped with the column of class sizes ``n!/z(rho)``, and the
    total must come out divisible by ``n!``.
    """
    alpha = check_partition(alpha)
    beta = check_partition(beta)
    gamma = check_partition(gamma)
    n = sum(alpha)
    if sum(beta) != n or sum(gamma) != n:
        raise size_mismatch((n, sum(beta), sum(gamma)), format_triple((alpha, beta, gamma)))
    if n > KRON_SIZE_CAP:
        raise SizeCapError(
            f"size {n} of {format_triple((alpha, beta, gamma))}"
            f" exceeds the desk-scale limit of {KRON_SIZE_CAP}"
        )
    total = sum(
        size * a * b * c
        for size, a, b, c in zip(size_column(n), column(alpha), column(beta), column(gamma))
        if a and b and c
    )
    return _multiplicity(total, factorial(n), alpha, beta, gamma)


def kron_block(delta: Partition, xs, ys) -> dict[Partition, dict[Partition, int]]:
    """The nonzero ``kron(delta, x, y)`` over x in ``xs`` and y in
    ``ys``, as ``{x: {y: g}}`` with a row, possibly empty, for every x.

    The class sizes are weighted by the character of ``delta`` once and
    by that of each x once, so each entry is one dot product of the
    weighted column with the character of y, checked as in ``kron``.
    """
    delta = check_partition(delta)
    xs = [check_partition(x) for x in xs]
    ys = [check_partition(y) for y in ys]
    n = sum(delta)
    for shape in xs + ys:
        if sum(shape) != n:
            raise ValueError(
                f"size {sum(shape)} of {format_partition(shape)} differs from size {n}"
                f" of {format_partition(delta)}; every shape of a block must have that size"
            )
    if n > KRON_SIZE_CAP:
        raise SizeCapError(
            f"size {n} of the block of {format_partition(delta)}"
            f" exceeds the desk-scale limit of {KRON_SIZE_CAP}"
        )
    nfact = factorial(n)
    weighted = list(map(mul, size_column(n), column(delta)))
    cols = [(y, column(y)) for y in ys]
    block = {}
    for x in xs:
        wx = list(map(mul, weighted, column(x)))
        row = block[x] = {}
        for y, col in cols:
            if g := _multiplicity(sum(map(mul, wx, col)), nfact, delta, x, y):
                row[y] = g
    return block


def weak_stability_probe(
    alpha: Partition,
    beta: Partition,
    gamma: Partition,
    horizon: int,
) -> tuple[bool, int | None, int | None]:
    """Check ``kron(d*alpha, d*beta, d*gamma) == 1`` for ``d = 1..horizon``.

    Returns ``(True, None, None)`` if every probe equals 1, otherwise
    ``(False, d, value)`` for the first failing ``d``.  This is a finite
    probe, not a proof: passing every ``d`` up to the horizon does not
    certify weak stability.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    scale = lambda lam, d: tuple(d * p for p in lam)
    for d in range(1, horizon + 1):
        g = kron(scale(alpha, d), scale(beta, d), scale(gamma, d))
        if g != 1:
            return False, d, g
    return True, None, None
