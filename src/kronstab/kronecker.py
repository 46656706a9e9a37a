"""Kronecker coefficients of the symmetric group, computed exactly."""

from math import factorial

# ConsistencyError and character are re-exported for existing importers.
from .partitions import ConsistencyError, Partition, SizeCapError, check_partition, format_triple, size_mismatch
from .characters import KRON_SIZE_CAP, character, column, size_column


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
    nfact = factorial(n)
    g, rem = divmod(total, nfact)
    if rem:
        raise ConsistencyError(
            f"class sum {total} not divisible by {n}! for {alpha}, {beta}, {gamma}"
        )
    if g < 0:
        raise ConsistencyError(
            f"negative multiplicity {g} for {alpha}, {beta}, {gamma}"
        )
    return g


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
