"""Kronecker coefficients of the symmetric group, computed exactly.

The entries of Kronecker blocks are cached under the sorted triple: g
is symmetric in its three shapes, so every order of a triple reads one
entry, and a block computes only its missing entries.
"""

from math import factorial
from operator import mul

# ``character`` stays a name here: perfbench traces ``kronecker.character``.
from .partitions import KRON_SIZE_CAP, Partition, check_count, check_direction, check_triple, exact_quotient, format_triple, over_cap
from .characters import character, column, size_column

_values: dict[tuple[Partition, Partition, Partition], int] = {}


def kron(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """Multiplicity of the irreducible of shape ``gamma`` in the tensor
    product of the irreducibles of shapes ``alpha`` and ``beta``.

    Evaluated as the class-weighted sum of triple character products,
    entirely in integer arithmetic: the three full character columns
    are zipped with the column of class sizes ``n!/z(rho)``, and the
    total must come out divisible by ``n!``.
    """
    alpha, beta, gamma = check_triple((alpha, beta, gamma), False)
    n = sum(alpha)
    if n > KRON_SIZE_CAP:
        raise over_cap(f"size {n} of {format_triple((alpha, beta, gamma))}", KRON_SIZE_CAP)
    total = sum(
        a * b * c * size
        for size, a, b, c in zip(size_column(n), column(alpha), column(beta), column(gamma))
        if a and b and c
    )
    return exact_quotient(total, factorial(n), "Kronecker coefficient", alpha, beta, gamma)


def kron_block_unchecked(delta: Partition, xs, ys) -> dict[Partition, dict[Partition, int]]:
    """The nonzero ``kron(delta, x, y)`` over x in ``xs`` and y in
    ``ys``, as ``{x: {y: g}}`` with a row, possibly empty, for every x,
    for partitions of one size at most ``KRON_SIZE_CAP`` that the caller
    has checked.  Entries come from the value cache, and only the
    missing ones are computed: the class sizes are weighted by the
    character of ``delta`` once and by that of each x once, so each
    entry is one dot product with the character of y, checked as in
    ``kron``.  Nothing is weighted for a row whose entries are all
    cached."""
    n = sum(delta)
    weighted = None
    block = {}
    for x in xs:
        row = block[x] = {}
        wx = None
        lo, hi = (delta, x) if delta <= x else (x, delta)
        for y in ys:
            # the sorted triple, y inserted into the sorted pair
            key = (y, lo, hi) if y <= lo else (lo, y, hi) if y <= hi else (lo, hi, y)
            g = _values.get(key)
            if g is None:
                if wx is None:
                    if weighted is None:
                        weighted = list(map(mul, size_column(n), column(delta)))
                    wx = list(map(mul, weighted, column(x)))
                total = sum(map(mul, wx, column(y)))
                g = _values[key] = exact_quotient(total, factorial(n), "Kronecker coefficient", delta, x, y)
            if g:
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
    alpha, beta, gamma = check_direction((alpha, beta, gamma), "")
    check_count(horizon, "horizon", 1)
    scale = lambda lam, d: tuple(d * p for p in lam)
    for d in range(1, horizon + 1):
        g = kron(scale(alpha, d), scale(beta, d), scale(gamma, d))
        if g != 1:
            return False, d, g
    return True, None, None
