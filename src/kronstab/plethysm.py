"""Plethysm of Schur functions via exact power-sum arithmetic.

All internal computation happens in the power-sum basis, where plethysm
is the algebra morphism generated by ``p_k`` composed with ``p_m`` giving
``p_{k*m}``; a ``SymFunc`` is a power-sum expansion.  Schur functions
appear only at the boundary, converted through character values, each
of degree at most ``DEGREE_CAP``.  Coefficients are integers over one
common denominator, so the only division is the final exactness check.

Inside a composition a power-sum index rho is an integer *code*: the
multiplicity of the part j sits in a bit field of width ``BITS`` at bit
``BITS * (j - 1)``.  No multiplicity exceeds the degree, which is at most
``DEGREE_CAP < 1 << BITS``, so no field overflows and the product of
``p_rho`` and ``p_sigma`` is ``p`` of the sum of their codes.  Codes
compare as their partitions do lexicographically, largest part first.

A composition f[g] splits each index of f into its runs of m equal
parts k, builds once the powers ``p_k[g] ** m`` that those runs use,
and takes each ``p_rho[g]`` as a product over the distinct parts of
rho: at most four factors at degree 12, rather than one per part.
"""

from functools import cache
from math import factorial, gcd
from operator import mul
from typing import NamedTuple

from .partitions import Partition, check_partition, exact_quotient, format_partition, format_triple, over_cap, partitions_of
# ``character`` stays a name here: perfbench traces ``plethysm.character``.
from .characters import character, column, count, size_column

DEGREE_CAP = 24
BITS = DEGREE_CAP.bit_length()


class SymFunc(NamedTuple):
    """A homogeneous symmetric function in the power-sum basis: a finite
    map from partitions to integer numerators (zeros omitted) and their
    common positive denominator, in lowest terms."""

    coeffs: tuple[tuple[Partition, int], ...]
    denom: int = 1

    def degree(self) -> int:
        for lam, _ in self.coeffs:
            return sum(lam)
        return 0


def _make(d: dict, denom: int, decode=lambda k: k) -> SymFunc:
    """The ``SymFunc`` of the numerators ``d`` over ``denom``, its keys
    sorted in decreasing order, then turned into partitions by
    ``decode``."""
    g = gcd(denom, *d.values())
    items = tuple((decode(k), v // g) for k, v in sorted(d.items(), reverse=True) if v)
    return SymFunc(items, denom // g)


def schur_to_powersum(lam: Partition) -> SymFunc:
    """Power-sum expansion of a Schur function: the coefficient of
    ``p_rho`` is ``character(lam, rho) / z(rho)``, held as the class
    size times the character value over ``n!``."""
    lam = check_partition(lam)
    n = sum(lam)
    if n > DEGREE_CAP:
        raise over_cap(f"size {n} of {format_partition(lam)}", DEGREE_CAP)
    classes = reversed(partitions_of(n))
    d = dict(zip(classes, map(mul, column(lam), size_column(n))))
    return _make(d, factorial(n))


def _code(rho: Partition, k: int = 1) -> int:
    """Code of the index ``k * rho``."""
    return sum(1 << BITS * (k * p - 1) for p in rho)


def _runs(code: int):
    """The parts j of a coded index with their multiplicities m, largest
    part first, as pairs ``(j, m)``."""
    while code:
        shift = (code.bit_length() - 1) // BITS * BITS
        m = code >> shift
        code ^= m << shift
        yield shift // BITS + 1, m


def _decode(code: int) -> Partition:
    return tuple(j for j, m in _runs(code) for _ in range(m))


@cache
def _classes(n: int) -> dict[int, int]:
    """Class position of each coded index of size ``n``.  By the block
    rule of class order the classes of m are, for k from 1 up, k followed
    by each of the first ``count(m - k, k)`` classes of m - k."""
    codes = [[0]]
    for m in range(1, n + 1):
        codes.append([c + (1 << BITS * (k - 1)) for k in range(1, m + 1) for c in codes[m - k][:count(m - k, k)]])
    return {c: i for i, c in enumerate(codes[n])}


def _times(x: dict[int, int], y: dict[int, int], out: dict[int, int] | None = None) -> dict[int, int]:
    """Product of two power-sum elements held as numerators by code,
    added into ``out`` when given.  Against the code 0 of ``p_()`` the
    keys of ``y`` are reused, not rebuilt as sums, so a result that
    copies a power shares its key objects."""
    if out is None:
        out = {}
    for idx, c in x.items():
        if idx:
            for s, b in y.items():
                key = idx + s
                out[key] = out.get(key, 0) + c * b
        else:
            for s, b in y.items():
                out[s] = out.get(s, 0) + c * b
    return out


def _square(x: dict[int, int]) -> dict[int, int]:
    """``_times(x, x)`` over unordered pairs of terms: each cross term
    once, doubled."""
    out: dict[int, int] = {}
    terms = list(x.items())
    for i, (s, b) in enumerate(terms):
        out[s + s] = out.get(s + s, 0) + b * b
        b += b
        for idx, c in terms[i + 1:]:
            key = idx + s
            out[key] = out.get(key, 0) + c * b
    return out


def _compose(f: SymFunc, g: SymFunc) -> tuple[dict[int, int], int]:
    """Plethysm in the power-sum basis: numerators by code, over one
    common denominator.

    ``p_k`` composed with ``g`` multiplies every index of ``g`` by
    ``k``; composition is extended multiplicatively over the parts of
    each index ``rho`` of ``f``, with the coefficients of ``f`` left
    fixed.  A run of m parts k contributes the power ``p_k[g] ** m``,
    built once per call: an even power as the square of its half, an
    odd one as the power below times ``p_k[g]``.  The product over the
    runs of ``rho`` lies over ``g.denom ** len(rho)``, so each term is
    scaled by ``g.denom ** (deg f - len(rho))`` to put every term over
    ``f.denom * g.denom ** deg f``.
    """
    deg = f.degree()
    if deg * g.degree() > DEGREE_CAP:
        raise over_cap(f"degree {deg * g.degree()} of the composition", DEGREE_CAP)
    built: dict[tuple[int, int], dict[int, int]] = {}  # (p_k[g]) ** m by (k, m)

    def power(k: int, m: int) -> dict[int, int]:
        p = built.get((k, m))
        if p is None:
            if m == 1:
                p = {_code(sigma, k): b for sigma, b in g.coeffs}
            elif m % 2:
                p = _times(power(k, 1), power(k, m - 1))
            else:
                p = _square(power(k, m // 2))
            built[k, m] = p
        return p

    powers = {run: power(*run) for rho, _ in f.coeffs for run in _runs(_code(rho))}
    built.clear()  # keep only the powers that some run uses
    out: dict[int, int] = {}
    for rho, a in f.coeffs:
        # The empty index is p_() = 1.
        factors = [powers[run] for run in _runs(_code(rho))] or [{0: 1}]
        partial = {0: a * g.denom ** (deg - len(rho))}
        for p in factors[:-1]:
            partial = _times(partial, p)
        _times(partial, factors[-1], out)
    return out, f.denom * g.denom ** deg


def plethysm_powersum(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm in the power-sum basis, of degree at most
    ``DEGREE_CAP``."""
    comp, denom = _compose(f, g)
    return _make(comp, denom, _decode)


def plethysm_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the Schur functor of shape ``nu`` inside the
    composition of the functors of shapes ``lam`` (outer) and ``mu``
    (inner).  Zero unless ``|lam|*|mu| == |nu|``.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    deg = sum(lam) * sum(mu)
    if deg != sum(nu):
        return 0
    if deg > DEGREE_CAP:
        raise over_cap(f"degree {deg} of {format_triple((lam, mu, nu))}", DEGREE_CAP)
    comp, denom = _compose(schur_to_powersum(lam), schur_to_powersum(mu))
    # The top field of the largest code is the largest part of any index.
    col = column(nu, (max(comp).bit_length() + BITS - 1) // BITS)
    index = _classes(deg)
    total = sum(c * col[index[code]] for code, c in comp.items())
    return exact_quotient(total, denom, "plethysm coefficient", lam, mu, nu)
