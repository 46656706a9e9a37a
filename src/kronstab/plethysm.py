"""Plethysm of Schur functions via exact power-sum arithmetic.

All internal computation happens in the power-sum basis, where plethysm
is the algebra morphism generated by ``p_k`` composed with ``p_m`` giving
``p_{k*m}``.  Schur functions appear only at the boundary, converted
through character values.  Coefficients are integers over one common
denominator, so the only division is the final exactness check.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from operator import mul

from .partitions import ConsistencyError, Partition, SizeCapError, check_partition, format_triple, partitions_of
# ``character`` stays a name here: perfbench traces ``plethysm.character``.
from .characters import character, column, rank, size_column

DEGREE_CAP = 24


@dataclass(frozen=True)
class SymFunc:
    """A homogeneous symmetric function: a basis tag, a finite map from
    partitions to integer numerators (zeros omitted) and their common
    positive denominator, in lowest terms."""

    basis: str  # "powersum" or "schur"
    coeffs: tuple[tuple[Partition, int], ...]
    denom: int = 1

    def as_dict(self) -> dict[Partition, Fraction]:
        return {lam: Fraction(c, self.denom) for lam, c in self.coeffs}

    def degree(self) -> int:
        for lam, _ in self.coeffs:
            return sum(lam)
        return 0


def _make(basis: str, d: dict[Partition, int], denom: int) -> SymFunc:
    g = gcd(denom, *d.values())
    items = tuple(sorted(((k, v // g) for k, v in d.items() if v), reverse=True))
    return SymFunc(basis, items, denom // g)


def schur_to_powersum(lam: Partition) -> SymFunc:
    """Power-sum expansion of a Schur function: the coefficient of
    ``p_rho`` is ``character(lam, rho) / z(rho)``, held as the class
    size times the character value over ``n!``."""
    lam = check_partition(lam)
    n = sum(lam)
    classes = reversed(partitions_of(n))
    d = dict(zip(classes, map(mul, column(lam), size_column(n))))
    return _make("powersum", d, factorial(n))


def _schur_numerators(f: SymFunc, shapes) -> list[int]:
    """For each shape ``nu`` of the degree of ``f``, the sum of ``c_rho
    * character(nu, rho)`` over the terms of ``f``: its Hall inner
    product with the Schur function at ``nu``, times ``f.denom``."""
    terms = [(rank(rho), c) for rho, c in f.coeffs]
    top = max((rho[0] for rho, _ in f.coeffs if rho), default=0)
    out = []
    for nu in shapes:
        col = column(nu, top)
        out.append(sum(c * col[r] for r, c in terms))
    return out


def powersum_to_schur(f: SymFunc) -> SymFunc:
    """Convert from the power-sum basis using the Hall inner product:
    the Schur coefficient at ``nu`` is the sum of ``c_rho * character(nu,
    rho)`` over the terms of ``f``."""
    if f.basis != "powersum":
        raise ValueError("expected a power-sum element")
    shapes = partitions_of(f.degree())
    return _make("schur", dict(zip(shapes, _schur_numerators(f, shapes))), f.denom)


def plethysm_powersum(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm in the power-sum basis.

    ``p_k`` composed with ``g`` multiplies every index of ``g`` by
    ``k``; composition is extended multiplicatively over the parts of
    each index ``rho`` of ``f``, with the coefficients of ``f`` left
    fixed.  That product lies over ``g.denom ** len(rho)``, so each term
    is scaled by ``g.denom ** (deg f - len(rho))`` to put every term over
    ``f.denom * g.denom ** deg f``.
    """
    if f.basis != "powersum" or g.basis != "powersum":
        raise ValueError("both arguments must be power-sum elements")
    deg = f.degree()
    out: dict[Partition, int] = {}
    for rho, a in f.coeffs:
        # product over parts k of rho of (g with indices scaled by k)
        partial: dict[Partition, int] = {(): a * g.denom ** (deg - len(rho))}
        for k in rho:
            nxt: dict[Partition, int] = {}
            for sigma, b in g.coeffs:
                scaled = tuple(k * s for s in sigma)
                for idx, c in partial.items():
                    key = tuple(sorted(idx + scaled, reverse=True))
                    nxt[key] = nxt.get(key, 0) + c * b
            partial = nxt
        for idx, c in partial.items():
            out[idx] = out.get(idx, 0) + c
    return _make("powersum", out, f.denom * g.denom ** deg)


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
        raise SizeCapError(
            f"degree {deg} of {format_triple((lam, mu, nu))} exceeds the"
            f" desk-scale limit of {DEGREE_CAP}"
        )
    comp = plethysm_powersum(schur_to_powersum(lam), schur_to_powersum(mu))
    [total] = _schur_numerators(comp, [nu])
    coeff, rem = divmod(total, comp.denom)
    if rem or coeff < 0:
        raise ConsistencyError(
            f"plethysm coefficient came out {total}/{comp.denom} for {lam}, {mu}, {nu}"
        )
    return coeff
