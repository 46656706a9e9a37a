"""Plethysm of Schur functions via exact power-sum arithmetic.

All internal computation happens in the power-sum basis, where plethysm
is the algebra morphism generated by ``p_k`` composed with ``p_m`` giving
``p_{k*m}``.  Schur functions appear only at the boundary, converted
through character values.
"""

from dataclasses import dataclass
from fractions import Fraction

from .partitions import ConsistencyError, Partition, SizeCapError, check_partition, format_triple, partitions_of, z_order
from .characters import character

DEGREE_CAP = 24


@dataclass(frozen=True)
class SymFunc:
    """A homogeneous symmetric function: a basis tag and a finite map
    from partitions to rational coefficients (zeros omitted)."""

    basis: str  # "powersum" or "schur"
    coeffs: tuple[tuple[Partition, Fraction], ...]

    def as_dict(self) -> dict[Partition, Fraction]:
        return dict(self.coeffs)

    def degree(self) -> int:
        for lam, _ in self.coeffs:
            return sum(lam)
        return 0


def _make(basis: str, d: dict[Partition, Fraction]) -> SymFunc:
    items = tuple(sorted(((k, v) for k, v in d.items() if v), reverse=True))
    return SymFunc(basis, items)


def schur_to_powersum(lam: Partition) -> SymFunc:
    """Power-sum expansion of a Schur function: the coefficient of
    ``p_rho`` is ``character(lam, rho) / z(rho)``."""
    lam = check_partition(lam)
    n = sum(lam)
    d = {}
    for rho in partitions_of(n):
        c = character(lam, rho)
        if c:
            d[rho] = Fraction(c, z_order(rho))
    return _make("powersum", d)


def powersum_to_schur(f: SymFunc) -> SymFunc:
    """Convert from the power-sum basis using the Hall inner product:
    the Schur coefficient at ``nu`` is the sum of ``c_rho * character(nu,
    rho)`` over the terms of ``f``."""
    if f.basis != "powersum":
        raise ValueError("expected a power-sum element")
    n = f.degree()
    terms = f.as_dict()
    d = {}
    for nu in partitions_of(n):
        s = sum((c * character(nu, rho) for rho, c in terms.items()), Fraction(0))
        if s:
            d[nu] = s
    return _make("schur", d)


def plethysm_powersum(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm in the power-sum basis.

    ``p_k`` composed with ``g`` multiplies every index of ``g`` by
    ``k``; composition is extended multiplicatively over the parts of
    each index of ``f``, with the rational coefficients of ``f`` left
    fixed.
    """
    if f.basis != "powersum" or g.basis != "powersum":
        raise ValueError("both arguments must be power-sum elements")
    gd = g.as_dict()
    out: dict[Partition, Fraction] = {}
    for rho, a in f.coeffs:
        # product over parts k of rho of (g with indices scaled by k)
        partial: dict[Partition, Fraction] = {(): a}
        for k in rho:
            nxt: dict[Partition, Fraction] = {}
            for sigma, b in gd.items():
                scaled = tuple(k * s for s in sigma)
                for idx, c in partial.items():
                    key = tuple(sorted(idx + scaled, reverse=True))
                    nxt[key] = nxt.get(key, Fraction(0)) + c * b
            partial = nxt
        for idx, c in partial.items():
            out[idx] = out.get(idx, Fraction(0)) + c
    return _make("powersum", out)


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
    total = sum(
        (c * character(nu, rho) for rho, c in comp.coeffs), Fraction(0)
    )
    if total.denominator != 1 or total < 0:
        raise ConsistencyError(
            f"plethysm coefficient came out {total} for {lam}, {mu}, {nu}"
        )
    return int(total)
