"""Shifted coefficient sequences and the certified stabilization index.

A Kronecker sequence maps d to kron(lam + d*a, mu + d*b, nu + d*c) for a
growth direction (a, b, c); a hyperoctahedral one grows three double
partitions half by half.  A family of ``bounds.FAMILIES`` declares its
kind and the bound B its certified index is read from: the limit is the
value at d = B, and the true stabilization index is the least d from
which the sequence already sits at the limit.  Constancy is also checked
on a margin beyond B; a violation there means the bound was not actually
a bound, which must never happen for the certified families.

When a Kronecker direction itself has g(a, b, c) >= 1 the sequence is
weakly increasing: multiplying by that nonzero covariant is injective,
since the covariant algebra is a domain.  A decrease is therefore an
arithmetic fault and raises ``ConsistencyError``.  No such result is
established for hyperoctahedral sequences, so they are not checked.
"""

from typing import NamedTuple

from . import bounds
from .partitions import ConsistencyError, add_scaled, check_count, check_triple, format_triple
from .kronecker import kron
from .hyperoct import hyperoct_coeff


class CertificateViolationError(RuntimeError):
    """The sequence moved beyond the certified bound."""


class StabilizationResult(NamedTuple):
    d_real: int
    limit: int
    sequence: tuple[int, ...]  # values for d = 0..horizon
    certificate: str
    certified: bool

    @property
    def horizon(self) -> int:
        return len(self.sequence) - 1


def sequence_term(base, direction, d: int) -> int:
    """One term of a Kronecker sequence.  The direction's three sizes
    must agree: otherwise no term beyond d = 0 is a valid triple."""
    direction = check_triple(direction, False, "direction ")
    base = check_triple(base, False)
    return kron(*(add_scaled(p, d, a) for p, a in zip(base, direction)))


def hyperoct_term(base, direction, d: int) -> int:
    """One term of a hyperoctahedral sequence: each double partition of
    the base grows half by half along the direction's."""
    direction = check_triple(direction, True, "direction ")
    base = check_triple(base, True)
    return hyperoct_coeff(*(
        (add_scaled(p, d, a), add_scaled(m, d, b)) for (p, m), (a, b) in zip(base, direction)
    ))


def _sequence(base, direction, horizon: int, double: bool = False) -> tuple[int, ...]:
    """The terms d = 0..horizon, checked to be weakly increasing for a
    Kronecker direction with a nonzero coefficient."""
    # module-level names, read per call: the benchmark's tracer wraps one
    term = hyperoct_term if double else sequence_term
    seq = tuple(term(base, direction, d) for d in range(horizon + 1))
    drop = next((d for d in range(1, len(seq)) if seq[d] < seq[d - 1]), None)
    if drop is not None and not double and kron(*direction) >= 1:
        raise ConsistencyError(
            f"sequence {seq} of {format_triple(base)} along "
            f"{format_triple(direction)} decreases at d = {drop}"
        )
    return seq


def _result(seq, start: int, certificate: str, certified: bool) -> StabilizationResult:
    """The least index from which the sequence sits at its value at
    ``start``, up to ``start``."""
    idx = start
    while idx > 0 and seq[idx - 1] == seq[start]:
        idx -= 1
    return StabilizationResult(idx, seq[start], seq, certificate, certified)


def d_real(family: str, base, margin: int = 2) -> StabilizationResult:
    """Certified true stabilization index of the family's sequence from
    ``base``.  The limit is read at d = B for the family's certified bound
    B, looked up at call time as ``bound_values`` does, not inferred from
    repeated equal values: the sequence is evaluated on [0, B + margin]
    and must be constant on [B, B + margin]."""
    record = bounds.family_record(family)
    check_count(margin, "margin")
    base = check_triple(base, record.double)
    bound = getattr(bounds, record.bounds[record.certified])(*base)
    horizon = bound + margin
    seq = _sequence(base, record.direction, horizon, record.double)
    if any(v != seq[bound] for v in seq[bound:]):
        raise CertificateViolationError(
            f"{record.certified} = {bound} is not a bound for "
            f"{format_triple(base, record.double)} along "
            f"{format_triple(record.direction, record.double)}: "
            f"sequence {seq} not constant on [{bound}, {horizon}]"
        )
    return _result(seq, bound, record.certified, certified=True)


def empirical_scan(base, direction, horizon: int) -> StabilizationResult:
    """Uncertified scan of a Kronecker sequence along a custom direction:
    reports the first index from which the computed values agree up to
    the horizon, with no claim beyond it."""
    check_count(horizon, "horizon")
    seq = _sequence(base, direction, horizon)
    return _result(seq, horizon, f"empirical (horizon {horizon})", certified=False)
