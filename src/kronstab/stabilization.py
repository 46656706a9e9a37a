"""Shifted coefficient sequences and the certified stabilization index.

A sequence is the map d to kron(lam + d*a, mu + d*b, nu + d*c) for a
growth direction (a, b, c), or to the hyperoctahedral coefficient when
the base and direction hold double partitions, which grow half by half.
Given a certified bound B, the limit is the value at d = B, and the true
stabilization index is the least d from which the sequence already sits
at the limit.  Constancy is additionally checked on a margin beyond B; a
violation there means the bound was not actually a bound, which must
never happen for the certified families.

When a Kronecker direction itself has g(a, b, c) >= 1 the sequence is
weakly increasing: multiplying by that nonzero covariant is injective,
since the covariant algebra is a domain.  A decrease is therefore an
arithmetic fault and raises ``ConsistencyError``.  No such result is
established for hyperoctahedral sequences, so they are not checked.
"""

from typing import NamedTuple

from .partitions import (
    ConsistencyError,
    add_scaled,
    check_count,
    check_triple,
    format_triple,
    is_double,
)
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
    """One term of the shifted sequence: a Kronecker coefficient, or a
    hyperoctahedral one along double partitions.  The direction's three
    sizes must agree: otherwise no term beyond d = 0 is a valid triple."""
    double = is_double(direction)
    direction = check_triple(direction, double, "direction ")
    base = check_triple(base, double)
    if double:
        return hyperoct_coeff(*(
            (add_scaled(p, d, a), add_scaled(m, d, b)) for (p, m), (a, b) in zip(base, direction)
        ))
    return kron(*(add_scaled(p, d, a) for p, a in zip(base, direction)))


def _sequence(base, direction, horizon: int) -> tuple[int, ...]:
    """The terms d = 0..horizon, checked to be weakly increasing when the
    direction is one of partitions with a nonzero Kronecker coefficient."""
    # the module-level name, which the benchmark's call tracer wraps
    seq = tuple(sequence_term(base, direction, d) for d in range(horizon + 1))
    drop = next((d for d in range(1, len(seq)) if seq[d] < seq[d - 1]), None)
    if drop is not None and not is_double(direction) and kron(*direction) >= 1:
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


def d_real(
    base, direction, certified_bound: int, margin: int = 2, certificate: str = "certified bound"
) -> StabilizationResult:
    """Certified true stabilization index.

    The limit is read at d = certified_bound, not inferred from repeated
    equal values; the sequence is evaluated on [0, bound + margin] and
    must be constant on [bound, bound + margin].
    """
    check_count(certified_bound, "certified_bound")
    check_count(margin, "margin")
    horizon = certified_bound + margin
    seq = _sequence(base, direction, horizon)
    limit = seq[certified_bound]
    if any(v != limit for v in seq[certified_bound:]):
        raise CertificateViolationError(
            f"{certificate} = {certified_bound} is not a bound for "
            f"{format_triple(base)} along {format_triple(direction)}: "
            f"sequence {seq} not constant on [{certified_bound}, {horizon}]"
        )
    return _result(seq, certified_bound, certificate, certified=True)


def empirical_scan(base, direction, horizon: int) -> StabilizationResult:
    """Uncertified scan along a custom direction: reports the first
    index from which the computed values agree up to the horizon, with
    no claim beyond it."""
    check_count(horizon, "horizon")
    seq = _sequence(base, direction, horizon)
    return _result(seq, horizon, f"empirical (horizon {horizon})", certified=False)
