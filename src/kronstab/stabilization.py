"""Shifted Kronecker sequences and the certified stabilization index.

A sequence is the map d to kron(lam + d*a, mu + d*b, nu + d*c) for a
growth direction (a, b, c).  Given a certified bound B, the limit is the
value at d = B, and the true stabilization index is the least d from
which the sequence already sits at the limit.  Constancy is additionally
checked on a margin beyond B; a violation there means the bound was not
actually a bound, which must never happen for the certified families.
"""

from dataclasses import dataclass

from .partitions import Partition, add_scaled, check_partition
from .kronecker import kron

DIRECTIONS: dict[str, tuple[Partition, Partition, Partition]] = {
    "murnaghan": ((1,), (1,), (1,)),
    "squares": ((1, 1), (1, 1), (2,)),
}


class CertificateViolationError(RuntimeError):
    """The sequence moved beyond the certified bound."""


@dataclass(frozen=True)
class StabilizationResult:
    d_real: int
    limit: int
    sequence: tuple[int, ...]  # values for d = 0..horizon
    certificate: str
    certified: bool

    @property
    def horizon(self) -> int:
        return len(self.sequence) - 1


@dataclass(frozen=True)
class StabilizationQuery:
    """A base triple, a growth direction, and the certified bound whose
    soundness underwrites the reported index."""

    base: tuple[Partition, Partition, Partition]
    direction: tuple[Partition, Partition, Partition]
    certified_bound: int
    margin: int = 2
    certificate: str = "certified bound"

    def evaluate(self) -> "StabilizationResult":
        return d_real(
            self.base,
            self.direction,
            self.certified_bound,
            self.margin,
            self.certificate,
        )


def sequence_term(
    base: tuple[Partition, Partition, Partition],
    direction: tuple[Partition, Partition, Partition],
    d: int,
) -> int:
    """One term of the shifted sequence."""
    lam, mu, nu = (check_partition(p) for p in base)
    a, b, c = (check_partition(p) for p in direction)
    return kron(add_scaled(lam, d, a), add_scaled(mu, d, b), add_scaled(nu, d, c))


def d_real(
    base: tuple[Partition, Partition, Partition],
    direction: tuple[Partition, Partition, Partition],
    certified_bound: int,
    margin: int = 2,
    certificate: str = "certified bound",
) -> StabilizationResult:
    """Certified true stabilization index.

    The limit is read at d = certified_bound, not inferred from repeated
    equal values; the sequence is evaluated on [0, bound + margin] and
    must be constant on [bound, bound + margin].
    """
    if certified_bound < 0 or margin < 0:
        raise ValueError("bound and margin must be nonnegative")
    horizon = certified_bound + margin
    seq = tuple(sequence_term(base, direction, d) for d in range(horizon + 1))
    limit = seq[certified_bound]
    for d in range(certified_bound, horizon + 1):
        if seq[d] != limit:
            raise CertificateViolationError(
                f"sequence {seq} not constant on [{certified_bound}, {horizon}]"
            )
    idx = certified_bound
    while idx > 0 and seq[idx - 1] == limit:
        idx -= 1
    return StabilizationResult(idx, limit, seq, certificate, certified=True)


def empirical_scan(
    base: tuple[Partition, Partition, Partition],
    direction: tuple[Partition, Partition, Partition],
    horizon: int,
) -> StabilizationResult:
    """Uncertified scan along a custom direction: reports the first
    index from which the computed values agree up to the horizon, with
    no claim beyond it."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    seq = tuple(sequence_term(base, direction, d) for d in range(horizon + 1))
    limit = seq[-1]
    idx = horizon
    while idx > 0 and seq[idx - 1] == limit:
        idx -= 1
    return StabilizationResult(
        idx, limit, seq, f"empirical (horizon {horizon})", certified=False
    )
