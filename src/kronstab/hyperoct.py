"""Tensor-product multiplicities for hyperoctahedral groups.

Irreducibles of the wreath product of the order-2 group by the symmetric
group are indexed by double partitions (plus, minus) of total size n.
The tensor multiplicity is computed by a convolution of
Littlewood-Richardson and Kronecker coefficients: each of the two tensor
factors is split along the plus/minus decomposition of the underlying
pair of spaces, giving four mixed blocks, and the pieces are glued back
with LR coefficients on every boundary.
"""

from math import comb

from .partitions import DoublePartition, Partition, PartitionError, check_partition, dim_sn, format_partition, parse_partition, partitions_of
from .kronecker import kron
from .lr import lr

SIZE_CAP = 8


class SizeCapError(ValueError):
    """The request exceeds the desk-scale size limit."""


def parse_double_partition(text: str) -> DoublePartition:
    """Parse ``"plus;minus"``, each side in the partition grammar.

    >>> parse_double_partition("2;2")
    ((2,), (2,))
    >>> parse_double_partition("1;-")
    ((1,), ())
    """
    if ";" not in text:
        raise PartitionError(
            f"double partition needs a ';' separator, got {text!r}"
        )
    plus, _, minus = text.partition(";")
    return parse_partition(plus), parse_partition(minus)


def format_double_partition(alpha: DoublePartition) -> str:
    return f"{format_partition(alpha[0])};{format_partition(alpha[1])}"


def total_size(alpha: DoublePartition) -> int:
    return sum(alpha[0]) + sum(alpha[1])


def dim_wreath(alpha: DoublePartition) -> int:
    """Dimension of the wreath-product irreducible indexed by ``alpha``:
    choose which copies carry the sign of the order-2 factor, times the
    two symmetric group dimensions."""
    plus, minus = alpha
    n = total_size(alpha)
    return comb(n, sum(plus)) * dim_sn(plus) * dim_sn(minus)


def _splits(gamma: Partition) -> list[tuple[Partition, Partition, int]]:
    """All (d1, d2, lr(d1, d2, gamma)) with positive coefficient."""
    out = []
    n = sum(gamma)
    for k in range(n + 1):
        for d1 in partitions_of(k):
            for d2 in partitions_of(n - k):
                c = lr(d1, d2, gamma)
                if c:
                    out.append((d1, d2, c))
    return out


def hyperoct_coeff(
    alpha: DoublePartition,
    beta: DoublePartition,
    gamma: DoublePartition,
    size_cap: int = SIZE_CAP,
) -> int:
    """Multiplicity of the irreducible ``gamma`` in the tensor product of
    the irreducibles ``alpha`` and ``beta``.

    The convolution runs over splittings (d1, d2) of gamma-plus and
    (d3, d4) of gamma-minus across the four mixed blocks: d1 couples the
    two plus parts, d2 the two minus parts, d3 plus-with-minus, and d4
    minus-with-plus.  Size bookkeeping prunes every branch whose inner
    Kronecker coefficients would be forced to zero.
    """
    for dp in (alpha, beta, gamma):
        check_partition(dp[0])
        check_partition(dp[1])
    n = total_size(gamma)
    if total_size(alpha) != n or total_size(beta) != n:
        return 0
    if n > size_cap:
        raise SizeCapError(
            f"total size {n} exceeds the desk-scale limit of {size_cap}"
        )
    ap, am = alpha
    bp, bm = beta
    gp, gm = gamma
    total = 0
    for d1, d2, c12 in _splits(gp):
        for d3, d4, c34 in _splits(gm):
            # sizes carried by each of the four blocks
            s1, s2, s3, s4 = sum(d1), sum(d2), sum(d3), sum(d4)
            # block sizes must be consistent with the alpha/beta splits:
            # alpha-plus receives s1 + s3, alpha-minus s2 + s4,
            # beta-plus s1 + s4, beta-minus s2 + s3
            if s1 + s3 != sum(ap) or s2 + s4 != sum(am):
                continue
            if s1 + s4 != sum(bp) or s2 + s3 != sum(bm):
                continue
            inner = 0
            for a in partitions_of(s1):
                for b in partitions_of(s1):
                    g1 = kron(d1, a, b)
                    if not g1:
                        continue
                    for c in partitions_of(s2):
                        for d in partitions_of(s2):
                            g2 = kron(d2, c, d)
                            if not g2:
                                continue
                            for a2 in partitions_of(s3):
                                la = lr(a, a2, ap)
                                if not la:
                                    continue
                                for d2p in partitions_of(s3):
                                    g3 = kron(d3, a2, d2p)
                                    if not g3 or not lr(d, d2p, bm):
                                        continue
                                    ld = lr(d, d2p, bm)
                                    for c2 in partitions_of(s4):
                                        lc = lr(c, c2, am)
                                        if not lc:
                                            continue
                                        for b2 in partitions_of(s4):
                                            g4 = kron(d4, c2, b2)
                                            if not g4:
                                                continue
                                            lb = lr(b, b2, bp)
                                            if not lb:
                                                continue
                                            inner += (
                                                g1 * g2 * g3 * g4
                                                * la * lc * lb * ld
                                            )
            total += c12 * c34 * inner
    return total
