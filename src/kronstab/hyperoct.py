"""Tensor-product multiplicities for hyperoctahedral groups.

Irreducibles of the wreath product of the order-2 group by the symmetric
group are indexed by double partitions (plus, minus) of total size n.
The tensor multiplicity is a convolution of Littlewood-Richardson (LR)
and Kronecker coefficients over the four mixed blocks of the plus/minus
splittings of the two factors.  Its eight factors link the shapes of a
cycle, so each term is the trace of a product of eight sparse blocks.
"""

from functools import reduce
from itertools import product
from math import comb

from .partitions import DoublePartition, Partition, PartitionError, SizeCapError, check_partition, dim_sn, format_partition, parse_partition, partitions_of
from .kronecker import kron
from .lr import lr

SIZE_CAP = 8


def parse_double_partition(text: str) -> DoublePartition:
    """Parse ``"plus;minus"``, each side in the partition grammar.

    >>> parse_double_partition("2;2")
    ((2,), (2,))
    >>> parse_double_partition("1;-")
    ((1,), ())
    """
    if ";" not in text:
        raise PartitionError(f"double partition needs a ';' separator, got {text!r}")
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
    return comb(total_size(alpha), sum(plus)) * dim_sn(plus) * dim_sn(minus)


def _kron_block(d: Partition) -> dict:
    """The nonzero ``kron(d, x, y)`` over x, y of the size of ``d``, as
    ``{x: {y: g}}``."""
    shapes = partitions_of(sum(d))
    return {x: {y: g for y in shapes if (g := kron(d, x, y))} for x in shapes}


def _lr_block(lam: Partition, s: int) -> dict:
    """Degree ``s`` of the coproduct of the Schur function of ``lam``: the
    nonzero ``lr(x, y, lam)`` over x of size s and y of size ``|lam| - s``,
    as ``{x: {y: c}}``."""
    ys = partitions_of(sum(lam) - s)
    return {x: {y: c for y in ys if (c := lr(x, y, lam))} for x in partitions_of(s)}


def _row_times(row: dict, block: dict) -> dict:
    out: dict = {}
    for y, v in row.items():
        for z, w in block[y].items():
            out[z] = out.get(z, 0) + v * w
    return out


def _trace(*blocks: dict) -> int:
    """Trace of the product of blocks, one row of the first at a time."""
    first, *rest = blocks
    return sum(reduce(_row_times, rest, row).get(x, 0) for x, row in first.items())


def _entries(block: dict) -> list:
    return [(x, y, c) for x, row in block.items() for y, c in row.items()]


def hyperoct_coeff(
    alpha: DoublePartition,
    beta: DoublePartition,
    gamma: DoublePartition,
    size_cap: int = SIZE_CAP,
) -> int:
    """Multiplicity of the irreducible ``gamma`` in the tensor product of
    the irreducibles ``alpha`` and ``beta``.

    Sums over splittings (d1, d2) of gamma-plus and (d3, d4) of
    gamma-minus: d1 couples the plus halves, d2 the minus halves, d3
    alpha-plus with beta-minus, d4 alpha-minus with beta-plus.  Each term
    is a trace around the cycle a - b - b2 - c2 - c - d - d2p - a2.
    """
    triple = [(check_partition(p), check_partition(m)) for p, m in (alpha, beta, gamma)]
    (ap, am), (bp, bm), (gp, gm) = triple
    n = total_size(gamma)
    if total_size(alpha) != n or total_size(beta) != n:
        return 0
    if n > size_cap:
        raise SizeCapError(
            f"total size {n} of {' / '.join(map(format_double_partition, triple))}"
            f" exceeds the desk-scale limit of {size_cap}"
        )
    # Block sizes: alpha-plus is s1 + s3, alpha-minus s2 + s4, beta-plus
    # s1 + s4, beta-minus s2 + s3 and gamma-plus s1 + s2.
    s1, odd = divmod(sum(ap) + sum(bp) + sum(gp) - n, 2)
    s2, s3, s4 = sum(gp) - s1, sum(ap) - s1, sum(bp) - s1
    if odd or min(s1, s2, s3, s4) < 0:
        return 0
    plus, minus = _entries(_lr_block(gp, s1)), _entries(_lr_block(gm, s3))
    g = {d: _kron_block(d) for d in {d for x, y, _ in plus + minus for d in (x, y)}}
    lr_bp, lr_am = _lr_block(bp, s1), _lr_block(am, s4)
    lr_bm, lr_ap = _lr_block(bm, s2), _lr_block(ap, s3)
    return sum(
        c12 * c34 * _trace(g[d1], lr_bp, g[d4], lr_am, g[d2], lr_bm, g[d3], lr_ap)
        for (d1, d2, c12), (d3, d4, c34) in product(plus, minus)
    )
