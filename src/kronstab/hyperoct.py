"""Tensor-product multiplicities for hyperoctahedral groups.

Irreducibles of the wreath product of the order-2 group by the symmetric
group are indexed by double partitions (plus, minus) of total size n.
The tensor multiplicity is a convolution of Littlewood-Richardson (LR)
and Kronecker coefficients over the four mixed blocks of the plus/minus
splittings of the two factors.  Its eight factors link the shapes of a
cycle, so each term is the trace of a product of eight sparse blocks,
each built only over the shapes its neighbours on the cycle reach.
"""

from functools import reduce
from itertools import product
from math import comb

# format_double_partition stays importable here, beside parse_double_partition.
from .partitions import DoublePartition, Partition, PartitionError, SizeCapError, check_partition, contains, dim_sn, format_double_partition, format_triple, parse_partition, partitions_of, total_size
# ``kron`` and ``lr`` stay names here: perfbench traces ``hyperoct.kron``
# and ``hyperoct.lr``.
from .kronecker import kron, kron_block
from .lr import _lr, lr

SIZE_CAP = 20


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


def dim_wreath(alpha: DoublePartition) -> int:
    """Dimension of the wreath-product irreducible indexed by ``alpha``:
    choose which copies carry the sign of the order-2 factor, times the
    two symmetric group dimensions."""
    plus, minus = alpha
    return comb(total_size(alpha), sum(plus)) * dim_sn(plus) * dim_sn(minus)


def _lr_block(lam: Partition, s: int) -> dict:
    """Degree ``s`` of the coproduct of the Schur function of ``lam``: the
    nonzero ``lr(x, y, lam)`` over x of size s and y of size ``|lam| - s``,
    both inside ``lam``, as ``{x: {y: c}}`` with no empty rows.  The
    shapes come from ``partitions_of``, so they go to the cache unchecked."""
    xs, ys = ([x for x in partitions_of(k) if contains(lam, x)] for k in (s, sum(lam) - s))
    return {x: row for x in xs if (row := {y: c for y in ys if (c := _lr(x, y, lam))})}


def _cols(block: dict) -> dict:
    return dict.fromkeys(y for row in block.values() for y in row)


def _kron_blocks(ds, before: dict, after: dict) -> dict:
    """The Kronecker blocks of the shapes ``ds`` at one cycle position:
    from the columns of the LR block before it to the rows of the one
    after it, the only shapes a trace through it can use."""
    xs = _cols(before)
    return {d: kron_block(d, xs, after) for d in ds}


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
            f"total size {n} of {format_triple(triple)}"
            f" exceeds the desk-scale limit of {size_cap}"
        )
    # Block sizes: alpha-plus is s1 + s3, alpha-minus s2 + s4, beta-plus
    # s1 + s4, beta-minus s2 + s3 and gamma-plus s1 + s2.
    s1, odd = divmod(sum(ap) + sum(bp) + sum(gp) - n, 2)
    s2, s3, s4 = sum(gp) - s1, sum(ap) - s1, sum(bp) - s1
    if odd or min(s1, s2, s3, s4) < 0:
        return 0
    lr_gp, lr_gm = _lr_block(gp, s1), _lr_block(gm, s3)
    lr_bp, lr_am = _lr_block(bp, s1), _lr_block(am, s4)
    lr_bm, lr_ap = _lr_block(bm, s2), _lr_block(ap, s3)
    g1 = _kron_blocks(lr_gp, lr_ap, lr_bp)
    g4 = _kron_blocks(_cols(lr_gm), lr_bp, lr_am)
    g2 = _kron_blocks(_cols(lr_gp), lr_am, lr_bm)
    g3 = _kron_blocks(lr_gm, lr_bm, lr_ap)
    plus, minus = _entries(lr_gp), _entries(lr_gm)
    return sum(
        c12 * c34 * _trace(g1[d1], lr_bp, g4[d4], lr_am, g2[d2], lr_bm, g3[d3], lr_ap)
        for (d1, d2, c12), (d3, d4, c34) in product(plus, minus)
    )
