"""Tensor-product multiplicities for hyperoctahedral groups.

Irreducibles of the wreath product of the order-2 group by the symmetric
group are indexed by double partitions (plus, minus) of total size n.
The tensor multiplicity is a convolution of Littlewood-Richardson (LR)
and Kronecker coefficients over the four mixed blocks of the plus/minus
splittings of the two factors.  Its eight factors link the shapes of a
cycle, so each term is the trace of a product of eight sparse blocks,
each built only over the shapes its neighbours on the cycle reach.  The
cycle is cut in two halves, each depending on two of the four shapes of
a term and built once per pair of them.  Each LR block is read from
cached whole rows of the coproduct, one tableau walk per row.  The
Kronecker blocks are built unchecked, each entry read from the cache of
Kronecker values shared by every block and computed only when missing.
"""

from itertools import product
from math import comb

from .partitions import DoublePartition, Partition, check_count, check_double_partition, contains, dim_sn, format_triple, over_cap, partitions_of, total_size
# ``kron`` and ``lr`` stay names here: perfbench traces ``hyperoct.kron``
# and ``hyperoct.lr``.
from .kronecker import kron, kron_block_unchecked
from .lr import _skew, lr

SIZE_CAP = 20


def dim_wreath(alpha: DoublePartition) -> int:
    """Dimension of the wreath-product irreducible indexed by ``alpha``:
    choose which copies carry the sign of the order-2 factor, times the
    two symmetric group dimensions.  Both halves are validated, as
    lists or tuples."""
    plus, minus = check_double_partition(alpha)
    # the dimensions first: their cap stops huge halves before comb
    return dim_sn(plus) * dim_sn(minus) * comb(sum(plus) + sum(minus), sum(plus))


def _lr_block(lam: Partition, s: int) -> dict:
    """Degree ``s`` of the coproduct of the Schur function of ``lam``:
    the nonzero ``lr(x, y, lam)`` over x of size s and y of size
    ``|lam| - s``, as ``{x: {y: c}}``, one row per x inside ``lam``.
    Each row is the cached walk over the LR tableaux of lam/x, shared
    with every block that uses it, so it is only read."""
    return {x: _skew(x, lam) for x in partitions_of(s) if contains(lam, x)}


def _cols(block: dict) -> dict:
    return dict.fromkeys(y for row in block.values() for y in row)


def _kron_blocks(ds, before: dict, after: dict) -> dict:
    """The Kronecker blocks of the shapes ``ds`` at one cycle position:
    from the columns of the LR block before it to the rows of the one
    after it, the only shapes a trace through it can use.  The shapes
    are the library's own, so they are not checked again."""
    xs = _cols(before)
    return {d: kron_block_unchecked(d, xs, after) for d in ds}


def _row_times(row: dict, block: dict) -> dict:
    out: dict = {}
    for y, v in row.items():
        for z, w in block[y].items():
            out[z] = out.get(z, 0) + v * w
    return out


def _product(first: dict, second: dict) -> dict:
    return {x: _row_times(row, second) for x, row in first.items()}


def _half(gs: dict, lr1: dict, hs: dict, lr2: dict) -> dict:
    """Half the cycle, G(d)·L1·G(e)·L2 for every pair (d, e) of shapes
    of the Kronecker blocks ``gs`` and ``hs``, each product G·L once."""
    firsts = [(d, _product(g, lr1)) for d, g in gs.items()]
    seconds = [(e, _product(h, lr2)) for e, h in hs.items()]
    return {(d, e): _product(f, s) for (d, f), (e, s) in product(firsts, seconds)}


def _trace(first: dict, second: dict) -> int:
    """Trace of the product of two blocks."""
    return sum(v * second[c].get(a, 0) for a, row in first.items() for c, v in row.items())


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
    triple = [check_double_partition(x) for x in (alpha, beta, gamma)]
    check_count(size_cap, "size_cap")
    (ap, am), (bp, bm), (gp, gm) = triple
    n = total_size(gamma)
    if total_size(alpha) != n or total_size(beta) != n:
        return 0
    if n > size_cap:
        raise over_cap(f"total size {n} of {format_triple(triple, True)}", size_cap)
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
    # The cycle cut at a and c: the half from a to c depends on (d1, d4)
    # only, the half back on (d2, d3) only, so each is built once and
    # the trace of their product is a sum over the entries of the first.
    half1, half2 = _half(g1, lr_bp, g4, lr_am), _half(g2, lr_bm, g3, lr_ap)
    plus, minus = _entries(lr_gp), _entries(lr_gm)
    return sum(
        c12 * c34 * _trace(half1[d1, d4], half2[d2, d3])
        for (d1, d2, c12), (d3, d4, c34) in product(plus, minus)
    )
