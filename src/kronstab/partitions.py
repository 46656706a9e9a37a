"""Integer partitions as tuples of weakly decreasing positive parts.

The empty partition is ``()``.  All functions treat a partition of length
``l`` as having infinitely many trailing zero parts, so ``part_at(lam, k)``
is well defined for every ``k >= 1``.
"""

from functools import lru_cache
from itertools import groupby, zip_longest
from math import comb, factorial, inf
from operator import ge


class PartitionError(ValueError):
    """Raised for text that does not describe a partition."""


class SizeCapError(ValueError):
    """The request exceeds the desk-scale size limit."""


class ConsistencyError(ArithmeticError):
    """An internal exactness check failed; the result would be wrong."""


Partition = tuple[int, ...]
DoublePartition = tuple[Partition, Partition]


def check_partition(lam) -> Partition:
    """Validate and return ``lam`` as a partition tuple.

    Parts must be positive ints, not bools, in weakly decreasing order.
    """
    try:
        lam = tuple(lam)
    except TypeError:
        raise PartitionError(f"a partition is a sequence of parts, got {lam!r}") from None
    # One pass for the common case; the loops below name what is wrong.
    prev = lam[0] if lam else 1
    for p in lam:
        if type(p) is not int or p > prev:
            break
        prev = p
    else:
        if prev > 0:
            return lam
    for p in lam:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            raise PartitionError(f"parts must be positive integers, got {p!r}")
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise PartitionError(f"parts must be weakly decreasing, got {lam}")
    return lam


def check_double_partition(alpha) -> DoublePartition:
    """Validate and return ``alpha`` as a pair (plus, minus) of partitions,
    the pair and each half a list or a tuple."""
    if not (isinstance(alpha, (tuple, list)) and len(alpha) == 2 and all(isinstance(h, (tuple, list)) for h in alpha)):
        raise PartitionError(f"a double partition is a pair of partitions, got {alpha!r}")
    return check_partition(alpha[0]), check_partition(alpha[1])


def check_count(value, name: str, least: int = 0) -> None:
    """Raise a ``ValueError`` naming the parameter ``name`` unless
    ``value`` is an ``int``, not a ``bool``, of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def parse_partition(text: str) -> Partition:
    """Parse a partition from text.

    Grammar: comma-separated parts, each either an integer or ``k^m``
    meaning the part ``k`` repeated ``m`` times.  The single token ``-``
    denotes the empty partition.  Whitespace around tokens is ignored.
    More than ``CELL_CAP`` parts raise ``SizeCapError`` before any is laid out.

    >>> parse_partition("2^3,1^4")
    (2, 2, 2, 1, 1, 1, 1)
    >>> parse_partition("-")
    ()
    """
    if not isinstance(text, str):
        raise PartitionError(f"partition text must be a string, got {text!r}")
    text = text.strip()
    if text in ("-", ""):
        return ()
    runs: list[tuple[int, int]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise PartitionError(f"empty token in partition text {text!r}")
        base, caret, exp = token.partition("^")
        try:
            k, m = int(base), int(exp) if caret else 1
        except ValueError:
            raise PartitionError(f"bad token {token!r} in partition text") from None
        if m < 0:
            raise PartitionError(f"negative repeat count in token {token!r}")
        runs.append((k, m))
    if (count := sum(m for _, m in runs)) > CELL_CAP:
        raise over_cap(f"{count} parts of partition text {text!r}", CELL_CAP)
    return check_partition([k for k, m in runs for _ in range(m)])


def parse_double_partition(text: str) -> DoublePartition:
    """Parse ``"plus;minus"``, each side in the partition grammar.

    >>> parse_double_partition("2;2")
    ((2,), (2,))
    >>> parse_double_partition("1;-")
    ((1,), ())
    """
    if not isinstance(text, str) or ";" not in text:
        raise PartitionError(f"double partition needs a ';' separator, got {text!r}")
    plus, _, minus = text.partition(";")
    return parse_partition(plus), parse_partition(minus)


def format_partition(lam: Partition) -> str:
    """Render a partition in the text grammar accepted by parse_partition.

    Runs of three or more equal parts are compressed with the caret
    notation, so ``(2, 2, 2, 1, 1, 1, 1)`` renders as ``"2^3,1^4"``.
    The empty partition renders as ``"-"``.
    """
    lam = check_partition(lam)
    if not lam:
        return "-"
    runs = [(str(part), len(list(run))) for part, run in groupby(lam)]
    return ",".join(f"{p}^{m}" if m >= 3 else ",".join([p] * m) for p, m in runs)


def format_double_partition(alpha: DoublePartition) -> str:
    return f"{format_partition(alpha[0])};{format_partition(alpha[1])}"


def total_size(alpha: DoublePartition) -> int:
    return sum(alpha[0]) + sum(alpha[1])


def format_triple(triple, double: bool = False) -> str:
    """Render three partitions, or three double partitions, as the CLI's
    triple."""
    return " / ".join(map(format_double_partition if double else format_partition, triple))


def parse_triple(text: str, double: bool = False) -> tuple:
    """Parse the CLI's triple: three partitions, or three double
    partitions, separated by ``/``."""
    parts = text.split("/")
    if len(parts) != 3:
        kind = "double partitions" if double else "partitions"
        raise PartitionError(f"expected three '/'-separated {kind}, got {len(parts)}")
    return tuple(map(parse_double_partition if double else parse_partition, parts))


def check_triple(triple, double: bool, what: str = "") -> tuple:
    """Validate three partitions, or three double partitions, whose sizes
    (total sizes) agree; an error names the triple after ``what``."""
    try:
        triple = tuple(map(check_double_partition if double else check_partition, triple))
    except TypeError:
        # only iterating the triple itself raises it: the checks raise
        # PartitionError for a bad entry
        kind = "double partitions" if double else "partitions"
        raise PartitionError(f"{what}triple {triple!r} is not a sequence of three {kind}") from None
    if len(triple) != 3:
        raise ValueError(f"{what}{format_triple(triple, double)} holds {len(triple)} entries, not three")
    sizes = list(map(total_size if double else sum, triple))
    if len(set(sizes)) > 1:
        raise ValueError(
            f"sizes {', '.join(map(str, sizes))} of {what}{format_triple(triple, double)} differ;"
            " all three partitions must have the same size"
        )
    return triple


# The most cells one call of conjugate, dim_sn, lr or schur_product_expand
# lays out or loops over: each spends a step or a slot per box, or per
# slot of lr's letter grid, so a huge part fails here at once; and the
# most parts parse_partition lays out, so a huge repeat count fails too.
CELL_CAP = 1 << 15


def over_cap(what: str, cap: int) -> SizeCapError:
    """The error for a request, described by ``what``, above the limit ``cap``."""
    return SizeCapError(f"{what} exceeds the desk-scale limit of {cap}")


def part_at(lam: Partition, k: int) -> int:
    """The k-th part (1-based) of the unchecked ``lam``; zero beyond the length."""
    # check_count's rule, inline: a bound query calls this about 40 times
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    return lam[k - 1] if k <= len(lam) else 0


def contains(outer: Partition, inner: Partition) -> bool:
    """Whether the diagram of ``inner`` fits inside that of ``outer``."""
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


def add_scaled(lam: Partition, d: int, pi: Partition) -> Partition:
    """Return the partition ``lam + d*pi``, part by part, for partitions
    ``lam`` and ``pi`` and a count ``d``."""
    check_count(d, "d")
    parts = (a + d * b for a, b in zip_longest(check_partition(lam), check_partition(pi), fillvalue=0))
    return tuple(p for p in parts if p > 0)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram of the partition ``lam``, of size
    at most ``CELL_CAP``."""
    lam = check_partition(lam)
    _cap_boxes(lam)
    return _conjugate(lam)


def _cap_boxes(lam: Partition) -> None:
    if sum(lam) > CELL_CAP:
        raise over_cap(f"size {sum(lam)} of {format_partition(lam)}", CELL_CAP)


def _conjugate(lam: Partition) -> Partition:
    # the columns past lam_{r+1} up to lam_r (1-based) have length r
    padded = (*lam, 0)
    out: list[int] = []
    for r in range(len(lam), 0, -1):
        out += [r] * (padded[r - 1] - padded[r])
    return tuple(out)


# typed, so that True and 2.0 do not read the entries of 1 and 2
@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``n`` (none if negative), largest part first, in
    reverse lexicographic order.  Optionally bound the largest part."""
    check_count(n, "n", -inf)
    if max_part is not None:
        check_count(max_part, "max_part", -inf)
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out: list[Partition] = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def dim_sn(lam: Partition) -> int:
    """Dimension of the symmetric group irreducible of shape ``lam``
    (the number of standard tableaux), by the hook length formula, for
    a size at most ``CELL_CAP``.  ``lam`` is validated first, as a list
    or a tuple."""
    lam = check_partition(lam)
    _cap_boxes(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = _conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    d, rem = divmod(factorial(n), hooks)
    if rem:
        raise ConsistencyError(f"hook product {hooks} does not divide {n}! for {lam}")
    return d


def dim_gl(lam: Partition, m: int) -> int:
    """Dimension of the GL(m) irreducible with highest weight ``lam``.

    Computed by the Weyl dimension formula: the integer products of the
    numerators ``lam_i - lam_j + j - i`` and of the denominators
    ``j - i`` over ``i < j <= m``, then one exact division.  Factors with
    ``i > len(lam)`` equal 1 and are skipped; for each row i, those with
    ``j > l = len(lam)``, where ``lam_j = 0``, multiply to
    ``C(lam_i + m - i, m - l)`` over ``C(m - i, m - l)``.  Zero when
    ``lam`` has more than ``m`` rows.  ``lam`` is validated first, as a
    list or a tuple.
    """
    lam = check_partition(lam)
    check_count(m, "m")
    l = len(lam)
    if l > m:
        return 0
    num = den = 1
    for i, a in enumerate(lam, 1):
        for j in range(i + 1, l + 1):
            num *= a - lam[j - 1] + j - i
            den *= j - i
        num *= comb(a + m - i, m - l)
        den *= comb(m - i, m - l)
    dim, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"Weyl dimension {num}/{den} of {lam} for GL({m}) is not an integer")
    return dim

