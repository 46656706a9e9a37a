"""Integer partitions as tuples of weakly decreasing positive parts.

The empty partition is ``()``.  All functions treat a partition of length
``l`` as having infinitely many trailing zero parts, so ``part_at(lam, k)``
is well defined for every ``k >= 1``.
"""

from functools import cache
from itertools import zip_longest
from math import factorial
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
    lam = tuple(lam)
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


def parse_partition(text: str) -> Partition:
    """Parse a partition from text.

    Grammar: comma-separated parts, each either an integer or ``k^m``
    meaning the part ``k`` repeated ``m`` times.  The single token ``-``
    denotes the empty partition.  Whitespace around tokens is ignored.

    >>> parse_partition("2^3,1^4")
    (2, 2, 2, 1, 1, 1, 1)
    >>> parse_partition("-")
    ()
    """
    text = text.strip()
    if text in ("-", ""):
        return ()
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise PartitionError(f"empty token in partition text {text!r}")
        if "^" in token:
            base, _, exp = token.partition("^")
            try:
                k, m = int(base), int(exp)
            except ValueError:
                raise PartitionError(f"bad token {token!r} in partition text") from None
            if m < 0:
                raise PartitionError(f"negative repeat count in token {token!r}")
            parts.extend([k] * m)
        else:
            try:
                parts.append(int(token))
            except ValueError:
                raise PartitionError(f"bad token {token!r} in partition text") from None
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    """Render a partition in the text grammar accepted by parse_partition.

    Runs of three or more equal parts are compressed with the caret
    notation, so ``(2, 2, 2, 1, 1, 1, 1)`` renders as ``"2^3,1^4"``.
    The empty partition renders as ``"-"``.
    """
    if not lam:
        return "-"
    out = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        run = j - i
        if run >= 3:
            out.append(f"{lam[i]}^{run}")
        else:
            out.extend([str(lam[i])] * run)
        i = j
    return ",".join(out)


def format_double_partition(alpha: DoublePartition) -> str:
    return f"{format_partition(alpha[0])};{format_partition(alpha[1])}"


def total_size(alpha: DoublePartition) -> int:
    return sum(alpha[0]) + sum(alpha[1])


def is_double(triple) -> bool:
    """Whether a triple holds double partitions: its first entry holds
    lists or tuples, so a float part is left to ``check_partition``."""
    return bool(triple[0]) and all(isinstance(p, (tuple, list)) for p in triple[0])


def format_triple(triple) -> str:
    """Render three partitions or double partitions as the CLI's triple."""
    fmt = format_double_partition if is_double(triple) else format_partition
    return " / ".join(map(fmt, triple))


def check_triple(triple, double: bool, what: str = "") -> tuple:
    """Validate three partitions, or three double partitions, whose sizes
    (total sizes) agree; a size error names the triple after ``what``."""
    if double:
        triple = tuple((check_partition(p), check_partition(m)) for p, m in triple)
        sizes = list(map(total_size, triple))
    else:
        triple = tuple(map(check_partition, triple))
        sizes = list(map(sum, triple))
    if len(set(sizes)) > 1:
        raise ValueError(
            f"sizes {', '.join(map(str, sizes))} of {what}{format_triple(triple)} differ;"
            " all three partitions must have the same size"
        )
    return triple


def over_cap(what: str, cap: int) -> SizeCapError:
    """The error for a request, described by ``what``, above the limit ``cap``."""
    return SizeCapError(f"{what} exceeds the desk-scale limit of {cap}")


def part_at(lam: Partition, k: int) -> int:
    """The k-th part (1-based); zero beyond the length."""
    if k < 1:
        raise IndexError("part index is 1-based")
    return lam[k - 1] if k <= len(lam) else 0


def contains(outer: Partition, inner: Partition) -> bool:
    """Whether the diagram of ``inner`` fits inside that of ``outer``."""
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


def add_scaled(lam: Partition, d: int, pi: Partition) -> Partition:
    """Return ``lam + d*pi`` part by part, validating the result.

    The result must again be a partition; this holds whenever ``pi`` is a
    partition and ``d >= 0``, which is the intended use.
    """
    if d < 0:
        raise ValueError("scale factor must be nonnegative")
    parts = (a + d * b for a, b in zip_longest(lam, pi, fillvalue=0))
    return check_partition(p for p in parts if p > 0)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    # the columns past lam_{r+1} up to lam_r (1-based) have length r
    padded = (*lam, 0)
    out: list[int] = []
    for r in range(len(lam), 0, -1):
        out += [r] * (padded[r - 1] - padded[r])
    return tuple(out)


@cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``n``, largest part first, in reverse
    lexicographic order.  Optionally bound the largest part."""
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
    (the number of standard tableaux), by the hook length formula.
    ``lam`` is validated before the cache sees it, so a list works as
    well as a tuple."""
    return _dim_sn(check_partition(lam))


@cache
def _dim_sn(lam: Partition) -> int:
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
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
    ``i > len(lam)`` equal 1 and are skipped.  Zero when ``lam`` has more
    than ``m`` rows.  ``lam`` is validated first, as a list or a tuple.
    """
    lam = check_partition(lam)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if len(lam) > m:
        return 0
    num = den = 1
    for i in range(1, len(lam) + 1):
        for j in range(i + 1, m + 1):
            num *= part_at(lam, i) - part_at(lam, j) + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"Weyl dimension {num}/{den} of {lam} for GL({m}) is not an integer")
    return dim

