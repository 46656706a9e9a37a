"""Symmetric group character values by the Murnaghan-Nakayama rule,
computed a column at a time.

A shape is held as an ``int`` bitmask of its beta-numbers (first-column
hook lengths): bit ``lam[i] + l - 1 - i`` is set for each part of a
partition of length ``l``.  Removing a border strip of size k moves one
set bit from position ``t + k`` down to a clear position ``t``; its sign
is the parity of the set bits strictly between them.  A bit landing on
position 0 stands for a zero part, so the low run of set bits is
shifted out to keep one mask per partition (bit 0 always clear).

The classes of n are taken in lexicographically increasing order, that
is ``reversed(partitions_of(n))``.  In that *class order* the classes
with parts at most k are a prefix of length ``count(n, k)``, and those
whose first part is k are one block: the classes ``(k, sigma)`` for the
first ``count(n - k, k)`` classes ``sigma`` of n - k.  A shape's
*column* is its character over a prefix of the classes, so the block of
part k is the signed sum of the columns, cut to that length, of the
shapes left by removing each k-strip.  Strips are found once per shape
and part, not once per class.  Columns are cached as
``_memo[n][mask]``, class sizes as ``_size[n]`` (``size_column``), both
extended block by block as far as a caller needs; the strip loop reads
a long enough column from the cache and recurses only to build or
extend one.  Both read every prefix and block length from one cached
row per degree, ``_row(n)[k] == count(n, k)``, built on demand and not
at import.  ``kron`` and ``hyperoct`` reuse full columns across calls.
"""

from collections import defaultdict
from functools import cache
from itertools import accumulate
from math import perm
from operator import add, neg, sub

from .partitions import KRON_SIZE_CAP, Partition, PartitionError, check_partition, format_partition, over_cap

# Character columns by degree (size of the shape), then shape mask: the
# strip loop reads the columns of degree ``n - part`` as one table, and
# the benchmark's worker counts the entries degree by degree.
_memo: dict[int, dict[int, list[int]]] = defaultdict(dict)
# Class sizes by degree, in class order, extended like columns.
_size: dict[int, list[int]] = {}


@cache
def _row(n: int) -> list[int]:
    """``[count(n, 0), ..., count(n, n)]``, by ``count(n, k) =
    count(n, k - 1) + count(n - k, k)``; the cached list, n levels deep."""
    if n == 0:
        return [1]
    return list(accumulate((_row(n - k)[min(k, n - k)] for k in range(1, n + 1)), initial=0))


def count(n: int, k: int) -> int:
    """The number of partitions of ``n`` with parts at most ``k``: the
    length of the prefix of class order that they fill."""
    return _row(n)[max(0, min(k, n))] if n >= 0 else 0


def rank(rho: Partition) -> int:
    """Position of the cycle type ``rho`` (a partition) in class order."""
    m = sum(rho)
    r = 0
    for p in rho:
        r += count(m, p - 1)
        m -= p
    return r


def beta_mask(lam: Partition) -> int:
    """Bitmask of the beta-numbers of the partition ``lam``."""
    l = len(lam)
    return sum(1 << (p + l - 1 - i) for i, p in enumerate(lam))


def _column(mask: int, n: int, k: int) -> list[int]:
    """Character of the shape ``mask`` (of size ``n``) on at least the
    first ``count(n, k)`` classes of n; the cache's own list."""
    table = _memo[n]
    col = table.get(mask)
    if col is None:
        col = table[mask] = [1] if n == 0 else []
    row = _row(n)
    if len(col) >= row[min(k, n)]:
        return col
    # A column is a whole number of blocks, so its length is in the row;
    # the next part's block is the first it lacks.
    for part in range(row.index(len(col)) + 1, min(k, n) + 1):
        size = row[part] - row[part - 1]
        below = _memo[n - part]
        block = None
        # Bits t with t + part set and t clear: the removable strips.
        free = (mask >> part) & ~mask
        while free:
            low = free & -free
            free ^= low
            top = low << part
            new = mask ^ top ^ low
            if low == 1:
                new >>= (new ^ (new + 1)).bit_length() - 1
            rest = below.get(new)
            if rest is None or len(rest) < size:
                rest = _column(new, n - part, part)
            odd = (mask & (top - (low << 1))).bit_count() & 1
            # One lazy chain per block: the first strip's prefix bounds
            # it, and ``col +=`` builds the only list.
            if block is None:
                block = map(neg, rest[:size]) if odd else rest[:size]
            else:
                block = map(sub if odd else add, block, rest)
        col += [0] * size if block is None else block
    return col


def column(lam: Partition, max_part: int | None = None) -> list[int]:
    """Character of the shape ``lam``, a checked partition, over the
    classes of its size in class order: all of them, or at least those
    with parts at most ``max_part``.  The list is cached; do not change
    it."""
    n = sum(lam)
    return _column(beta_mask(lam), n, n if max_part is None else max_part)


def _sizes(n: int, k: int) -> list[int]:
    """Class sizes ``n!/z`` of at least the first ``count(n, k)``
    classes of n.  The block of part j lists ``(j^m, tau)`` for
    m = 1, 2, ..., with tau among the classes of n - m*j with parts
    below j, and ``size(j^m, tau) = n!/((n-m*j)! j^m m!) * size(tau)``."""
    col = _size.get(n)
    if col is None:
        col = _size[n] = [1] if n == 0 else []
    row = _row(n)
    if len(col) >= row[min(k, n)]:
        return col
    for j in range(row.index(len(col)) + 1, min(k, n) + 1):
        f = 1
        for m in range(1, n // j + 1):
            # the ways to pick m disjoint j-cycles from n points
            f = f * perm(n - (m - 1) * j, j) // (j * m)
            rest = n - m * j
            col += [f * s for s in _sizes(rest, j - 1)[: _row(rest)[min(j - 1, rest)]]]
    return col


def size_column(n: int) -> list[int]:
    """Size ``n!/z(rho)`` of each class of n, in class order: the cached list; do not change it."""
    col = _size.get(n)
    if col is None or len(col) < _row(n)[-1]:
        col = _sizes(n, n)
    return col


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group: the value of the
    character of shape ``lam`` on the class of cycle type ``rho``.

    ``lam`` must be a partition; ``rho`` may list its positive parts in
    any order.  Both must have the same size, at most ``KRON_SIZE_CAP``.
    """
    lam = check_partition(lam)
    try:
        rho = sorted(rho, reverse=True)
    except TypeError:
        raise PartitionError(f"a cycle type is a sequence of positive integers, got {rho!r}") from None
    rho = check_partition(rho)
    n = sum(lam)
    if n != sum(rho):
        raise ValueError(f"shape {lam} and cycle type {rho} must have equal size")
    if n > KRON_SIZE_CAP:
        raise over_cap(f"size {n} of shape {format_partition(lam)} and cycle type"
                       f" {format_partition(rho)}", KRON_SIZE_CAP)
    return column(lam, rho[0] if rho else 0)[rank(rho)]

