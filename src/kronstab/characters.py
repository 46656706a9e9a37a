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
``_memo[n][mask]`` and extended block by block as far as a caller
needs; ``kron`` and ``hyperoct`` reuse the full column of a shape
across calls.
"""

from collections import defaultdict
from functools import cache
from math import factorial
from operator import add, sub

from .partitions import Partition, SizeCapError, check_partition, format_partition

# Above the north star's n = 48, where a cold ``kron`` takes a fraction of
# a second; a full column of n holds p(n) values (p(50) = 204 226).
KRON_SIZE_CAP = 50

# Character columns by degree (size of the shape), then shape mask, so
# memory can be reclaimed degree by degree between large runs.
_memo: dict[int, dict[int, list[int]]] = defaultdict(dict)
# Centralizer orders z by degree, in class order, extended like columns.
_z: dict[int, list[int]] = {}


@cache
def count(n: int, k: int) -> int:
    """The number of partitions of ``n`` with parts at most ``k``: the
    length of the prefix of class order that they fill."""
    if n == 0:
        return 1
    if n < 0 or k <= 0:
        return 0
    k = min(k, n)
    return count(n, k - 1) + count(n - k, k)


def rank(rho: Partition) -> int:
    """Position of the cycle type ``rho`` (a partition) in class order."""
    m = sum(rho)
    r = 0
    for p in rho:
        r += count(m, p - 1)
        m -= p
    return r


def _blocks(length: int, n: int, k: int) -> range:
    """The parts whose blocks extend a prefix of ``length`` classes of n
    to the classes with parts at most ``k``; none if it reaches them."""
    if length >= count(n, k):
        return range(0)
    first = 1
    while count(n, first) <= length:
        first += 1
    return range(first, min(k, n) + 1)


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
    for part in _blocks(len(col), n, k):
        size = count(n - part, part)
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
            rest = _column(new, n - part, part)
            odd = (mask & (top - (low << 1))).bit_count() & 1
            if block is None:
                block = [-v for v in rest[:size]] if odd else rest[:size]
            else:
                block = list(map(sub if odd else add, block, rest))
        col += block or [0] * size
    return col


def column(lam: Partition, max_part: int | None = None) -> list[int]:
    """Character of the shape ``lam``, a checked partition, over the
    classes of its size in class order: all of them, or at least those
    with parts at most ``max_part``.  The list is cached; do not change
    it."""
    n = sum(lam)
    return _column(beta_mask(lam), n, n if max_part is None else max_part)


def _z_orders(n: int, k: int) -> list[int]:
    """Centralizer orders of at least the first ``count(n, k)`` classes
    of n.  The block of part j lists ``(j^m, tau)`` for m = 1, 2, ...,
    with tau among the classes of n - m*j with parts below j, and
    ``z(j^m, tau) = j^m m! z(tau)``."""
    col = _z.setdefault(n, [1] if n == 0 else [])
    for j in _blocks(len(col), n, k):
        f = 1
        for m in range(1, n // j + 1):
            f *= j * m
            rest = _z_orders(n - m * j, j - 1)
            col += [f * z for z in rest[: count(n - m * j, j - 1)]]
    return col


@cache
def size_column(n: int) -> tuple[int, ...]:
    """Size ``n!/z(rho)`` of each class of n, in class order."""
    nfact = factorial(n)
    return tuple(nfact // z for z in _z_orders(n, n))


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group: the value of the
    character of shape ``lam`` on the class of cycle type ``rho``.

    ``lam`` must be a partition; ``rho`` may list its positive parts in
    any order.  Both must have the same size, at most ``KRON_SIZE_CAP``.
    """
    lam = check_partition(lam)
    rho = check_partition(sorted(rho, reverse=True))
    n = sum(lam)
    if n != sum(rho):
        raise ValueError(f"shape {lam} and cycle type {rho} must have equal size")
    if n > KRON_SIZE_CAP:
        raise SizeCapError(
            f"size {n} of shape {format_partition(lam)} and cycle type"
            f" {format_partition(rho)} exceeds the desk-scale limit of {KRON_SIZE_CAP}"
        )
    return column(lam, rho[0] if rho else 0)[rank(rho)]


def clear_character_cache(degree: int | None = None) -> None:
    """Drop cached columns and class sizes, either for one degree or for
    all of them.  Useful between unrelated large computations to bound
    memory."""
    if degree is None:
        _memo.clear()
        _z.clear()
    else:
        _memo.pop(degree, None)
        _z.pop(degree, None)
    size_column.cache_clear()
