"""Symmetric group character values by the Murnaghan-Nakayama rule.

A shape is held as an ``int`` bitmask of its beta-numbers (first-column
hook lengths): bit ``lam[i] + l - 1 - i`` is set for each part of a
partition of length ``l``.  Removing a border strip of size k moves one
set bit from position ``t + k`` down to a clear position ``t``; its sign
is the parity of the set bits strictly between them.  A bit landing on
position 0 stands for a zero part, so the low run of set bits is
shifted out to keep one mask per partition (bit 0 always clear).

A cycle type is held as an interned ``int`` id: class ``pid`` is the
part ``_first[pid]`` followed by the class ``_rest[pid]``, and id 0 is
the empty class.  So the recursion steps to the rest of a class without
slicing a tuple, and the memo of degree n keys a value on the single
``int`` ``pid << n + 1 | mask``.  That key is injective because the
highest bit of a canonical mask of degree n is lam[0] + l - 1 <= n.
Top-level values (the full class of a ``kron`` call) are stored too:
``hyperoct`` reuses them across the blocks of one shape.
"""

from collections import defaultdict

from .partitions import Partition, check_partition

# Memo tables keyed by degree (size of the remaining shape) so memory can
# be reclaimed degree by degree between large runs.
_memo: dict[int, dict[int, int]] = defaultdict(dict)

# Class registry: id of each interned cycle type, and per id its first
# part and the id of the rest of its parts.
_ids: dict[Partition, int] = {(): 0}
_first: list[int] = [0]
_rest: list[int] = [0]


def beta_mask(lam: Partition) -> int:
    """Bitmask of the beta-numbers of the partition ``lam``."""
    l = len(lam)
    return sum(1 << (p + l - 1 - i) for i, p in enumerate(lam))


def class_id(rho: Partition) -> int:
    """Interned id of the cycle type ``rho``, whose parts must be weakly
    decreasing; registers ``rho`` and its suffixes on first sight."""
    pid = _ids.get(rho)
    if pid is None:
        rest = class_id(rho[1:])
        pid = _ids[rho] = len(_first)
        _first.append(rho[0])
        _rest.append(rest)
    return pid


def mn(mask: int, pid: int, n: int) -> int:
    """Character value of the shape ``mask`` (of size ``n``) on the class
    with id ``pid``; its parts are consumed largest first."""
    if not pid:
        return 1
    table = _memo[n]
    key = pid << n + 1 | mask
    hit = table.get(key)
    if hit is not None:
        return hit
    k = _first[pid]
    rest = _rest[pid]
    total = 0
    # Bits t with t + k set and t clear: the removable strips of size k.
    free = (mask >> k) & ~mask
    while free:
        low = free & -free
        free ^= low
        top = low << k
        new = mask ^ top ^ low
        if low == 1:
            new >>= (new ^ (new + 1)).bit_length() - 1
        sub = mn(new, rest, n - k)
        if sub:
            total += -sub if (mask & (top - (low << 1))).bit_count() & 1 else sub
    table[key] = total
    return total


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group: the value of the
    character of shape ``lam`` on the class of cycle type ``rho``.

    ``lam`` must be a partition; ``rho`` may list its positive parts in
    any order.  Both must have the same size.
    """
    lam = check_partition(lam)
    rho = check_partition(sorted(rho, reverse=True))
    n = sum(lam)
    if n != sum(rho):
        raise ValueError(f"shape {lam} and cycle type {rho} must have equal size")
    return mn(beta_mask(lam), class_id(rho), n)


def clear_character_cache(degree: int | None = None) -> None:
    """Drop memo tables, either for one degree or for all of them.

    Useful between unrelated large computations to bound memory.  A full
    clear also resets the class registry; clearing one degree keeps it,
    since the keys of the other degrees hold its ids.
    """
    if degree is None:
        _memo.clear()
        _ids.clear()
        _ids[()] = 0
        del _first[1:], _rest[1:]
    else:
        _memo.pop(degree, None)
