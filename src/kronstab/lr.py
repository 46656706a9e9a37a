"""Littlewood-Richardson coefficients by lattice-word tableau counting."""

from functools import cache

from .partitions import Partition, check_partition, contains, part_at


def lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient: multiplicity of the Schur
    function of shape ``nu`` in the product of those of ``lam`` and
    ``mu``.

    Counts semistandard fillings of the skew shape nu/lam with content
    mu whose reverse reading word is a lattice word.  Size mismatches
    simply give 0.  The arguments are validated before the cache sees
    them, so lists work as well as tuples.
    """
    return _lr(check_partition(lam), check_partition(mu), check_partition(nu))


@cache
def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not contains(nu, lam) or not contains(nu, mu):
        return 0
    if not mu:
        return 1
    # Cells are filled row by row, right to left within each row, so the
    # reading word grows one letter at a time and the lattice property
    # can be enforced incrementally.
    cells = [(r, c) for r in range(len(nu))
             for c in range(nu[r] - 1, part_at(lam, r + 1) - 1, -1)]
    nletters = len(mu)
    counts = [0] * (nletters + 1)  # counts[v] = letters v placed so far
    filling: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = filling.get((r, c + 1))
        above = filling.get((r - 1, c))
        hi = right if right is not None else nletters
        total = 0
        for v in range(1, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            if above is not None and v <= above:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            total += place(idx + 1)
            del filling[(r, c)]
            counts[v] -= 1
        return total

    return place(0)


lr.cache_info = _lr.cache_info


def schur_product_expand(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand the product of two Schur functions: a map from shapes
    ``nu`` to the coefficient ``lr(lam, mu, nu)``.

    Built in a single pass by growing ``lam``: the cells of row i of
    ``mu`` are added as a horizontal strip, and the running row counts
    enforce the lattice condition, so each completed chain of shapes is
    exactly one Littlewood-Richardson filling.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    out: dict[Partition, int] = {}

    def grow(stage: int, shape: Partition, prev_counts: tuple[int, ...]) -> None:
        if stage == len(mu):
            out[shape] = out.get(shape, 0) + 1
            return
        k = mu[stage]
        maxrows = len(shape) + 1
        adds = [0] * maxrows

        # cp tracks the cumulative count of the previous letter through
        # row r-1; the lattice condition caps the new letter's cumulative
        # count through row r by it
        def go(r: int, left: int, cp: int, cn: int) -> None:
            if r == maxrows:
                if left == 0:
                    new_shape = tuple(
                        (shape[i] if i < len(shape) else 0) + adds[i]
                        for i in range(maxrows)
                    )
                    grow(stage + 1, tuple(p for p in new_shape if p), tuple(adds))
                return
            old_r = shape[r] if r < len(shape) else 0
            cap = left
            if r > 0:
                # horizontal strip: stay within the previous length of
                # the row above
                cap = min(cap, (shape[r - 1] if r - 1 < len(shape) else 0) - old_r)
            for take in range(cap + 1):
                if stage > 0 and cn + take > cp:
                    break
                adds[r] = take
                go(
                    r + 1,
                    left - take,
                    cp + (prev_counts[r] if r < len(prev_counts) else 0),
                    cn + take,
                )
            adds[r] = 0

        go(0, k, 0, 0)

    grow(0, lam, ())
    return out
