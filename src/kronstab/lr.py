"""Littlewood-Richardson coefficients: one coefficient by lattice-word
tableau counting, a whole Schur product by a dynamic program over
horizontal strips.  The two share no code, so each checks the other."""

from functools import cache

from .partitions import Partition, check_partition, conjugate, contains, part_at


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

    A dynamic program over stages, independent of ``lr``.  It multiplies
    by the factor with the fewest rows, or, transposing both factors and
    the result, columns; stage i adds its letter i as a horizontal
    strip.  The lattice condition caps the cumulative count of letter i
    through each row by that of letter i-1 through the row above, so a
    state is the shape so far with these caps.  Equal states merge,
    adding their multiplicities, and the last stage keys by shape alone.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    # c(lam, mu; nu) = c(lam', mu'; nu'): when the narrower factor has
    # fewer columns than the shorter has rows, transposing gives fewer
    # stages
    transpose = bool(lam and mu) and min(len(lam), len(mu)) > min(lam[0], mu[0])
    if transpose:
        lam, mu = conjugate(lam), conjugate(mu)
    if len(mu) > len(lam):
        lam, mu = mu, lam
    if not mu:
        return {lam: 1}
    # caps[r] bounds the letter's cumulative count through row r; a cap
    # of the first letter's own count leaves it unbounded
    states = {(lam, (mu[0],) * (len(lam) + 1)): 1}
    for stage, k in enumerate(mu):
        last = stage == len(mu) - 1
        # a cap at or above the next letter's count never binds, so
        # clipping it there merges more states
        clip = 0 if last else mu[stage + 1]
        merged: dict = {}
        for (shape, caps), mult in states.items():
            old = shape + (0,)
            # cumulative counts (0, c_0, ..., c_{r-1}) through the rows
            # filled so far; a strip is complete once it reaches k
            partial = [(0,)]
            strips = []
            for r, o in enumerate(old):
                # horizontal strip: row r stays within the old row r-1
                width = old[r - 1] - o if r else k
                grown = []
                for cum in partial:
                    cn = cum[-1]
                    left = k - cn
                    # room: the rows below take at most o cells in all
                    # (their widths telescope)
                    for take in range(max(0, left - o), min(left, width, caps[r] - cn) + 1):
                        if take == left:
                            strips.append(cum + (k,))
                        else:
                            grown.append(cum + (cn + take,))
                partial = grown
            for cum in strips:
                m = len(cum) - 1
                new = tuple([o + cum[r + 1] - cum[r] for r, o in enumerate(old[:m])]) + shape[m:]
                if last:
                    key = new
                else:
                    # the next letter's cap through row r is cum[r], this
                    # letter's count through row r-1; past row m-1 it is k
                    tail = (clip,) * (len(new) - m)
                    key = (new, tuple([c if c < clip else clip for c in cum]) + tail)
                merged[key] = merged.get(key, 0) + mult
        states = merged
    if transpose:
        return {conjugate(nu): c for nu, c in states.items()}
    return states
