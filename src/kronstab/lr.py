"""Littlewood-Richardson coefficients: one walk over the LR tableaux of a
skew shape nu/lam, which counts one coefficient when given a content or
else the whole coproduct row {mu: c^nu_{lam mu}}, and a whole Schur
product by a dynamic program over horizontal strips.  The two share no
code, so each checks the other."""

from functools import cache

from .partitions import Partition, _conjugate, check_partition, contains, part_at


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
    # every filling the walk finds has content mu
    return sum(_tableaux(lam, nu, mu).values())


lr.cache_info = _lr.cache_info


@cache
def _skew(lam: Partition, nu: Partition) -> dict[Partition, int]:
    """The Schur expansion of the skew Schur function of nu/lam, the row
    ``{mu: lr(lam, mu, nu)}`` of the coproduct of that of ``nu``, from
    one walk; empty unless ``lam`` fits inside ``nu``.  The cached dict
    is shared, so callers must not change it."""
    if not contains(nu, lam):
        return {}
    # a content is a partition: its letters in use come first
    return {key[1:key.index(0, 1)]: k for key, k in _tableaux(lam, nu).items()}


def _tableaux(lam: Partition, nu: Partition, mu: Partition | None = None) -> dict[tuple, int]:
    """Count the LR tableaux of the skew shape nu/lam, with ``lam``
    inside ``nu``, by their content: semistandard fillings whose reverse
    reading word is a lattice word.  Given ``mu`` of size |nu| - |lam|,
    only fillings of content ``mu`` are searched.  A content is keyed by
    its letter counts (|nu| - |lam|, c_1, ..., c_k, 0), k the length of
    ``mu``, or of ``nu`` without one."""
    # Cells are filled row by row, right to left within each row, so the
    # reading word grows one letter at a time and the lattice property
    # can be enforced incrementally.  The search backtracks along the
    # cells with an index, not by recursion, so long shapes cannot
    # exhaust the stack.
    #
    # Letters sit in a grid of rows of nu_1 + 1 slots, 0 where none is
    # placed, below a blank row: the slot above a top cell reads 0 and
    # the one right of a row's end reads the largest letter, so no cell
    # needs a bounds check.
    letters = len(nu) if mu is None else len(mu)
    size = sum(nu) - sum(lam)
    width = nu[0] + 1 if nu else 1
    grid = [0] * (width * (len(nu) + 1))
    for r, row in enumerate(nu, 1):
        grid[r * width + row] = letters
    cells = [r * width + c for r in range(1, len(nu) + 1)
             for c in range(nu[r - 1] - 1, part_at(lam, r) - 1, -1)]
    # caps[v] = the letters v to place, any number without a content
    caps = (0, *mu) if mu is not None else (0,) + (size,) * letters
    # counts[v] = letters v placed so far; counts[0] = size stays out of
    # reach of counts[1], so the lattice test never stops 1, and the
    # count past the last letter stays 0 and ends the content's key
    counts = [size] + [0] * letters + [0]
    found: dict[tuple, int] = {}
    i = 0
    while i >= 0:
        if i == len(cells):
            key = tuple(counts)
            found[key] = found.get(key, 0) + 1
            i -= 1
            continue
        pos = cells[i]
        v = grid[pos]
        if v:
            counts[v] -= 1
        # rows weakly increase to the right, columns strictly downward
        v = max(v, grid[pos - width]) + 1
        hi = grid[pos + 1]
        while v <= hi and (counts[v] >= caps[v] or counts[v] >= counts[v - 1]):
            # with no v - 1 placed yet, the lattice condition rules out
            # v and every larger letter
            v = v + 1 if counts[v - 1] else hi + 1
        if v > hi:
            grid[pos] = 0
            i -= 1
        else:
            grid[pos] = v
            counts[v] += 1
            i += 1
    return found


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
        lam, mu = _conjugate(lam), _conjugate(mu)
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
        return {_conjugate(nu): c for nu, c in states.items()}
    return states
