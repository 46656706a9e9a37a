"""Littlewood-Richardson coefficients: one walk over the LR tableaux of a
skew shape nu/lam, which counts one coefficient when given a content or
else the whole coproduct row {mu: c^nu_{lam mu}}, and a whole Schur
product by a dynamic program that adds the letters of one factor to the
other as horizontal strips, each state's strips in one depth-first walk
over rows of a fixed length.  The two share no code, so each checks the
other.  Neither recurses, and both refuse more than ``CELL_CAP`` cells
before they lay any out."""

from functools import cache

from .partitions import CELL_CAP, Partition, _conjugate, check_partition, contains, format_partition, over_cap, part_at


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
    ``mu``, or of ``nu`` without one.  The letters take at most
    ``CELL_CAP`` slots, one per cell and one per row past a shared zero."""
    # Cells are filled row by row, right to left within each row, so the
    # reading word grows one letter at a time and the lattice property
    # can be enforced incrementally.  The search backtracks along the
    # cells with an index, not by recursion, so long shapes cannot
    # exhaust the stack.
    #
    # Letters sit in one list of slots, 0 where none is placed: a shared
    # zero slot, then each row's cells of nu/lam from left to right and
    # one slot holding the largest letter.  The slot right of a cell is
    # the next one, and ``above[i]`` is the slot above cell i, the zero
    # slot when that cell is in lam or above the top row, so no cell
    # needs a bounds check.
    size = sum(nu) - sum(lam)
    slots = 1 + size + len(nu)
    if slots > CELL_CAP:
        raise over_cap(f"{slots} letter slots for {format_partition(nu)}/{format_partition(lam)}", CELL_CAP)
    letters = len(nu) if mu is None else len(mu)
    grid = [0] * slots
    cells, above = [], []
    start, up, up_lo = 1, 0, nu[0] if nu else 0
    for r, row in enumerate(nu, 1):
        lo = part_at(lam, r)
        for c in range(row - 1, lo - 1, -1):
            cells.append(start + c - lo)
            above.append(up + c - up_lo if c >= up_lo else 0)
        up, up_lo = start, lo
        start += row - lo
        grid[start] = letters
        start += 1
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
        v = max(v, grid[above[i]]) + 1
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
    The sizes of the factors together are at most ``CELL_CAP``.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    n = sum(lam) + sum(mu)
    if n > CELL_CAP:
        raise over_cap(f"size {n} of the product of {format_partition(lam)} and {format_partition(mu)}", CELL_CAP)
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
    # Rows keep one length, room for a new row per stage, so states of
    # different lengths merge by equal keys; zeros are stripped at the end.
    rows = len(lam) + len(mu)
    new = [0] * rows
    # nxt[r] = the next letter's cap through row r, set as the strip
    # passes row r - 1; takes[r] and lows[r] = the take at row r and its
    # least value, for backtracking
    nxt = [0] * rows
    takes = [0] * rows
    lows = [0] * rows
    # caps[r] bounds the letter's cumulative count through row r; a cap
    # of the first letter's own count leaves it unbounded
    states = {(lam + (0,) * len(mu), (mu[0],) * rows): 1}
    for stage, k in enumerate(mu):
        last = stage == len(mu) - 1
        # a cap at or above the next letter's count never binds, so
        # clipping it there merges more states
        clip = 0 if last else mu[stage + 1]
        merged: dict = {}
        nxt[1:] = [clip] * (rows - 1)
        for (old, caps), mult in states.items():
            # Walk the strips depth first, largest take first, row r with
            # cn cells above it.  Row r takes at most the old row r - 1
            # minus the old row r (horizontal strip) and its cap minus
            # cn (lattice), and at least the cells left minus the old
            # row r: the rows below take at most that many in all (their
            # widths telescope).  A strip ends once its k cells are
            # placed, at a zero row at the latest.
            new[:] = old
            r = cn = 0
            t = k if k < caps[0] else caps[0]
            lo = k - old[0] if k > old[0] else 0
            while True:
                if t == k - cn:
                    new[r] = old[r] + t
                    key = tuple(new) if last else (tuple(new), tuple(nxt))
                    merged[key] = merged.get(key, 0) + mult
                    t -= 1
                if t >= lo:
                    new[r] = old[r] + t
                    takes[r] = t
                    lows[r] = lo
                    cn += t
                    nxt[r + 1] = cn if cn < clip else clip
                    r += 1
                    o = old[r]
                    left = k - cn
                    t = old[r - 1] - o
                    if t > left:
                        t = left
                    cap = caps[r] - cn
                    if t > cap:
                        t = cap
                    lo = left - o if left > o else 0
                    continue
                new[r] = old[r]
                if not r:
                    break
                nxt[r] = clip
                r -= 1
                t = takes[r]
                lo = lows[r]
                cn -= t
                t -= 1
        states = merged
    if transpose:
        return {_conjugate(nu): c for nu, c in states.items()}
    return {nu[:nu.index(0)] if nu[-1] == 0 else nu: c for nu, c in states.items()}
