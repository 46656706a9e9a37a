"""Independent reference implementations used to validate the package.

Everything here is deliberately naive and structurally different from
the library code: characters come from explicit polynomial alternants,
Kronecker coefficients from element-by-element group averaging, LR
coefficients from filtered brute-force fillings, plethysm from weight
multisets of composed Schur polynomials, and hyperoctahedral
coefficients from an explicitly constructed wreath-product group.
Kronecker coefficients with a shape of at most two rows also come from
LR coproduct rows, with no character at all.  The
power-sum helpers at the end are not independent: they are the plain
forms, over partition tuples and rationals, of what the plethysm engine
does with coded indices.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import gcd

from kronstab.characters import column, rank
from kronstab.lr import _skew
from kronstab.partitions import partitions_of
from kronstab.plethysm import SymFunc

Poly = dict  # exponent tuple -> int coefficient


def _pmul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _vandermonde(n: int) -> Poly:
    delta = tuple(range(n - 1, -1, -1))
    out: Poly = {}
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        expo = tuple(delta[sigma[i]] for i in range(n))
        out[expo] = out.get(expo, 0) + sign
    return out


def _power_sum(rho, n: int) -> Poly:
    out: Poly = {tuple([0] * n): 1}
    for k in rho:
        pk = {}
        for i in range(n):
            e = [0] * n
            e[i] = k
            pk[tuple(e)] = 1
        out = _pmul(out, pk)
    return out


@cache
def _alternant_product(rho, n: int) -> Poly:
    return _pmul(_power_sum(rho, n), _vandermonde(n))


@cache
def character_oracle(lam, rho) -> int:
    """Symmetric group character value as the coefficient of the
    alternant monomial lam + delta in p_rho times the Vandermonde."""
    n = sum(lam)
    assert sum(rho) == n
    prod = _alternant_product(rho, n)
    target = tuple(
        (lam[i] if i < len(lam) else 0) + (n - 1 - i) for i in range(n)
    )
    return prod.get(target, 0)


def cycle_type(perm) -> tuple:
    """Cycle type of a permutation given as a tuple of images (0-based)."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        j, size = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def coin_change_counts(top: int) -> list[list[int]]:
    """``table[k][n]``, the number of partitions of n with parts at most
    k, for 0 <= n, k <= top: the coin-change count, one part size (coin)
    added at a time, rather than a recursion on the largest part."""
    ways = [1] + [0] * top
    table = [list(ways)]
    for coin in range(1, top + 1):
        for v in range(coin, top + 1):
            ways[v] += ways[v - coin]
        table.append(list(ways))
    return table


def z_order(rho) -> int:
    """Order of the centralizer of a permutation with cycle type ``rho``:
    the product over cycle sizes i of ``i**m_i * m_i!``."""
    z = 1
    mult = 1
    for idx, p in enumerate(rho):
        if idx and rho[idx - 1] == p:
            mult += 1
        else:
            mult = 1
        z *= p * mult
    return z


def kron_oracle(alpha, beta, gamma) -> int:
    """Element-by-element character average over the full group."""
    n = sum(alpha)
    total = 0
    count = 0
    for perm in itertools.permutations(range(n)):
        rho = cycle_type(perm)
        total += (
            character_oracle(alpha, rho)
            * character_oracle(beta, rho)
            * character_oracle(gamma, rho)
        )
        count += 1
    assert total % count == 0
    return total // count


def two_row_kron(alpha, beta, gamma) -> int:
    """The Kronecker coefficient for a shape ``gamma = (a, b)`` of at most
    two rows, with no character: by Jacobi-Trudi s_(a,b) = h_a h_b -
    h_(a+1) h_(b-1), and the coefficient of h_a h_(n-a) in s_alpha *
    s_beta is R(a), the sum over rho of size a and every sigma of
    c^alpha_(rho sigma) c^beta_(rho sigma).  R is read from the
    coproduct rows of ``lr``."""
    a = gamma[0] if gamma else 0
    return _coproduct_pairing(alpha, beta, a) - _coproduct_pairing(alpha, beta, a + 1)


def _coproduct_pairing(alpha, beta, a: int) -> int:
    total = 0
    for rho in partitions_of(a) if a <= sum(alpha) else ():
        row = _skew(rho, beta)
        total += sum(c * row.get(sigma, 0) for sigma, c in _skew(rho, alpha).items())
    return total


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def _skew_cells(nu, lam):
    cells = []
    for r in range(len(nu)):
        lo = lam[r] if r < len(lam) else 0
        for c in range(lo, nu[r]):
            cells.append((r, c))
    return cells


def lr_oracle(lam, mu, nu) -> int:
    """Count all fillings of the skew shape nu/lam with content mu,
    filtering the semistandard and lattice-word conditions at the end."""
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    for r in range(len(lam)):
        if r >= len(nu) or nu[r] < lam[r]:
            return 0
    cells = _skew_cells(nu, lam)
    k = len(mu)
    count = 0
    for values in itertools.product(range(1, k + 1), repeat=len(cells)):
        grid = {cell: v for cell, v in zip(cells, values)}
        content = [0] * k
        for v in values:
            content[v - 1] += 1
        if content != list(mu):
            continue
        ok = True
        for (r, c), v in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
                ok = False
                break
        if not ok:
            continue
        # reverse reading word: rows top to bottom, right to left
        seen = [0] * (k + 1)
        for r in range(len(nu)):
            row = sorted((c for (rr, c) in cells if rr == r), reverse=True)
            for c in row:
                v = grid[(r, c)]
                seen[v] += 1
                if v > 1 and seen[v] > seen[v - 1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def is_horizontal_strip(lam, nu) -> bool:
    """nu/lam is a horizontal strip: containment plus no two added cells
    in one column."""
    for r in range(len(nu)):
        lo = lam[r] if r < len(lam) else 0
        if nu[r] < lo:
            return False
        if r > 0:
            prev = lam[r - 1] if r - 1 < len(lam) else 0
            if nu[r] > prev:
                return False
    return len(lam) <= len(nu)


# ---------------------------------------------------------------------------
# plethysm via composed Schur polynomial weights


def ssyt_weights(shape, n: int):
    """Exponent vectors (content counts) of all semistandard tableaux of
    the given shape with entries 1..n."""
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    results = []

    def fill(idx, grid):
        if idx == len(cells):
            w = [0] * n
            for v in grid.values():
                w[v - 1] += 1
            results.append(tuple(w))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[(r, c - 1)])
        if r > 0:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, n + 1):
            grid[(r, c)] = v
            fill(idx + 1, grid)
        grid.pop((r, c), None)

    fill(0, {})
    return results


def schur_poly(shape, n: int) -> Poly:
    out: Poly = {}
    for w in ssyt_weights(shape, n):
        out[w] = out.get(w, 0) + 1
    return out


def plethysm_oracle(lam, mu, nu) -> int:
    """Coefficient of the Schur polynomial s_nu in s_lam composed with
    s_mu, read off the expansion of the pair (lam, mu)."""
    return _plethysm_expansion(tuple(lam), tuple(mu)).get(tuple(p for p in nu if p), 0)


@cache
def _plethysm_expansion(lam, mu) -> dict:
    """Schur expansion {nu: coefficient} of s_lam composed with s_mu,
    computed over as many variables as its degree by expanding the weight
    multiset of the inner polynomial and peeling off lex-leading Schur
    terms.  Cached, so every nu of one pair is read off one expansion."""
    n = sum(lam) * sum(mu)  # enough variables to separate all partitions of the degree
    inner = ssyt_weights(mu, n)
    m = len(inner)
    # outer evaluation: one monomial per SSYT of shape lam with entries
    # indexing the inner weight multiset
    comp: Poly = {}
    for w in ssyt_weights(lam, m):
        expo = [0] * n
        for idx, mult in enumerate(w):
            if mult:
                for i in range(n):
                    expo[i] += mult * inner[idx][i]
        key = tuple(expo)
        comp[key] = comp.get(key, 0) + 1
    # peel Schur polynomials off the symmetric polynomial
    expansion = {}
    while comp:
        lead = max(comp)
        coeff = comp[lead]
        assert list(lead) == sorted(lead, reverse=True), lead
        shape = tuple(p for p in lead if p)
        expansion[shape] = coeff
        for w, c in schur_poly(shape, n).items():
            key = w
            nv = comp.get(key, 0) - coeff * c
            if nv:
                comp[key] = nv
            else:
                comp.pop(key, None)
    return expansion


# ---------------------------------------------------------------------------
# plethysm in the power-sum basis over partition tuples


def as_dict(f: SymFunc) -> dict:
    """The coefficients of ``f`` as rationals."""
    return {lam: Fraction(c, f.denom) for lam, c in f.coeffs}


def powersum_to_schur(f: SymFunc) -> dict:
    """Schur expansion {nu: rational} of a power-sum element by the Hall
    inner product: the coefficient at ``nu`` is the sum of ``c_rho *
    character(nu, rho)`` over the terms of ``f``."""
    out = {}
    for nu in partitions_of(f.degree()):
        col = column(nu)
        value = Fraction(sum(c * col[rank(rho)] for rho, c in f.coeffs), f.denom)
        if value:
            out[nu] = value
    return out


def powersum_composition(f: SymFunc, g: SymFunc) -> SymFunc:
    """f[g] in the power-sum basis with partition-tuple keys: each index
    of ``g`` is scaled by each part k of an index rho of ``f``, and the
    products are merged by sorting the concatenated parts.  Every term is
    put over ``f.denom * g.denom ** deg f``."""
    deg = f.degree()
    out = {}
    for rho, a in f.coeffs:
        partial = {(): a * g.denom ** (deg - len(rho))}
        for k in rho:
            nxt = {}
            for sigma, b in g.coeffs:
                scaled = tuple(k * s for s in sigma)
                for idx, c in partial.items():
                    key = tuple(sorted(idx + scaled, reverse=True))
                    nxt[key] = nxt.get(key, 0) + c * b
            partial = nxt
        for idx, c in partial.items():
            out[idx] = out.get(idx, 0) + c
    denom = f.denom * g.denom ** deg
    common = gcd(denom, *out.values())
    items = tuple((k, v // common) for k, v in sorted(out.items(), reverse=True) if v)
    return SymFunc(items, denom // common)


# ---------------------------------------------------------------------------
# explicit wreath product of the order-2 group by S_n

S_CHAR = {
    (): {(): 1},
    (1,): {(1,): 1},
    (2,): {(2,): 1, (1, 1): 1},
    (1, 1): {(2,): -1, (1, 1): 1},
    (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
    (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
    (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
}


def wreath_elements(n: int):
    return [
        (signs, perm)
        for signs in itertools.product((0, 1), repeat=n)
        for perm in itertools.permutations(range(n))
    ]


def wreath_mul(g, h):
    (sa, pa), (sb, pb) = g, h
    n = len(sa)
    moved = [0] * n
    for i in range(n):
        moved[pa[i]] = sb[i]
    signs = tuple((sa[i] + moved[i]) % 2 for i in range(n))
    perm = tuple(pa[pb[i]] for i in range(n))
    return signs, perm


def wreath_inv(g):
    signs, perm = g
    n = len(signs)
    inv = [0] * n
    for i in range(n):
        inv[perm[i]] = i
    return tuple(signs[perm[i]] for i in range(n)), tuple(inv)


def _restrict_perm(perm, lo, hi):
    """Cycle type of a permutation restricted to [lo, hi) when that
    block is stable, else None."""
    if any(not (lo <= perm[i] < hi) for i in range(lo, hi)):
        return None
    sub = tuple(perm[i] - lo for i in range(lo, hi))
    return cycle_type(sub)


@cache
def wreath_character(alpha, n: int):
    """Character of the wreath irreducible indexed by the double
    partition alpha, as a dict over group elements, by inducing the
    product of the two symmetric characters twisted by the sign of the
    second block's order-2 coordinates."""
    plus, minus = alpha
    a, b = sum(plus), sum(minus)
    assert a + b == n
    elements = wreath_elements(n)

    def base_char(g):
        signs, perm = g
        t1 = _restrict_perm(perm, 0, a)
        if t1 is None:
            return None
        t2 = _restrict_perm(perm, a, n)
        eps = (-1) ** sum(signs[a:])
        return eps * S_CHAR[plus][t1] * S_CHAR[minus][t2]

    h_order = (2 ** n) * _factorial(a) * _factorial(b)
    table = {}
    for g in elements:
        total = 0
        for x in elements:
            conj = wreath_mul(wreath_mul(x, g), wreath_inv(x))
            v = base_char(conj)
            if v is not None:
                total += v
        assert total % h_order == 0
        table[g] = total // h_order
    return table


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def wreath_tensor_oracle(alpha, beta, gamma) -> int:
    n = sum(alpha[0]) + sum(alpha[1])
    ca = wreath_character(alpha, n)
    cb = wreath_character(beta, n)
    cg = wreath_character(gamma, n)
    order = (2 ** n) * _factorial(n)
    total = sum(ca[g] * cb[g] * cg[g] for g in ca)
    assert total % order == 0
    return total // order


def standard_tableaux_count(shape) -> int:
    """Brute-force count of standard Young tableaux."""
    n = sum(shape)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    count = 0
    for order in itertools.permutations(range(n)):
        pos = {cells[i]: order[i] for i in range(n)}
        if all(
            (c == 0 or pos[(r, c - 1)] < pos[(r, c)])
            and (r == 0 or pos[(r - 1, c)] < pos[(r, c)])
            for r, c in cells
        ):
            count += 1
    return count
