"""Independent oracles used to freeze expected values in the test suite.

Each routine recomputes a quantity along a different code path than the
library: ranks by minor expansion, roots by brute scan, jets by term-wise
exponent bookkeeping.  Nothing here imports library elimination or jet
internals; the root-finder reference shares only the univariate gcd, trim,
long division (``_poly_divmod``, for its exact quotients and inside the
gcd) and square root with the library, and the jet reference only the power
table and the ``Jet2`` container.  The every-trial Terracini loop shares the
witness draw and the rank with the library: it checks only that skipping
ranks that cannot raise the max changes no result and no draw.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from typing import Sequence

import numpy as np

from terracini.algebra import (
    FieldSpec,
    Jet2,
    Matrix,
    MultiPoly,
    _poly_divmod,
    _poly_gcd,
    _poly_trim,
    _sqrt_mod,
    exact_rank,
    max_exponents,
    power_table,
)
from terracini.errors import ConstructionError
from terracini.secant import _nondegenerate_tuple


def det_cofactor(rows):
    """Determinant by recursive cofactor expansion (exact, any field kind)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]  # a zero of the right type
    return total


def rank_by_minors(rows, p: int | None = None) -> int:
    """Largest size of a nonvanishing square minor.  Exponential, tiny inputs only.

    With a modulus p the rows hold integers and a minor counts when its
    integer determinant is nonzero mod p; without one, entries are exact
    rationals (or integers) and the rank is over Q.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for size in range(min(nrows, ncols), 0, -1):
        for ris in combinations(range(nrows), size):
            for cis in combinations(range(ncols), size):
                det = det_cofactor([[rows[i][j] for j in cis] for i in ris])
                if (det if p is None else det % p) != 0:
                    return size
    return 0


def rank_by_reverse_echelon(rows: list[list[int]], p: int) -> int:
    """Row echelon rank mod p, pivoting from the last column backwards.

    A deliberately different pivot order from the library's elimination so
    the two implementations cannot share a bug through copied structure.
    """
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for c in range(ncols - 1, -1, -1):
        pivot = None
        for i in range(nrows - 1, rank - 1, -1):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[pivot], m[rank] = m[rank], m[pivot]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def affine_solve_reference(rows: list[list[int]], rhs: list[int], nvars: int, p: int):
    """Solve A x = rhs mod p by a fresh reduction of ``[A | rhs]`` to reduced
    row echelon form.  Returns the solution with every free unknown zero
    and one kernel vector per free column, or None when the system is
    inconsistent.  Each pivot is the lowest nonzero entry of its column, a
    different choice from the library's; the reduced form is unique, so the
    answer does not depend on it."""
    m = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    for c in range(nvars + 1):
        below = [i for i in range(len(pivots), len(m)) if m[i][c]]
        if not below:
            continue
        r = len(pivots)
        m[r], m[below[-1]] = m[below[-1]], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if nvars in pivots:
        return None
    particular = [0] * nvars
    for row, c in zip(m, pivots):
        particular[c] = row[nvars]
    basis = []
    for free in (f for f in range(nvars) if f not in pivots):
        v = [0] * nvars
        v[free] = 1
        for row, c in zip(m, pivots):
            v[c] = -row[free] % p
        basis.append(tuple(v))
    return particular, basis


def fiber_counts_by_brute_force(polys, proj, qs, p: int, n: int) -> tuple[list[int], int]:
    """Preimage counts of each [q] under proj . (polys) over every point of
    F_p^n, and the number of points mapped to zero (the projection center).

    ``polys`` are ``{exponent tuple: coefficient}`` dicts and ``proj`` a list
    of rows.  A point lies over [q] when its image is nonzero and every 2x2
    minor of (image, q) vanishes: plain cross-multiplication, with no pivot
    row and no difference polynomials.
    """
    counts = [0] * len(qs)
    center = 0
    for point in product(range(p), repeat=n):
        vals = [
            sum(c * prod(pow(x, e, p) for x, e in zip(point, expo)) for expo, c in poly.items()) % p
            for poly in polys
        ]
        img = [sum(a * v for a, v in zip(row, vals)) % p for row in proj]
        if not any(img):
            center += 1
            continue
        for t, q in enumerate(qs):
            if all(
                (img[i] * q[j] - img[j] * q[i]) % p == 0
                for i in range(len(q))
                for j in range(i + 1, len(q))
            ):
                counts[t] += 1
    return counts, center


# -- a second route to the root finder's powers and random draws:
# square-and-multiply on full products, each reduced by a long division that
# inverts the modulus's leading coefficient, with no monic modulus and no
# bit-serial shortcut.


def poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        factor = a[-1] * inv_lead % p
        if factor:
            shift = len(a) - len(m)
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return _poly_trim(a)


def poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return poly_mod(out, m, p)


def poly_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_mod(base, m, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, m, p)
        base = poly_mulmod(base, base, m, p)
        e >>= 1
    return result


def roots_reference(coeffs: list[int], p: int, rng) -> set[int]:
    """The roots of a nonzero coefficient list, drawing from rng exactly as
    the root finder did with ``poly_powmod``."""
    coeffs = _poly_trim([c % p for c in coeffs])
    if len(coeffs) == 1:
        return set()
    xp = poly_powmod([0, 1], p, coeffs, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _poly_gcd(coeffs, _poly_trim(xp_minus_x), p)
    out: set[int] = set()
    _split_linear_reference(g, p, rng, out)
    return out


def _split_linear_reference(g: list[int], p: int, rng, out: set[int]) -> None:
    deg = len(g) - 1
    if deg <= 0:
        return
    if deg == 1:
        out.add((-g[0]) % p)
        return
    if deg == 2:
        b, c = g[1], g[0]
        r = _sqrt_mod((b * b - 4 * c) % p, p)
        inv2 = pow(2, p - 2, p)
        out.add(((-b + r) * inv2) % p)
        out.add(((-b - r) * inv2) % p)
        return
    half = (p - 1) // 2
    while True:
        a = rng.randrange(p)
        probe = poly_powmod([a, 1], half, g, p)
        probe = probe[:]
        if probe:
            probe[0] = (probe[0] - 1) % p
        else:
            probe = [(p - 1) % p]
        h = _poly_gcd(_poly_trim(probe), g, p)
        if 0 < len(h) - 1 < deg:
            _split_linear_reference(h, p, rng, out)
            _split_linear_reference(_poly_divmod(g, h, p)[0], p, rng, out)
            return


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of two coefficient lists, reduced into [0, p)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def restriction_by_list_products(terms: dict[tuple[int, ...], int], args, p: int) -> list[int]:
    """The polynomial ``sum coef * x^expo`` with the coefficient list
    ``args[i]`` substituted for x_i, lowest degree first and trimmed.

    The library's former ``restrict_univariate`` body, kept as the reference
    for its Kronecker substitution: the powers of each argument are built
    once as lists, and each term is one product of cached powers, reduced
    mod p at every step.  It imports nothing from the package.
    """
    max_e = [max((expo[i] for expo in terms), default=0) for i in range(len(args))]
    powers = []
    for arg, top in zip(args, max_e):
        row = [[1]]
        for _ in range(top):
            row.append(poly_mul(row[-1], arg, p))
        powers.append(row)
    acc: list[int] = []
    for expo, coef in terms.items():
        term = [coef]
        for row, e in zip(powers, expo):
            if e:
                term = poly_mul(term, row[e], p)
        if len(term) > len(acc):
            acc += [0] * (len(term) - len(acc))
        for k, c in enumerate(term):
            acc[k] += c
    acc = [c % p for c in acc]
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def roots_by_scan(f: MultiPoly, field: FieldSpec) -> frozenset[int]:
    """Every root of a univariate polynomial by testing all p field elements."""
    assert f.nvars == 1
    return frozenset(x for x in range(field.modulus) if f.evaluate((x,)) == 0)


def jet2_by_term_bookkeeping(f: MultiPoly, point) -> Jet2:
    """Exact 2-jet of f at point by term-wise exponent bookkeeping.

    The library's former ``jet2_eval`` body, kept verbatim as the reference
    for the compiled jet kernel (``algebra.PolyJets``): it never builds a
    derivative polynomial, and reads each monomial's partials off its
    exponents.
    """
    if len(point) != f.nvars:
        raise ConstructionError("point arity mismatch")
    p = f.field.modulus
    n = f.nvars
    powers = power_table(point, max_exponents(n, (f,)), p)

    def mono(expo: Sequence[int]) -> int:
        acc = 1
        for i, e in enumerate(expo):
            if e:
                acc = acc * powers[i][e] % p
        return acc

    value = 0
    grad = [0] * n
    hess = [[0] * n for _ in range(n)]
    for expo, coef in f.terms.items():
        value += coef * mono(expo)
        for i, ei in enumerate(expo):
            if ei == 0:
                continue
            red = list(expo)
            red[i] = ei - 1
            grad[i] += coef * ei * mono(red)
            if ei >= 2:
                red2 = list(expo)
                red2[i] = ei - 2
                hess[i][i] += coef * (ei * (ei - 1)) * mono(red2)
            for j in range(i + 1, n):
                ej = expo[j]
                if ej == 0:
                    continue
                red2 = list(expo)
                red2[i] = ei - 1
                red2[j] = ej - 1
                cross = coef * (ei * ej) * mono(red2)
                hess[i][j] += cross
                hess[j][i] += cross
    return Jet2(
        value % p,
        tuple(g % p for g in grad),
        tuple(tuple(h % p for h in row) for row in hess),
    )


def sqrt_reference(n: int, p: int) -> int:
    """Tonelli-Shanks as the library's ``_sqrt_mod`` was before its per-prime
    constants were cached: it searches for the least non-residue z, and
    takes z^q, on every call.  For a quadratic residue n."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def ruling_restriction_by_terms(terms, vertex_columns, y, p: int) -> dict[tuple[int, ...], int]:
    """g(y + V mu) as {mu-exponent: coefficient}, nonzero coefficients only,
    for g = sum coef * x^expo given as integer (coefficient, exponents)
    pairs, a vertex V given by its integer columns, and a point y.

    Each term is expanded on its own as a product of linear forms
    y_i + sum_j V_ij mu_j, on plain dicts of integers: it imports nothing
    from the package and never groups terms by mu-monomial ahead of time.
    """
    m = len(vertex_columns)
    zero = (0,) * m
    linear = []
    for i, yi in enumerate(y):
        form = {zero: yi % p}
        for j, col in enumerate(vertex_columns):
            if col[i] % p:
                form[tuple(int(a == j) for a in range(m))] = col[i] % p
        linear.append(form)
    out: dict[tuple[int, ...], int] = {}
    for coef, expo in terms:
        acc = {zero: coef % p}
        for form, e in zip(linear, expo):
            for _ in range(e):
                prod_terms: dict[tuple[int, ...], int] = {}
                for e1, c1 in acc.items():
                    for e2, c2 in form.items():
                        key = tuple(a + b for a, b in zip(e1, e2))
                        prod_terms[key] = (prod_terms.get(key, 0) + c1 * c2) % p
                acc = prod_terms
        for key, c in acc.items():
            out[key] = (out.get(key, 0) + c) % p
    return {key: c for key, c in out.items() if c}


def _diff(f: MultiPoly, index: int) -> MultiPoly:
    """d f / d x_index as a polynomial, by the power rule term by term."""
    acc: dict[tuple[int, ...], int] = {}
    for expo, coef in f.terms.items():
        e = expo[index]
        if e:
            key = expo[:index] + (e - 1,) + expo[index + 1:]
            acc[key] = acc.get(key, 0) + coef * e
    return MultiPoly(f.field, f.nvars, acc)


def jet_by_symbolic_diff(f: MultiPoly, point):
    """(value, gradient, hessian) via explicit derivative polynomials, each
    evaluated on its own with ``MultiPoly.evaluate``.  The library's
    compiled ``PolyJets`` kernel never builds a derivative polynomial;
    ``jet2_by_term_bookkeeping`` stays the reference it is tested against."""
    n = f.nvars
    value = f.evaluate(point)
    firsts = [_diff(f, i) for i in range(n)]
    grad = tuple(g.evaluate(point) for g in firsts)
    hess = tuple(
        tuple(_diff(firsts[i], j).evaluate(point) for j in range(n)) for i in range(n)
    )
    return value, grad, hess


def random_fraction_matrix(rng, rows: int, cols: int, rank_target: int | None = None):
    """Plain random Fraction matrix; optionally a product forcing low rank."""
    if rank_target is None:
        return [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cols)]
            for _ in range(rows)
        ]
    left = [[Fraction(rng.randrange(-9, 10)) for _ in range(rank_target)] for _ in range(rows)]
    right = [[Fraction(rng.randrange(-9, 10)) for _ in range(cols)] for _ in range(rank_target)]
    return [
        [sum(left[i][k] * right[k][j] for k in range(rank_target)) for j in range(cols)]
        for i in range(rows)
    ]


def fermat_cubic_points(p: int) -> set[tuple[int, int, int]]:
    """All projective points of u^3 + v^3 + w^3 = 0 over F_p by brute scan.

    Points come back normalized: last nonzero coordinate equals 1.
    """
    pts: set[tuple[int, int, int]] = set()
    for u in range(p):
        cu = pow(u, 3, p)
        for v in range(p):
            if (cu + pow(v, 3, p) + 1) % p == 0:
                pts.add((u, v, 1))
    for u in range(p):
        if (pow(u, 3, p) + 1) % p == 0:
            pts.add((u, 1, 0))
    if (1 + 0 + 0) % p == 0:  # pragma: no cover - impossible for p > 1
        pts.add((1, 0, 0))
    return pts


def ruling_fiber_by_brute_force(components, vertex_columns, cut, proj, q, p: int):
    """Every point over [q] on the section of a cone over the embedded Fermat
    cubic, by scanning all of F_p^m on every ruling.

    The cone is y(c) + V mu for c in ``fermat_cubic_points(p)``, y the map
    whose coordinates are ``components`` (each a list of integer
    (coefficient, exponents) pairs in c), V the ``vertex_columns`` and mu any
    point of F_p^m; rulings with y(c) = 0 are skipped.  The section is the
    zero set of ``cut``, given the same way in the ambient coordinates, and
    ``proj`` is a list of integer rows.  A point lies over [q] when its image
    is nonzero and every 2x2 minor of (image, q) vanishes.  Returns the
    distinct points over [q], each scaled so that its last nonzero
    coordinate is 1, and the number of (c, mu) on the section that map to
    zero.  Imports nothing from the package: numpy filters each ruling's
    grid by the minors, and the few survivors are checked in plain ints.
    """

    def value(terms, point):
        return sum(c * prod(pow(x, e, p) for x, e in zip(point, expo)) for c, expo in terms) % p

    m = len(vertex_columns)
    vertex = np.array(vertex_columns, dtype=np.int64).T % p
    rows = np.array(proj, dtype=np.int64) % p
    mus = np.indices((p,) * m, dtype=np.int64).reshape(m, -1)
    moving = (rows @ vertex % p) @ mus % p
    found: set[tuple[int, ...]] = set()
    center = 0
    for c in fermat_cubic_points(p):
        y = [value(terms, c) for terms in components]
        if not any(y):
            continue
        image = (moving + (rows @ np.array(y, dtype=np.int64) % p)[:, None]) % p
        over = np.ones(mus.shape[1], dtype=bool)
        for i, j in combinations(range(len(q)), 2):
            over &= (image[i] * q[j] - image[j] * q[i]) % p == 0
        for col in np.flatnonzero(over).tolist():
            mu = mus[:, col].tolist()
            x = [(a + sum(v * t for v, t in zip(row, mu))) % p for a, row in zip(y, vertex.tolist())]
            if value(cut, x):
                continue
            if not image[:, col].any():
                center += 1
                continue
            last = max(i for i, a in enumerate(x) if a)
            inv = pow(x[last], p - 2, p)
            found.add(tuple(a * inv % p for a in x))
    return found, center


def double_point_condition_nullity(d: int, points, p: int) -> int:
    """Dimension of degree-d plane forms singular at all given points.

    Built straight from partial-derivative conditions on raw coefficients,
    one row per point per variable, nothing shared with the library's jet
    machinery.
    """
    import itertools

    monos = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    rows = []
    for a, b, c in points:
        for var in range(3):
            row = []
            for e in monos:
                if e[var] == 0:
                    row.append(0)
                    continue
                ee = list(e)
                ee[var] -= 1
                row.append(
                    e[var]
                    * pow(a, ee[0], p)
                    * pow(b, ee[1], p)
                    * pow(c, ee[2], p)
                    % p
                )
            rows.append(row)
    return len(monos) - rank_by_reverse_echelon(rows, p)


def terracini_dim_ranking_every_trial(x, k: int, rng, trials: int):
    """``secant.terracini_dim`` as it was before it skipped trials: every
    trial forms its stacked rank, and a strictly larger rank wins."""
    n = x.intrinsic_dim(rng)
    best, best_ws = -1, ()
    for _ in range(trials):
        ws, _, frames = _nondegenerate_tuple(x, k + 1, n, rng)
        dim = exact_rank(Matrix.hstack(frames)) - 1
        if dim > best:
            best, best_ws = dim, tuple(ws)
    return best, best_ws


# (n, d, k) of the four sporadic defective secants of Veronese varieties
AH_SPORADIC = frozenset({(2, 4, 4), (3, 4, 8), (4, 3, 6), (4, 4, 13)})


def ah_parameter_count(n: int, d: int, k: int) -> int:
    """Expected dim S^k(v_d(P^n)): min(C(n+d, d) - 1, n(k+1) + k)."""
    return min(comb(n + d, d) - 1, n * (k + 1) + k)


def ah_secant_dim(n: int, d: int, k: int) -> int:
    """dim S^k(v_d(P^n)) for d >= 2, from the Alexander-Hirschowitz
    classification (J. Algebraic Geom. 4, 1995) alone.

    For k < n, S^k(v_2(P^n)) is the variety of symmetric (n+1) x (n+1)
    matrices of rank at most k+1, of dimension (k+1)(n+1) - k(k+1)/2 - 1.
    The four sporadic cases fall one short of the parameter count; every
    other secant reaches it.
    """
    if d == 2 and k < n:
        return (k + 1) * (n + 1) - k * (k + 1) // 2 - 1
    count = ah_parameter_count(n, d, k)
    return count - 1 if (n, d, k) in AH_SPORADIC else count


# what tangential_projection_degree returns where the projected image loses
# dimension
NOT_GENERICALLY_FINITE = "not generically finite"

# (n, d, r) -> decompositions: the only subgeneric ranks r at which a general
# form of degree d >= 3 in n + 1 variables has more than one decomposition
# (Chiantini-Ottaviani-Vannieuwenhoven, Trans. AMS 369, 2017)
COV_EXCEPTIONS = {(2, 6, 9): 2, (3, 4, 8): 2, (5, 3, 9): 2}

# d -> decompositions of a general plane form of degree d at the perfect rank
# C(d + 2, 2) / 3: one for quintics (Galuppi-Mella, J. reine angew. Math. 757,
# 2019), five for septics (Dixon-Stuart 1906; Ranestad-Schreyer, J. reine
# angew. Math. 525, 2000); Galuppi-Mella show every other perfect case has
# more than one, and no count is cited for it
PLANE_PERFECT_DECOMPOSITIONS = {5: 1, 7: 5}


def tangential_projection_degree(n: int, d: int, k: int):
    """The degree of the projection of v_d(P^n), n = 1 or 2, from k general
    tangent spaces, from the literature alone.

    The k tangent spaces span a space of dimension dim S^{k-1} (Terracini),
    and the image is a variety of dimension dim S^k - dim S^{k-1} - 1, both
    read off ``ah_secant_dim``.  The projection is generically finite when
    that is n, and then its degree is the number of decompositions of a
    general form of rank r = k + 1 (Chiantini-Ciliberto, J. London Math.
    Soc. 73, 2006):

    * binary forms have one (Sylvester);
    * plane forms of subgeneric rank, 3r < C(d + 2, 2), have one, except
      the exceptions of ``COV_EXCEPTIONS``;
    * the only other finite case is the perfect rank 3r = C(d + 2, 2),
      counted by ``PLANE_PERFECT_DECOMPOSITIONS``.

    Returns 1, the number of decompositions, ``NOT_GENERICALLY_FINITE``, or
    None where no count is cited.  Raises ``ValueError`` for other n, for
    d < 2 or k < 1, and where the k tangent spaces already fill the span.
    """
    if n not in (1, 2) or d < 2 or k < 1:
        raise ValueError(f"no closed form for v_{d}(P^{n}) at k = {k}")
    span = comb(n + d, d) - 1
    center = ah_secant_dim(n, d, k - 1)
    if center >= span:
        raise ValueError(f"{k} tangent spaces of v_{d}(P^{n}) fill P^{span}")
    if ah_secant_dim(n, d, k) - center - 1 != n:
        return NOT_GENERICALLY_FINITE
    r = k + 1
    if n == 1:
        return 1
    if 3 * r < span + 1:
        return COV_EXCEPTIONS.get((n, d, r), 1)
    return PLANE_PERFECT_DECOMPOSITIONS.get(d)


def weakly_defective_veronese(n: int, d: int, k: int):
    """Whether v_d(P^n) is k-weakly defective, from the literature alone:
    whether a general hyperplane tangent at k + 1 general points is tangent
    along a positive-dimensional contact locus, which ``nu >= 1`` records.

    * None where S^k fills the span, so that no hyperplane is tangent at
      k + 1 general points;
    * True where S^k is defective (``ah_secant_dim``), since a defective
      secant is weakly defective (Chiantini-Ciliberto, Trans. AMS 354, 2002),
      and at the three ranks r = k + 1 of ``COV_EXCEPTIONS``;
    * False everywhere else: for d >= 3 below the generic rank, COV show
      that the three are the only weakly defective cases; every secant of
      v_2(P^n) short of filling is defective, and a single tangent point
      never is, on any Veronese.  For n = 1 this leaves False below
      filling: no rational normal curve is weakly defective.

    Raises ``ValueError`` for n < 1, d < 2 or k < 0.
    """
    if n < 1 or d < 2 or k < 0:
        raise ValueError(f"no weak-defectivity rule for v_{d}(P^{n}) at k = {k}")
    dim = ah_secant_dim(n, d, k)
    if dim >= comb(n + d, d) - 1:
        return None
    return dim < ah_parameter_count(n, d, k) or (n, d, k + 1) in COV_EXCEPTIONS
