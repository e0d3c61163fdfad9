"""Independent oracles used to freeze expected values in the test suite.

Each routine recomputes a quantity along a different code path than the
library: ranks by minor expansion, roots by brute scan, jets by building
derivative polynomials symbolically.  Nothing here imports library
elimination or jet internals; the root-finder reference shares only the
univariate gcd, trim, exact division and square root with the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

from terracini.algebra import (
    FieldSpec,
    MultiPoly,
    _poly_divide_exact,
    _poly_gcd,
    _poly_trim,
    _sqrt_mod,
)


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
            _split_linear_reference(_poly_divide_exact(g, h, p), p, rng, out)
            return


def roots_by_scan(f: MultiPoly, field: FieldSpec) -> frozenset[int]:
    """Every root of a univariate polynomial by testing all p field elements."""
    assert f.nvars == 1
    return frozenset(x for x in range(field.modulus) if f.evaluate((x,)) == 0)


def jet_by_symbolic_diff(f: MultiPoly, point):
    """(value, gradient, hessian) via explicit derivative polynomials."""
    n = f.nvars
    value = f.evaluate(point)
    firsts = [f.diff(i) for i in range(n)]
    grad = tuple(g.evaluate(point) for g in firsts)
    hess = tuple(
        tuple(firsts[i].diff(j).evaluate(point) for j in range(n)) for i in range(n)
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
