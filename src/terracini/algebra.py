"""Exact arithmetic substrate: prime fields, matrices, sparse polynomials, 2-jets.

Everything in this module is exact.  A field element is a plain Python int
in ``[0, p)`` everywhere in the package: in matrix entries, polynomial
coefficients, jets, witnesses and root sets.  The modulus travels with the
containers that hold a ``FieldSpec`` (``Matrix``, ``MultiPoly``); helpers on
bare vectors (``dot``, ``normalize_point``, ``power_table``) take ``p``.
Every operation reduces its result into ``[0, p)``, and no floating point
appears anywhere here; the fiber grid's exact float64 products live with
the grid, in ``fiber._matmul``.

Matrices are dense row-major and small (ambient dimensions stay below ~125),
but elimination is not cheap: with tangent frames built from first-order jets,
the rank of the stacked frames is the costliest step of a secant-dimension
computation on wide matrices (120 x 225 for the quadratic Veronese of P^14 at
k = 14).

Every rank, kernel, solve and inverse goes through one Gauss-Jordan routine,
``_gauss_jordan``.  It reduces a matrix of at least ``WIDE_CELLS`` cells as
one exact ``int64`` numpy array when p < 2^31, and every other matrix on
plain int rows; both paths update only the rows with a nonzero entry in the
pivot column and hand back the same int rows.  A rank is the pivot count of
an echelon form of the shorter side (rows or columns), which clears nothing
above a pivot; kernels and solves read the reduced form.  Every affine solve
is read off it in one place, ``LinearSystem``, which reduces a constant
matrix once for its rank, its kernel and any number of right-hand sides.

Every derivative is taken in one kernel, ``PolyJets``, and every order,
values included, is compiled by one routine, ``_derivative_rows``: each
nonzero output is a sparse row of (monomial slot, coefficient) pairs read
straight off the terms, and an identically zero output has no row and costs
nothing.  The monomials of an order form a prefix chain, so one routine,
``_evaluate``, reads any order at a point with one multiplication per
monomial, its prefix's value times a power, then a short dot product per
output.  Monomial values stay unreduced integers (below p^s over s support
variables), and each output is reduced mod p once.  Each order is compiled
on first read and kept by its kernel alone, so first-order work (tangent
frames, and so every secant dimension) never builds Hessian rows, a kernel
that only evaluates builds neither, and the tables go when the kernel does.

A ``MultiPoly`` is a validated map from exponent tuples to coefficients,
with no ring arithmetic.  The draw path and the fiber grid read its
``terms``, ``{exponents: coefficient}`` maps, as they read the maps the
package computes itself (``varieties._ruling_forms``), which are never
wrapped and validated again.  ``MultiPoly.evaluate`` has no production caller.

Univariate polynomials are coefficient lists, lowest degree first.
``restrict_univariate`` substitutes them into a term map by Kronecker
substitution, as big-int products with no list arithmetic.  One long
division, ``_poly_divmod``, serves the gcd and the exact quotients of the
root finder, ``uni_roots_mod_p``, which takes the list that
``restrict_univariate`` returns.  Almost every root-finder call is a cubic
at an analysis prime; a squarefree cubic at p > 3 gets its roots in closed
form (``_cubic_roots``): Stickelberger's theorem picks the case from p mod 3
and the quadratic character of the Cardano discriminant, and Cardano's
formula in F_p, with an Adleman-Manders-Miller cube root, or a norm-one
cube root in F_p(sqrt(D)) gives the roots.  Only p = 2 mod 3 with 0 or 3
roots, and a repeated root, take the general gcd route.  Where the general
route would draw random shifts, the closed form replays the same draws, so
root sets and random streams do not depend on which route ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ConstructionError

__all__ = [
    "FieldSpec",
    "Matrix",
    "MultiPoly",
    "Jet2",
    "LinearSystem",
    "PolyJets",
    "exact_rank",
    "subspace_intersect",
    "jet2_eval",
    "max_exponents",
    "power_table",
    "restrict_univariate",
    "uni_roots_mod_p",
    "is_prime",
    "inverse",
    "dot",
    "normalize_point",
]

# The twelve prime bases up to 37 make Miller-Rabin deterministic below
# psi_12 = 318,665,857,834,031,151,167,461 (a strong pseudoprime to all of
# them), so ``FieldSpec`` accepts no modulus of 2^64 or more.  The same
# primes are the trial divisors.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MIN_MODULUS = 257
_MODULUS_BOUND = 1 << 64

# Matrices with at least this many cells reduce as one int64 array; below it
# numpy's per-call overhead loses to plain int lists.
WIDE_CELLS = 1024
# With entries in [0, p), p < 2^31, every a - f*b lies within +-2^62.
_INT64_MODULUS_BOUND = 1 << 31


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases ``_MR_WITNESSES``: deterministic below
    psi_12, and so for every modulus ``FieldSpec`` accepts."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The working field F_p; its elements are plain ints in ``[0, p)``.

    The modulus must be a verified prime of at least 257 and below 2^64;
    small characteristics would collide with the degrees (up to 6) handled
    by the geometry layers, and below 2^64 ``is_prime`` is a proof.  The
    field object itself carries no elements: it rides on the containers
    (``Matrix``, ``MultiPoly``) so that mixing two fields raises, and it is
    the entry point for outside data via ``scalar``.
    """

    modulus: int

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or self.modulus < _MIN_MODULUS:
            raise ConstructionError(
                f"modulus must be an int >= {_MIN_MODULUS}, got {self.modulus!r}"
            )
        if self.modulus >= _MODULUS_BOUND:
            raise ConstructionError(f"modulus must be below 2^64, got {self.modulus}")
        if not is_prime(self.modulus):
            raise ConstructionError(f"modulus {self.modulus} is not prime")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    def scalar(self, value) -> int:
        """Reduce an outside int into ``[0, p)``; anything else is rejected."""
        if not isinstance(value, int):
            raise ConstructionError(f"prime field wants ints, got {value!r}")
        return value % self.modulus

    def random_scalar(self, rng: random.Random) -> int:
        return rng.randrange(self.modulus)


def inverse(a: int, p: int) -> int:
    """Inverse of a mod p, in [0, p); zero has none."""
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, -1, p)


def dot(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """Exact inner product mod p of two equal-length vectors."""
    if len(u) != len(v):
        raise ConstructionError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v)) % p


def normalize_point(vec: Sequence[int], p: int) -> tuple[int, ...]:
    """Scale a nonzero vector mod p so its last nonzero coordinate is 1.

    This is the canonical representative used for projective point identity
    everywhere in the package (witness dedup, fiber counting).
    """
    for i in range(len(vec) - 1, -1, -1):
        if vec[i]:
            inv = inverse(vec[i], p)
            return tuple(x * inv % p for x in vec)
    raise ConstructionError("cannot normalize the zero vector")


class Matrix:
    """Dense exact matrix over one field, row-major, immutable after
    construction.  Entries are ints in ``[0, p)``."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence[int]]) -> None:
        rows = tuple(tuple(row) for row in entries)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ConstructionError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence[int]]) -> "Matrix":
        if not cols:
            return cls(field, [])
        if any(len(col) != len(cols[0]) for col in cols):
            raise ConstructionError("ragged columns")
        return cls(field, list(zip(*cols)))

    @classmethod
    def hstack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        mats = [m for m in mats if m.cols > 0]
        if not mats:
            raise ConstructionError("hstack of nothing")
        field = mats[0].field
        height = mats[0].rows
        for m in mats:
            if m.field != field:
                raise FieldMismatchError("hstack across fields")
            if m.rows != height:
                raise ConstructionError("hstack height mismatch")
        return cls(field, [sum((m.entries[i] for m in mats), ()) for i in range(height)])

    # -- shape ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.columns())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ConstructionError("matvec shape mismatch")
        p = self.field.modulus
        return tuple(dot(row, v, p) for row in self.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError("matmul across fields")
        if self.cols != other.rows:
            raise ConstructionError("matmul shape mismatch")
        p = self.field.modulus
        cols = other.columns()
        return Matrix(self.field, [[dot(row, c, p) for c in cols] for row in self.entries])

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form and pivot column indices."""
        rows = [list(row) for row in self.entries]
        return rows, _gauss_jordan(rows, self.field.modulus)

    def rank(self) -> int:
        """Exact rank: the pivot count of an echelon form of the shorter
        side.  Rank does not change under transposition, so a tall matrix
        reduces its columns, and no row above a pivot is cleared."""
        side = zip(*self.entries) if self.rows > self.cols else self.entries
        rows = [list(row) for row in side]
        return len(_gauss_jordan(rows, self.field.modulus, reduced=False))

    def null_space(self) -> "Matrix":
        """Matrix whose columns are a basis of the right kernel.

        A trivial kernel yields a matrix with zero columns (rows x 0).
        """
        if self.cols == 0:
            return Matrix(self.field, [])
        rref, pivots = self.rref()
        cols = _kernel_basis(self.field.modulus, rref, pivots, self.cols)
        if not cols:
            return Matrix(self.field, [[] for _ in range(self.cols)])
        return Matrix.from_columns(self.field, cols)

    def column_basis(self) -> "Matrix":
        """Submatrix keeping one column per pivot, spanning the column space."""
        _, pivots = self.rref()
        if not pivots:
            return Matrix(self.field, [[] for _ in range(self.rows)])
        return Matrix.from_columns(self.field, [self.column(j) for j in pivots])


def _gauss_jordan(rows: list[list[int]], p: int, reduced: bool = True) -> list[int]:
    """Reduce int rows with entries in [0, p) to row echelon form mod p, in
    place, and return the pivot columns.

    Columns are scanned left to right and each pivot is the first nonzero
    entry at or below the current row; it is scaled to 1 and cleared from
    the rows below it, and, when ``reduced``, from the rows above it too,
    which gives the reduced row echelon form.  The scan stops once every row
    holds a pivot.  The pivot columns do not depend on ``reduced``.  This is
    the package's only row reduction: ranks read the pivot count of an
    echelon form, and kernels, affine solves and inverses read their answer
    off the reduced form.

    A matrix of at least ``WIDE_CELLS`` cells reduces as one ``int64`` array
    when p < 2^31, where every ``a - f*b`` of entries in [0, p) lies within
    +-2^62 and so stays exact.  Smaller matrices, where numpy's per-call
    overhead dominates, and larger moduli, where ``int64`` would overflow,
    reduce on int lists.  Both paths make the same row operations in the
    same order, and skip the rows whose entry in the pivot column is zero,
    so in either mode they return the same rows (as Python ints in [0, p))
    and the same pivots.
    """
    if rows and len(rows) * len(rows[0]) >= WIDE_CELLS and p < _INT64_MODULUS_BOUND:
        return _gauss_jordan_int64(rows, p, reduced)
    return _gauss_jordan_lists(rows, p, reduced)


def _gauss_jordan_lists(rows: list[list[int]], p: int, reduced: bool = True) -> list[int]:
    """``_gauss_jordan`` on Python int lists, for any prime p."""
    nrows = len(rows)
    pivots: list[int] = []
    if nrows == 0:
        return pivots
    r = 0
    for c in range(len(rows[0])):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inverse(rows[r][c], p)
        prow = rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(0 if reduced else r + 1, nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _gauss_jordan_int64(rows: list[list[int]], p: int, reduced: bool = True) -> list[int]:
    """``_gauss_jordan`` on one ``int64`` array, for p < 2^31.

    Each pivot updates only the rows with a nonzero entry in its column,
    and only from that column on: such a row loses that entry times the
    pivot row.  Rows with a zero factor would not change, and left of the
    pivot column the pivot row is already zero.  Tangent frames are sparse,
    so most pivots touch few rows.  The rows are written back one at a time
    as int lists.
    """
    # numpy arrives with the package through fiber.py; importing it here,
    # not ahead of the rest of the package, keeps the process's resident
    # memory where it was (importing it first added about 1.5 MB).
    import numpy as np

    a = np.array(rows, dtype=np.int64)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        pivot = r + int(below[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        prow = a[r, c:]
        prow *= inverse(int(prow[0]), p)
        prow %= p
        # after the swap, the old row r (zero in column c) sits at pivot
        hit = below[1:] + r
        if reduced:
            hit = np.concatenate((np.flatnonzero(a[:r, c]), hit))
        if hit.size:
            block = a[hit, c:]
            block -= np.multiply.outer(block[:, 0], prow)
            block %= p
            a[hit, c:] = block
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(nrows):
        rows[i] = a[i].tolist()
    return pivots


def _kernel_basis(
    p: int, rref: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int
) -> list[tuple[int, ...]]:
    """One kernel vector per free column of a reduced matrix's first ncols
    columns, read off its reduced rows."""
    pivot_set = set(pivots)
    cols = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f] % p
        cols.append(tuple(v))
    return cols


class LinearSystem:
    """The package's one affine solver: the constant matrix A (``rows``, in
    ``nvars`` unknowns) reduced once, with its rank, its kernel and every
    solve read off that reduction.

    Reducing ``[A | I]`` gives the reduced form R of A and an invertible E
    with E A = R.  The pivots of R depend only on the columns of A, so
    ``[R | E rhs]`` is the reduced form of ``[A | rhs]``: ``solve`` and
    ``basis`` give exactly what a reduction of ``[A | rhs]`` per right-hand
    side would.  The rows of E past the rank, ``cokernel``, span the rows w
    with w A = 0, so A x = rhs is solvable exactly when w rhs = 0 for each
    of them.  With no equations the whole space comes back.
    """

    def __init__(self, rows: Sequence[Sequence[int]], nvars: int, p: int) -> None:
        aug = [list(row) + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]
        self.pivots = [c for c in _gauss_jordan(aug, p) if c < nvars]
        self.rank = len(self.pivots)
        self.transform = [row[nvars:] for row in aug]
        self.cokernel = self.transform[self.rank :]
        self.basis = _kernel_basis(p, aug, self.pivots, nvars)
        self.nvars, self.p = nvars, p

    def solve(self, rhs: Sequence[int]) -> list[int] | None:
        """The solution of A x = rhs with every free unknown zero, or None if
        some cokernel row w has w rhs != 0."""
        t = [sum(e * r for e, r in zip(row, rhs)) % self.p for row in self.transform]
        if any(t[self.rank :]):
            return None
        x = [0] * self.nvars
        for r, c in enumerate(self.pivots):
            x[c] = t[r]
        return x


def exact_rank(m: Matrix) -> int:
    """Rank of an exact matrix.  Thin wrapper kept as the public entry point."""
    return m.rank()


def subspace_intersect(a: Matrix, b: Matrix) -> Matrix:
    """Basis matrix for the intersection of two column spans.

    Columns of the result are independent and satisfy the rank identity
    rank(result) = rank(a) + rank(b) - rank([a | b]).
    """
    if a.field != b.field:
        raise FieldMismatchError("subspace_intersect across fields")
    if a.rows != b.rows:
        raise ConstructionError("ambient dimension mismatch")
    a = a.column_basis()
    b = b.column_basis()
    if a.cols == 0 or b.cols == 0:
        return Matrix(a.field, [[] for _ in range(a.rows)])
    stacked = Matrix.hstack([a, b])
    kernel = stacked.null_space()
    if kernel.cols == 0:
        return Matrix(a.field, [[] for _ in range(a.rows)])
    cols = []
    for j in range(kernel.cols):
        coeffs = kernel.column(j)[: a.cols]
        cols.append(a.matvec(coeffs))
    return Matrix.from_columns(a.field, cols)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


def _grlex_key(expo: tuple[int, ...]) -> tuple:
    # graded order first, then lexicographic on exponents
    return (sum(expo), expo)


class MultiPoly:
    """Sparse multivariate polynomial over one FieldSpec: a term map.

    Terms map exponent tuples to nonzero coefficients in ``[0, p)``; the
    constructor checks every exponent's arity and sign, reduces every
    coefficient and drops zeros, so structural equality is semantic
    equality.  There is no ring arithmetic: a sum is the two term lists
    joined in ``from_int_terms``, which adds the coefficients of a repeated
    exponent.  Printing iterates terms in graded-lex order for determinism.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms: dict[tuple[int, ...], int]) -> None:
        p = field.modulus
        clean: dict[tuple[int, ...], int] = {}
        for expo, coef in terms.items():
            if len(expo) != nvars:
                raise ConstructionError(f"exponent arity {len(expo)} != nvars {nvars}")
            if any(e < 0 for e in expo):
                raise ConstructionError("negative exponent")
            coef %= p
            if coef:
                clean[tuple(expo)] = coef
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int_terms(cls, field: FieldSpec, nvars: int, terms: Iterable[tuple[int, Sequence[int]]]) -> "MultiPoly":
        """Build from (coefficient, exponents) pairs with integer data;
        coefficients of a repeated exponent add up."""
        acc: dict[tuple[int, ...], int] = {}
        for coef, expo in terms:
            expo = tuple(expo)
            acc[expo] = acc.get(expo, 0) + field.scalar(coef)
        return cls(field, nvars, acc)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise ConstructionError("point arity mismatch")
        p = self.field.modulus
        powers = power_table(point, max_exponents(self.nvars, (self,)), p)
        acc = 0
        for expo, coef in self.terms.items():
            term = coef
            for i, e in enumerate(expo):
                if e:
                    term = term * powers[i][e] % p
            acc += term
        return acc % p

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for expo, coef in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(expo) if e
            )
            bits.append(f"{coef}{'*' + mono if mono else ''}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def max_exponents(nvars: int, polys: Iterable[MultiPoly]) -> list[int]:
    """Largest exponent of each variable over all terms of the polynomials."""
    max_e = [0] * nvars
    for poly in polys:
        for expo in poly.terms:
            for i, e in enumerate(expo):
                if e > max_e[i]:
                    max_e[i] = e
    return max_e


def power_table(point: Sequence[int], max_e: Sequence[int], p: int) -> list[list[int]]:
    """powers[i][e] = point[i]**e mod p for every e <= max_e[i]."""
    if len(point) != len(max_e):
        raise ConstructionError("point arity mismatch")
    table = []
    for x, top in zip(point, max_e):
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x % p)
        table.append(row)
    return table


def restrict_univariate(terms: dict[tuple[int, ...], int], args: Sequence[Sequence[int]], p: int) -> list[int]:
    """Coefficients mod p, lowest degree first and trimmed (the zero
    polynomial is ``[]``), of the term map ``{exponents: coefficient}``,
    coefficients in ``[0, p)``, with the univariate polynomial ``args[i]``
    substituted for variable i.  Arguments are coefficient lists; a line
    ``a + s b`` is the argument list ``[a_i, b_i]``.

    The expansion runs by Kronecker substitution (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 8.4): each argument, reduced mod p,
    is packed into one int with a slot of ``shift`` bits per coefficient,
    so a product of packed polynomials is the packing of their exact
    integer product.  Each term is its coefficient times cached packed
    powers, and the terms sum as one int.  With T terms of total degree at
    most D and arguments of at most w coefficients, no coefficient of the
    exact sum exceeds T (p-1)^(D+1) w^D < 2^shift, so no slot carries into
    the next; the slots are read off one by one and reduced mod p.
    """
    if not terms:
        return []
    tops = [max(column) for column in zip(*terms)]
    if len(tops) != len(args):
        raise ConstructionError("restriction arity mismatch")
    degree = max(map(sum, terms))
    width = max([1, *map(len, args)])
    shift = (len(terms) * (p - 1) ** (degree + 1) * width**degree).bit_length()
    powers = []
    for arg, top in zip(args, tops):
        packed = 0
        for c in reversed(arg):
            packed = packed << shift | c % p
        row = [1]
        for _ in range(top):
            row.append(row[-1] * packed)
        powers.append(row)
    total = 0
    for expo, coef in terms.items():
        for row, e in zip(powers, expo):
            if e:
                coef *= row[e]
        total += coef
    mask = (1 << shift) - 1
    out = []
    while total:
        out.append((total & mask) % p)
        total >>= shift
    return _poly_trim(out)


# ---------------------------------------------------------------------------
# 2-jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value, gradient, and symmetric Hessian of a function at one point."""

    value: int
    gradient: tuple[int, ...]
    hessian: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.gradient)
        if len(self.hessian) != n or any(len(row) != n for row in self.hessian):
            raise ConstructionError("hessian shape mismatch")
        for i in range(n):
            for j in range(i + 1, n):
                if self.hessian[i][j] != self.hessian[j][i]:
                    raise ConstructionError("hessian not symmetric")

    @property
    def dim(self) -> int:
        return len(self.gradient)

    def gradient_is_zero(self) -> bool:
        return not any(self.gradient)

    def hessian_matrix(self, field: FieldSpec) -> Matrix:
        return Matrix(field, self.hessian)


class PolyJets:
    """Values, gradients and Hessians of a tuple of polynomials in one arity:
    the package's one place where derivatives are taken.

    Each order is one table, ``_derivative_rows``' (chain, rows), compiled
    on first read and held by this kernel alone, so a kernel builds only
    the orders its callers read, and its tables are freed with it.
    ``powers`` gives a point's power table, and ``_evaluate`` reads every
    order from it: derivatives never raise an exponent, so the polynomials'
    power table covers every monomial of every order.
    """

    def __init__(self, polys: Sequence[MultiPoly], nvars: int) -> None:
        self.polys = tuple(polys)
        self.nvars = nvars
        self.p = self.polys[0].field.modulus
        self.max_e = max_exponents(nvars, self.polys)

    @cached_property
    def value_table(self) -> tuple[tuple, tuple]:
        return _derivative_rows(self.polys, self.nvars, self.p, 0)

    @cached_property
    def gradient_table(self) -> tuple[tuple, tuple]:
        return _derivative_rows(self.polys, self.nvars, self.p, 1)

    @cached_property
    def hessian_table(self) -> tuple[tuple, tuple]:
        return _derivative_rows(self.polys, self.nvars, self.p, 2)

    def powers(self, point: Sequence[int]) -> list[list[int]]:
        return power_table(point, self.max_e, self.p)

    def values(self, powers) -> tuple[int, ...]:
        return tuple(_evaluate(self.value_table, powers, len(self.polys), self.p))

    def gradients(self, powers) -> tuple[tuple[int, ...], ...]:
        flat = _evaluate(self.gradient_table, powers, len(self.polys) * self.nvars, self.p)
        return tuple(zip(*[iter(flat)] * self.nvars))

    def hessians(self, powers) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """One Hessian per polynomial, exactly symmetric."""
        n = self.nvars
        flat = _evaluate(self.hessian_table, powers, len(self.polys) * n * n, self.p)
        hess_rows = zip(*[iter(flat)] * n)
        return tuple(zip(*[hess_rows] * n))


def _derivative_rows(polys: Sequence[MultiPoly], nvars: int, p: int, order: int) -> tuple[tuple, tuple]:
    """(chain, rows) of every nonzero partial derivative of the given order
    of each polys[k]: row (..(k*n + i_1)*n + ..)*n + i_order holds
    d/dx_i_1 .. d/dx_i_order of polys[k].

    A monomial is its support, ((variable, exponent), ...) in variable
    order, and the chain lists the monomials as a prefix chain: entry
    (parent, i, e) is the monomial of slot ``parent`` times x_i^e, its
    parent being its support less the last pair.  Slot 0 is the constant
    monomial and entry k is slot k + 1, after its parent; a prefix that is
    not itself a monomial of the table has a slot that no row reads.  A row
    is (output position, [(slot, coefficient), ...]), read straight off the
    terms, and an identically zero output has no row.  Every ordering of
    the variables is listed, so mixed partials that agree are read from
    identical rows.
    """
    partials = [
        (k, tuple([(i, e) for i, e in enumerate(expo) if e]), coef)
        for k, f in enumerate(polys)
        for expo, coef in f.terms.items()
    ]
    for _ in range(order):
        partials = [
            (pos * nvars + i, _lower(mono, a), c * e % p)
            for pos, mono, c in partials
            for a, (i, e) in enumerate(mono)
        ]
    chain: list[tuple[int, int, int]] = []
    slots: dict[tuple[tuple[int, int], ...], int] = {(): 0}

    def slot(mono: tuple[tuple[int, int], ...]) -> int:
        found = slots.get(mono)
        if found is None:
            i, e = mono[-1]
            chain.append((slot(mono[:-1]), i, e))
            found = slots[mono] = len(chain)
        return found

    rows: dict[int, list[tuple[int, int]]] = {}
    for pos, mono, c in partials:
        if c:
            rows.setdefault(pos, []).append((slot(mono), c))
    return tuple(chain), tuple(rows.items())


def _lower(mono: tuple[tuple[int, int], ...], a: int) -> tuple[tuple[int, int], ...]:
    """The monomial with the exponent of its a-th support variable lowered by one."""
    i, e = mono[a]
    return mono[:a] + ((i, e - 1),) + mono[a + 1:] if e > 1 else mono[:a] + mono[a + 1:]


def _evaluate(table: tuple[tuple, tuple], powers: Sequence[Sequence[int]], size: int, p: int) -> list[int]:
    """``size`` outputs of a (chain, rows) table at a point, from its power
    table: each slot's value by one multiplication, its parent's value times
    a power, then each row's dot product with those values, and 0 where
    there is no row.

    A slot keeps its exact integer product, unreduced: the product of one
    reduced power per support variable, so below p^s for a monomial over s
    variables.  Each output is reduced once, at the end of its row: on the
    cone sections' value tables that is a third faster than a reduction per
    slot, and no slower on their gradient and Hessian tables."""
    chain, rows = table
    values = [1]
    append = values.append
    for parent, i, e in chain:
        append(values[parent] * powers[i][e])
    out = [0] * size
    for pos, pairs in rows:
        acc = 0
        for j, c in pairs:
            acc += c * values[j]
        out[pos] = acc % p
    return out


def jet2_eval(f: MultiPoly, point: Sequence[int]) -> Jet2:
    """Exact 2-jet of f at point, from one ``PolyJets`` power table."""
    jets = PolyJets((f,), f.nvars)
    powers = jets.powers(point)
    return Jet2(jets.values(powers)[0], jets.gradients(powers)[0], jets.hessians(powers)[0])


# ---------------------------------------------------------------------------
# univariate roots over F_p
# ---------------------------------------------------------------------------


def uni_roots_mod_p(coeffs: Sequence[int], p: int, rng: random.Random | None = None) -> frozenset[int]:
    """All roots in F_p of the nonzero univariate polynomial with these
    coefficients, lowest degree first (as ``restrict_univariate`` returns
    them); entries are reduced mod p and trailing zeros dropped.

    The general route splits off the product of linear factors with
    gcd(f, x^p - x), then isolates single roots by randomized equal-degree
    splitting (Cantor and Zassenhaus): gcd((x + a)^((p-1)/2) - 1, g) for
    random shifts a.  Both powers are taken modulo a polynomial made monic
    once, from the most significant bit of the exponent down.  The random
    shifts only steer the recursion; the returned set is a deterministic
    function of the polynomial.

    Almost every call is a cubic at an analysis prime near 2^31: the Fermat
    curve's draws restrict a plane cubic to a random line, and cone sections
    are cut by a cubic (606, 937 and 322 calls with 0, 1 and 3 roots in one
    benchmark ``paper-suite`` round at seed 1).  A squarefree cubic at p > 3 goes to
    ``_cubic_roots``, which reads its roots in closed form from a few
    modular powers, and falls back to the general route only where that
    gives no answer (a repeated root, or 0 or 3 roots at p = 2 mod 3).  The
    general route draws shifts only to split a product of three or more
    linear factors, which for a cubic means three distinct roots, and it
    stops at the first shift a whose gcd has degree 1 or 2.  That degree is
    the number of roots x with (x + a)^((p-1)/2) = 1, so ``_cubic_roots``,
    once it holds the three roots, replays the same draws to the same
    stopping point: the random stream is the same either way.
    """
    coeffs = _poly_trim([c % p for c in coeffs])
    if not coeffs:
        raise ConstructionError("zero polynomial has every root")
    if len(coeffs) == 1:
        return frozenset()
    if rng is None:
        rng = random.Random(0xC0FFEE)
    coeffs = _poly_monic(coeffs, p)
    if len(coeffs) == 4 and p > 3:
        roots = _cubic_roots(coeffs, p, rng)
        if roots is not None:
            return roots
    # product of distinct linear factors: gcd(f, x^p - x)
    xp_minus_x = _linear_power_mod(0, p, coeffs, p)
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _poly_gcd(coeffs, _poly_trim(xp_minus_x), p)
    out: set[int] = set()
    _split_linear(g, p, rng, out)
    return frozenset(out)


@lru_cache(maxsize=None)
def _cubic_constants(p: int) -> tuple:
    """Constants of F_p that ``_cubic_roots`` reads, for a prime p > 3:
    1/2, 1/3 and (p-1)/2; then, when p = 1 mod 3 (None otherwise), with
    p - 1 = 3^s3 t and 3 not dividing t: s3, k with 3k = 1 mod t, the
    inverse of a generator c of the 3-Sylow subgroup of F_p^*, the
    primitive cube root of unity omega = c^(3^(s3-1)), and the bits of
    e = 1/3 mod p + 1."""
    base = (inverse(2, p), inverse(3, p), (p - 1) // 2)
    if p % 3 != 1:
        return base + (None,) * 5
    t, s3 = p - 1, 0
    while t % 3 == 0:
        t //= 3
        s3 += 1
    g = 2
    while pow(g, (p - 1) // 3, p) == 1:  # g^t must have the 3-part's full order
        g += 1
    c = pow(g, t, p)
    return base + (s3, pow(3, -1, t), inverse(c, p), pow(c, 3 ** (s3 - 1), p), bin(pow(3, -1, p + 1))[2:])


def _cubic_roots(f: list[int], p: int, rng: random.Random) -> frozenset[int] | None:
    """The roots of the monic cubic f = x^3 + b2 x^2 + b1 x + b0 over F_p,
    p > 3, drawing from rng exactly as the general route would; None when f
    has a repeated root, or when p = 2 mod 3 and f has 0 or 3 roots.

    With s = b2/3 the cubic is t^3 + P t + Q in t = x + s.  Cardano writes a
    root as t = u + n/u with n = -P/3 and u^3 = w a root of
    z^2 + Q z + n^3, so w = -h +- sqrt(D) with h = Q/2 and D = h^2 - n^3,
    which is -disc/108.  For squarefree f, Stickelberger's theorem says f
    has exactly one root in F_p iff its discriminant is a non-square, and
    -3 is a square iff p = 1 mod 3, so the class of p mod 3 and whether D is
    a square name the case:

    - D a square, p = 2 mod 3: one root.  Cubing is a bijection of F_p^*,
      u = w^((2p-1)/3) is the one cube root, and the root is u + n/u - s;
    - D a square, p = 1 mod 3: three roots if w is a cube, else none.  The
      roots are u omega^i + n/(u omega^i) - s for a cube root u of w, found
      by ``_cube_root``; the three roots replay the general route's draws;
    - D a non-square, p = 1 mod 3: one root, read in F_p(sqrt(D)) from
      w = -h + sqrt(D).  mu = conj(w)/w has norm 1, and cubing is a
      bijection of the norm-one group (order p + 1, prime to 3), so
      lambda = mu^e, e = 1/3 mod p + 1, is conj(u)/u for every cube root u
      of w.  The cube root with norm n, which gives the root in F_p, is
      u = w lambda/n, and the root is u + conj(u) - s = 2 Re(u) - s;
    - D a non-square, p = 2 mod 3, or D = 0: None.
    """
    b0, b1, b2 = f[0], f[1], f[2]
    inv2, inv3, half, s3, k, c_inv, omega, e_bits = _cubic_constants(p)
    s = b2 * inv3 % p
    n = (s * s - b1 * inv3) % p
    h = (b0 - s * b1 + 2 * s * s * s) * inv2 % p
    disc = (h * h - n * n * n) % p
    if not disc:
        return None
    if p % 4 == 3:
        r = pow(disc, (p + 1) // 4, p)  # sqrt(D) if D is a square
        square = r * r % p == disc
    else:
        square = pow(disc, half, p) == 1
        r = _sqrt_mod(disc, p) if square else 0
    if square:
        w = (r - h) % p or (-h - r) % p
        if p % 3 == 2:
            u = pow(w, (2 * p - 1) // 3, p)
            return frozenset(((u + n * inverse(u, p) - s) % p,))
        u = _cube_root(w, p, s3, k, c_inv, omega)
        if u is None:
            return frozenset()
        roots = []
        for _ in range(3):
            roots.append((u + n * inverse(u, p) - s) % p)
            u = u * omega % p
        # the general route's draws: shifts until one splits the three roots
        while True:
            a = rng.randrange(p)
            if 0 < sum(pow(x + a, half, p) == 1 for x in roots) < 3:
                return frozenset(roots)
    if p % 3 == 2:
        return None
    if not h:
        return frozenset(((-s) % p,))  # Q = 0: the root is t = 0
    # mu = conj(w)^2 / N(w), N(w) = h^2 - D = n^3, has trace
    # V_1 = 2 (h^2 + D)/n^3 and norm 1, so the traces V_j of mu^j obey
    # V_2j = V_j^2 - 2 and V_2j+1 = V_j V_j+1 - V_1, and a Lucas ladder over
    # the bits of e gives V_e = Tr(lambda) and V_e+1 = Tr(lambda mu).
    # Writing w = alpha + beta mu (beta = 1/mu_1 = n^3/2h) turns
    # Tr(u) = Tr(w lambda)/n into (n^3 V_e+1 - (3h^2 + D) V_e) / 2hn.
    trace = 2 * (h * h + disc) * inverse(n * n * n, p) % p
    v, v1 = 2, trace
    for bit in e_bits:
        if bit == "1":
            v, v1 = (v * v1 - trace) % p, (v1 * v1 - 2) % p
        else:
            v, v1 = (v * v - 2) % p, (v * v1 - trace) % p
    tr_u = (n * n * n * v1 - (3 * h * h + disc) * v) * inverse(2 * h * n, p)
    return frozenset(((tr_u - s) % p,))


def _cube_root(w: int, p: int, s3: int, k: int, c_inv: int, omega: int) -> int | None:
    """A cube root of w in F_p^*, p = 1 mod 3, or None if w is not a cube,
    by the Adleman-Manders-Miller method.  With p - 1 = 3^s3 t and
    3k = 1 mod t, x = w^k has x^3 = w b for b = w^(3k-1) in the 3-Sylow
    subgroup, which c generates.  Pohlig-Hellman reads b = c^L one base-3
    digit at a time, each digit's power of omega being what is left of b
    raised to a power of 3: s3 small powers, with no search of the subgroup.
    The lowest digit's power, b^(3^(s3-1)) = omega^L, is w^((p-1)/3) raised
    to (3k - 1)/t, which is 1, 2 or -1, so w is a cube exactly when that
    digit is 0, and then x c^(-L/3) is a cube root of w."""
    x = pow(w, k, p)
    b = x * x % p * x % p * inverse(w, p) % p
    digits = 0
    for i in range(s3):
        part = pow(b * pow(c_inv, digits, p) % p, 3 ** (s3 - 1 - i), p)
        if part != 1:
            if not i:
                return None
            digits += 3**i if part == omega else 2 * 3**i
    return x * pow(c_inv, digits // 3, p) % p


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder, both trimmed, of a by the trimmed nonzero m:
    a = q m + r with deg r < deg m."""
    r = a[:]
    q = [0] * max(len(a) - len(m) + 1, 0)
    inv_lead = inverse(m[-1], p)
    while len(r) >= len(m):
        factor = r[-1] * inv_lead % p
        if factor:
            shift = len(r) - len(m)
            q[shift] = factor
            for i, c in enumerate(m):
                r[shift + i] = (r[shift + i] - factor * c) % p
        r.pop()
    return _poly_trim(q), _poly_trim(r)


def _poly_monic(m: list[int], p: int) -> list[int]:
    """m scaled by the inverse of its leading coefficient."""
    inv = inverse(m[-1], p)
    return [c * inv % p for c in m]


def _linear_power_mod(a: int, e: int, m: list[int], p: int) -> list[int]:
    """(x + a)^e mod the monic m of degree d >= 1, most significant bit of e
    first: a square at every bit, and at a set bit one multiplication by
    x + a, which is a shift plus a single reduction step.  The working power
    is kept as d coefficients, zeros included."""
    d = len(m) - 1
    neg = [p - c for c in m[:d]]  # x^d = sum neg[i] x^i mod m
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * d - 1)
        for i, x in enumerate(r):
            if x:
                sq[2 * i] += x * x
                x2 = 2 * x
                for j in range(i + 1, d):
                    sq[i + j] += x2 * r[j]
        for k in range(2 * d - 2, d - 1, -1):
            top = sq[k] % p
            if top:
                shift = k - d
                for i, c in enumerate(neg):
                    sq[shift + i] += top * c
        if bit == "1":
            # (x + a) r = x r + a r: a shift, then one reduction step
            top = sq[d - 1] % p
            sq = [top * c + a * x + prev for c, x, prev in zip(neg, sq, [0] + sq[: d - 1])]
        r = [c % p for c in sq[:d]]
    return _poly_trim(r)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p) if a else a


def _split_linear(g: list[int], p: int, rng: random.Random, out: set[int]) -> None:
    """g is monic and splits into distinct linear factors; collect its roots."""
    deg = len(g) - 1
    if deg <= 0:
        return
    if deg == 1:
        out.add((-g[0]) % p)
        return
    if deg == 2:
        # roots of x^2 + bx + c via the quadratic formula, p odd
        b, c = g[1], g[0]
        disc = (b * b - 4 * c) % p
        r = _sqrt_mod(disc, p)
        inv2 = inverse(2, p)
        out.add(((-b + r) * inv2) % p)
        out.add(((-b - r) * inv2) % p)
        return
    half = (p - 1) // 2
    while True:
        a = rng.randrange(p)
        probe = _linear_power_mod(a, half, g, p)
        if probe:
            probe[0] = (probe[0] - 1) % p
        else:
            probe = [(p - 1) % p]
        h = _poly_gcd(_poly_trim(probe), g, p)
        if 0 < len(h) - 1 < deg:
            _split_linear(h, p, rng, out)
            _split_linear(_poly_divmod(g, h, p)[0], p, rng, out)
            return


@lru_cache(maxsize=None)
def _sqrt_constants(p: int) -> tuple[int, int, int]:
    """Tonelli-Shanks constants of F_p for a prime p = 1 mod 4: s and q with
    p - 1 = 2^s q and q odd, and z^q for the least quadratic non-residue z."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return s, q, pow(z, q, p)


def _sqrt_mod(n: int, p: int) -> int:
    """Tonelli-Shanks; callers guarantee n is a quadratic residue.  At
    p = 1 mod 4 the non-residue's power is read from ``_sqrt_constants``."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    m, q, c = _sqrt_constants(p)
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
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
