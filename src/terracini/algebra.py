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
nonzero output is a sparse row of (monomial index, coefficient) pairs read
straight off the terms, and an identically zero output has no row and costs
nothing.  One routine, ``_evaluate``, reads any order at a point: each
monomial once, then a short dot product mod p per output.  Each order is
compiled on first read, so first-order work (tangent frames, and so every
secant dimension) never builds Hessian rows, and a kernel that only
evaluates builds neither.

A ``MultiPoly`` is a validated map from exponent tuples to coefficients,
with no ring arithmetic: it reduces, evaluates and reports its degree.  The
one expansion the package needs, of a cone section's constraints along the
rulings, runs on plain dicts in ``varieties._ruling_forms``.

Univariate polynomials are coefficient lists, lowest degree first.  One
long division, ``_poly_divmod``, serves the gcd and the exact quotients of
the root finder, ``uni_roots_mod_p``, which takes the list that
``restrict_univariate`` returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
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

# Witness set is deterministic for every n < 3.3 * 10^24, far above any
# modulus this package accepts.  The same primes are the trial divisors.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MIN_MODULUS = 257

# Matrices with at least this many cells reduce as one int64 array; below it
# numpy's per-call overhead loses to plain int lists.
WIDE_CELLS = 1024
# With entries in [0, p), p < 2^31, every a - f*b lies within +-2^62.
_INT64_MODULUS_BOUND = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the modulus range used here."""
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

    The modulus must be a verified prime of at least 257; small
    characteristics would collide with the degrees (up to 6) handled by the
    geometry layers.  The field object itself carries no elements: it rides
    on the containers (``Matrix``, ``MultiPoly``) so that mixing two fields
    raises, and it is the entry point for outside data via ``scalar``.
    """

    modulus: int

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or self.modulus < _MIN_MODULUS:
            raise ConstructionError(
                f"modulus must be an int >= {_MIN_MODULUS}, got {self.modulus!r}"
            )
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


def restrict_univariate(f: MultiPoly, args: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients, lowest degree first and trimmed (the zero polynomial is
    ``[]``), of f with the univariate polynomial ``args[i]`` substituted for
    variable i.  Arguments are coefficient lists; a line ``a + s b`` is the
    argument list ``[a_i, b_i]``.

    The expansion runs on plain int lists: the powers of each argument are
    built once, and each term is one product of cached powers.
    """
    if len(args) != f.nvars:
        raise ConstructionError("restriction arity mismatch")
    p = f.field.modulus
    powers = []
    for arg, top in zip(args, max_exponents(f.nvars, (f,))):
        row = [[1]]
        for _ in range(top):
            row.append(_poly_mul(row[-1], arg, p))
        powers.append(row)
    acc: list[int] = []
    for expo, coef in f.terms.items():
        term = [coef]
        for row, e in zip(powers, expo):
            if e:
                term = _poly_mul(term, row[e], p)
        if len(term) > len(acc):
            acc += [0] * (len(term) - len(acc))
        for k, c in enumerate(term):
            acc[k] += c
    return _poly_trim([c % p for c in acc])


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

    Each order is one table, ``_derivative_rows``' (monomials, rows),
    compiled on first read, so a kernel builds only the orders its callers
    read.  ``powers`` gives a point's power table, and ``_evaluate`` reads
    every order from it: derivatives never raise an exponent, so the
    polynomials' power table covers every monomial of every order.
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
    """(monomials, rows) of every nonzero partial derivative of the given
    order of each polys[k]: row (..(k*n + i_1)*n + ..)*n + i_order holds
    d/dx_i_1 .. d/dx_i_order of polys[k].

    A monomial is its support, ((variable, exponent), ...) in variable
    order, and its index is its first position in the list; a row is
    (output position, [(monomial index, coefficient), ...]), read straight
    off the terms, and an identically zero output has no row.  Every
    ordering of the variables is listed, so mixed partials that agree are
    read from identical rows.
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
    index: dict[tuple[tuple[int, int], ...], int] = {}
    rows: dict[int, list[tuple[int, int]]] = {}
    for pos, mono, c in partials:
        if c:
            rows.setdefault(pos, []).append((index.setdefault(mono, len(index)), c))
    return tuple(index), tuple(rows.items())


def _lower(mono: tuple[tuple[int, int], ...], a: int) -> tuple[tuple[int, int], ...]:
    """The monomial with the exponent of its a-th support variable lowered by one."""
    i, e = mono[a]
    return mono[:a] + ((i, e - 1),) + mono[a + 1:] if e > 1 else mono[:a] + mono[a + 1:]


def _evaluate(table: tuple[tuple, tuple], powers: Sequence[Sequence[int]], size: int, p: int) -> list[int]:
    """``size`` outputs of a (monomials, rows) table at a point, from its
    power table: each monomial's value once, then each row's dot product
    with those values mod p, and 0 where there is no row."""
    monomials, rows = table
    values = []
    for support in monomials:
        v = 1
        for i, e in support:
            v = v * powers[i][e] % p
        values.append(v)
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

    Splits off the product of linear factors with gcd(f, x^p - x), then
    isolates single roots by randomized equal-degree splitting (Cantor and
    Zassenhaus): gcd((x + a)^((p-1)/2) - 1, g) for random shifts a.  Both
    powers are taken modulo a polynomial made monic once, from the most
    significant bit of the exponent down: a square at every bit, and at a
    set bit one multiplication by x + a, which is a shift plus a single
    reduction step.  The random shifts only steer the recursion; the
    returned set is a deterministic function of the polynomial.

    Most calls come from a cubic section restricted to a random line, so
    the modulus is most often a cubic, and these powers, about log2(p)
    squarings each, are most of the sampling time.  A cubic modulus gets
    its own power routine, which keeps the working power in three locals
    instead of building lists at every bit; it returns the same lists, so
    the random draws do not depend on which routine ran.
    """
    coeffs = _poly_trim([c % p for c in coeffs])
    if not coeffs:
        raise ConstructionError("zero polynomial has every root")
    if len(coeffs) == 1:
        return frozenset()
    if rng is None:
        rng = random.Random(0xC0FFEE)
    # product of distinct linear factors: gcd(f, x^p - x)
    coeffs = _poly_monic(coeffs, p)
    xp_minus_x = _linear_power_mod(0, p, coeffs, p)
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _poly_gcd(coeffs, _poly_trim(xp_minus_x), p)
    out: set[int] = set()
    _split_linear(g, p, rng, out)
    return frozenset(out)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of two coefficient lists, reduced into [0, p)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


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
    first.  The working power is kept as d coefficients, zeros included.
    A cubic m, the modulus of every witness a cubic section draws, goes to
    ``_linear_power_mod_cubic``; the result is the same list either way."""
    d = len(m) - 1
    if d == 3:
        return _linear_power_mod_cubic(a, e, m, p)
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


def _linear_power_mod_cubic(a: int, e: int, m: list[int], p: int) -> list[int]:
    """``_linear_power_mod`` for a monic cubic m, with the working power
    r0 + r1 x + r2 x^2 in three locals.  A square has terms up to x^4,
    folded back through x^3 = n0 + n1 x + n2 x^2 and
    x^4 = f0 + f1 x + f2 x^2 mod m, both fixed by m."""
    n0, n1, n2 = (-m[0]) % p, (-m[1]) % p, (-m[2]) % p
    f0, f1, f2 = n2 * n0 % p, (n0 + n2 * n1) % p, (n1 + n2 * n2) % p
    r0, r1, r2 = 1, 0, 0
    for bit in bin(e)[2:]:
        s3 = 2 * r1 * r2 % p
        s4 = r2 * r2 % p
        r0, r1, r2 = (
            (r0 * r0 + s3 * n0 + s4 * f0) % p,
            (2 * r0 * r1 + s3 * n1 + s4 * f1) % p,
            (r1 * r1 + 2 * r0 * r2 + s3 * n2 + s4 * f2) % p,
        )
        if bit == "1":
            # (x + a) r = x r + a r, with r2 x^3 folded back
            r0, r1, r2 = (a * r0 + r2 * n0) % p, (r0 + a * r1 + r2 * n1) % p, (r1 + a * r2 + r2 * n2) % p
    return _poly_trim([r0, r1, r2])


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


def _sqrt_mod(n: int, p: int) -> int:
    """Tonelli-Shanks; callers guarantee n is a quadratic residue."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # general case
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
