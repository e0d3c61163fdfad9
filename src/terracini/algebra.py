"""Exact arithmetic substrate: prime fields, matrices, sparse polynomials, 2-jets.

Everything in this module is exact.  A field element is a plain Python int
in ``[0, p)`` everywhere in the package: in matrix entries, polynomial
coefficients, jets, witnesses and root sets.  The modulus travels with the
containers that hold a ``FieldSpec`` (``Matrix``, ``MultiPoly``); helpers on
bare vectors (``dot``, ``normalize_point``, ``power_table``) take ``p``.
Every operation reduces its result into ``[0, p)``, and no floating point
appears anywhere.

Matrices are dense row-major and small (ambient dimensions stay below ~125),
but elimination is not cheap: with tangent frames built from first-order jets,
the rank of the stacked frames is the costliest step of a secant-dimension
computation on wide matrices (120 x 225 for the quadratic Veronese of P^14 at
k = 14).

Every rank, kernel, solve and inverse goes through one Gauss-Jordan routine,
``_gauss_jordan``.  It reduces a matrix of at least ``WIDE_CELLS`` cells as
one exact ``int64`` numpy array when p < 2^31, and every other matrix on
plain int rows; both paths hand back the same int rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ConstructionError

__all__ = [
    "FieldSpec",
    "Matrix",
    "MultiPoly",
    "Jet2",
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
# modulus this package accepts.
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
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """Inverse of a mod p by Fermat; zero has none."""
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, p - 2, p)


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

    __slots__ = ("field", "entries", "_rank")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence[int]]) -> None:
        rows = tuple(tuple(row) for row in entries)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ConstructionError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        return cls(field, [[field.scalar(x) for x in row] for row in rows])

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence[int]]) -> "Matrix":
        if not cols:
            return cls(field, [])
        if any(len(col) != len(cols[0]) for col in cols):
            raise ConstructionError("ragged columns")
        return cls(field, list(zip(*cols)))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

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
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.columns())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

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
        """Exact rank: the pivot count of the reduced form."""
        if self._rank is None:
            rows = [list(row) for row in self.entries]
            object.__setattr__(self, "_rank", len(_gauss_jordan(rows, self.field.modulus)))
        return self._rank

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


def _gauss_jordan(rows: list[list[int]], p: int) -> list[int]:
    """Reduce int rows with entries in [0, p) to reduced row echelon form mod
    p, in place, and return the pivot columns.

    Columns are scanned left to right and each pivot is the first nonzero
    entry at or below the current row; the scan stops once every row holds a
    pivot.  This is the package's only row reduction: ranks, kernels, affine
    solves and inverses all read their answer off its result.

    A matrix of at least ``WIDE_CELLS`` cells reduces as one ``int64`` array
    when p < 2^31, where every ``a - f*b`` of entries in [0, p) lies within
    +-2^62 and so stays exact.  Smaller matrices, where numpy's per-call
    overhead dominates, and larger moduli, where ``int64`` would overflow,
    reduce on int lists.  The reduced row echelon form of a matrix is
    unique, so both paths return the same rows (as Python ints in [0, p))
    and the same pivots.
    """
    if rows and len(rows) * len(rows[0]) >= WIDE_CELLS and p < _INT64_MODULUS_BOUND:
        return _gauss_jordan_int64(rows, p)
    return _gauss_jordan_lists(rows, p)


def _gauss_jordan_lists(rows: list[list[int]], p: int) -> list[int]:
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
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _gauss_jordan_int64(rows: list[list[int]], p: int) -> list[int]:
    """``_gauss_jordan`` on one ``int64`` array, for p < 2^31.

    Each pivot is one rank-one update of the block from its column on: every
    other row loses its entry in that column times the pivot row, so rows
    already zero there stay as they are.  Left of the pivot column the pivot
    row is already zero.  The product goes to one scratch array per call, and
    the rows are written back one at a time as int lists; both keep the peak
    memory of a 120 x 225 reduction near the list path's.
    """
    # numpy arrives with the package through fiber.py; importing it here,
    # not ahead of the rest of the package, keeps the process's resident
    # memory where it was (importing it first added about 1.5 MB).
    import numpy as np

    a = np.array(rows, dtype=np.int64)
    step = np.empty_like(a)
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
        factors = a[:, c].copy()
        factors[r] = 0
        block, product = a[:, c:], step[:, c:]
        np.multiply.outer(factors, prow, out=product)
        block -= product
        block %= p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    del step
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


def _affine_solve(field: FieldSpec, rows, rhs, nvars: int):
    """Solve A x = rhs exactly.  Returns (particular, kernel basis) or None.

    Both come from one reduction of [A | rhs]: its first nvars columns are
    the reduced form of A.  With no equations the whole space comes back
    (particular 0, full basis).
    """
    if not rows:
        basis = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
        return [0] * nvars, basis
    rref, pivots = Matrix(field, [list(r) + [b] for r, b in zip(rows, rhs)]).rref()
    if nvars in pivots:
        return None  # inconsistent
    particular = [0] * nvars
    for r, c in enumerate(pivots):
        particular[c] = rref[r][nvars]
    return particular, _kernel_basis(field.modulus, rref, pivots, nvars)


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
    """Sparse multivariate polynomial over one FieldSpec.

    Terms map exponent tuples to nonzero coefficients in ``[0, p)``; the
    constructor reduces every coefficient and drops zeros, so structural
    equality is semantic equality.  Printing and serialization iterate terms
    in graded-lex order for determinism.
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
    def zero(cls, field: FieldSpec, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: FieldSpec, nvars: int, value) -> "MultiPoly":
        return cls(field, nvars, {(0,) * nvars: field.scalar(value)})

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, index: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(field, nvars, {tuple(expo): 1})

    @classmethod
    def monomial(cls, field: FieldSpec, expo: Sequence[int], coef=1) -> "MultiPoly":
        return cls(field, len(expo), {tuple(expo): field.scalar(coef)})

    @classmethod
    def univariate(cls, field: FieldSpec, coeffs: Sequence[int]) -> "MultiPoly":
        """The one-variable polynomial sum_e coeffs[e] x^e."""
        return cls(field, 1, {(e,): c for e, c in enumerate(coeffs)})

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

    def support(self) -> frozenset[int]:
        """Variable indices that actually occur."""
        used = set()
        for expo in self.terms:
            for i, e in enumerate(expo):
                if e:
                    used.add(i)
        return frozenset(used)

    # -- ring operations --------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.field != other.field:
            raise FieldMismatchError("mixed fields")
        if self.nvars != other.nvars:
            raise ConstructionError("mixed variable counts")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.field, self.nvars, other)
        self._check(other)
        acc = dict(self.terms)
        for expo, coef in other.terms.items():
            acc[expo] = acc.get(expo, 0) + coef
        return MultiPoly(self.field, self.nvars, acc)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.field, self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            s = self.field.scalar(other)
            return MultiPoly(self.field, self.nvars, {e: c * s for e, c in self.terms.items()})
        self._check(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc[expo] = acc.get(expo, 0) + c1 * c2
        return MultiPoly(self.field, self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ConstructionError("negative power")
        out = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(sorted(self.terms.items(), key=lambda t: _grlex_key(t[0])))))

    # -- calculus ---------------------------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        acc: dict[tuple[int, ...], int] = {}
        for expo, coef in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            reduced = list(expo)
            reduced[index] = e - 1
            key = tuple(reduced)
            acc[key] = acc.get(key, 0) + coef * e
        return MultiPoly(self.field, self.nvars, acc)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise ConstructionError("point arity mismatch")
        p = self.field.modulus
        return self.evaluate_at(power_table(point, max_exponents(self.nvars, (self,)), p))

    def evaluate_at(self, powers: Sequence[Sequence[int]]) -> int:
        """Value from a power table of the point that covers every exponent
        here (see ``power_table``); one table can serve many polynomials."""
        p = self.field.modulus
        acc = 0
        for expo, coef in self.terms.items():
            term = coef
            for i, e in enumerate(expo):
                if e:
                    term = term * powers[i][e] % p
            acc += term
        return acc % p

    def compose(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute args[i] for variable i.  All args share one arity."""
        if len(args) != self.nvars:
            raise ConstructionError("compose arity mismatch")
        if not args:
            raise ConstructionError("compose needs at least one variable")
        target_nvars = args[0].nvars
        for g in args:
            if g.nvars != target_nvars or g.field != self.field:
                raise ConstructionError("compose arguments disagree")
        # powers[i][e] = args[i]**e, grown on demand
        powers = [[MultiPoly.constant(self.field, target_nvars, 1)] for _ in args]
        acc: dict[tuple[int, ...], int] = {}
        for expo, coef in self.terms.items():
            term = MultiPoly.constant(self.field, target_nvars, coef)
            for i, e in enumerate(expo):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(row[-1] * args[i])
                    term = term * row[e]
            for e2, c in term.terms.items():
                acc[e2] = acc.get(e2, 0) + c
        return MultiPoly(self.field, target_nvars, acc)

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

    This is ``compose`` for one-variable arguments, on plain int lists: the
    powers of each argument are built once, and each term is one product of
    cached powers.
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


def jet2_eval(f: MultiPoly, point: Sequence[int]) -> Jet2:
    """Exact 2-jet of f at point by term-wise exponent bookkeeping.

    The Hessian of any polynomial of total degree <= 1 comes out identically
    zero, and mixed partials land in both (i, j) and (j, i) slots so the
    result is exactly symmetric by construction.
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


# ---------------------------------------------------------------------------
# univariate roots over F_p
# ---------------------------------------------------------------------------


def uni_roots_mod_p(f: MultiPoly, field: FieldSpec, rng: random.Random | None = None) -> frozenset[int]:
    """All roots in F_p of a nonzero univariate polynomial.

    Splits off the product of linear factors with gcd(f, x^p - x), then
    isolates single roots by randomized equal-degree splitting (Cantor and
    Zassenhaus): gcd((x + a)^((p-1)/2) - 1, g) for random shifts a.  Both
    powers are taken modulo a polynomial made monic once, from the most
    significant bit of the exponent down: a square at every bit, and at a
    set bit one multiplication by x + a, which is a shift plus a single
    reduction step.  The random shifts only steer the recursion; the
    returned set is a deterministic function of f.
    """
    if f.field != field:
        raise FieldMismatchError("polynomial field differs")
    if f.nvars != 1:
        raise ConstructionError("univariate polynomial required")
    if f.is_zero():
        raise ConstructionError("zero polynomial has every root")
    if rng is None:
        rng = random.Random(0xC0FFEE)
    coeffs = [0] * (f.total_degree() + 1)
    for expo, coef in f.terms.items():
        coeffs[expo[0]] = coef
    return frozenset(_roots_int(coeffs, field.modulus, rng))


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


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
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


def _poly_monic(m: list[int], p: int) -> list[int]:
    """m scaled by the inverse of its leading coefficient."""
    inv = pow(m[-1], p - 2, p)
    return [c * inv % p for c in m]


def _linear_power_mod(a: int, e: int, m: list[int], p: int) -> list[int]:
    """(x + a)^e mod the monic m of degree d >= 1, most significant bit of e
    first.  The working power is kept as d coefficients, zeros included."""
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
        a, b = b, _poly_mod(a, b, p)
    return _poly_monic(a, p) if a else a


def _roots_int(coeffs: list[int], p: int, rng: random.Random) -> set[int]:
    coeffs = _poly_trim([c % p for c in coeffs])
    if not coeffs:
        raise ConstructionError("zero polynomial")
    if len(coeffs) == 1:
        return set()
    # product of distinct linear factors: gcd(f, x^p - x)
    coeffs = _poly_monic(coeffs, p)
    xp_minus_x = _linear_power_mod(0, p, coeffs, p)
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _poly_gcd(coeffs, _poly_trim(xp_minus_x), p)
    out: set[int] = set()
    _split_linear(g, p, rng, out)
    return out


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
        inv2 = pow(2, p - 2, p)
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
            _split_linear(_poly_divide_exact(g, h, p), p, rng, out)
            return


def _poly_divide_exact(a: list[int], b: list[int], p: int) -> list[int]:
    """Quotient a / b when the division is exact (b monic divides a)."""
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        factor = a[-1] * inv_lead % p
        out[len(a) - len(b)] = factor
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(out)


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
