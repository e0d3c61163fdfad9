"""Exact arithmetic layer: fields, matrices, polynomials, jets, roots."""

import ast
import functools
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import terracini.algebra as algebra
from terracini.algebra import (
    WIDE_CELLS,
    FieldSpec,
    Jet2,
    LinearSystem,
    Matrix,
    MultiPoly,
    PolyJets,
    _cube_root,
    _cubic_constants,
    _gauss_jordan,
    _gauss_jordan_int64,
    _gauss_jordan_lists,
    _linear_power_mod,
    _poly_divmod,
    _poly_monic,
    dot,
    exact_rank,
    inverse,
    jet2_eval,
    normalize_point,
    restrict_univariate,
    subspace_intersect,
    uni_roots_mod_p,
)
from terracini.errors import ConstructionError, FieldMismatchError
from terracini.varieties import veronese

from oracles import (
    affine_solve_reference,
    jet2_by_term_bookkeeping,
    jet_by_symbolic_diff,
    poly_mod,
    poly_mul,
    poly_powmod,
    rank_by_minors,
    rank_by_reverse_echelon,
    random_fraction_matrix,
    restriction_by_list_products,
    roots_by_scan,
    roots_reference,
    sqrt_reference,
)

F1009 = FieldSpec.prime(1009)
F2003 = FieldSpec.prime(2003)


# -- field spec -------------------------------------------------------------


def test_field_spec_rejects_small_or_composite_modulus():
    with pytest.raises(ConstructionError):
        FieldSpec.prime(251)  # prime but below the floor
    with pytest.raises(ConstructionError):
        FieldSpec.prime(1000)
    with pytest.raises(ConstructionError):
        FieldSpec(modulus=None)
    assert FieldSpec.prime(257).modulus == 257


def test_field_spec_refuses_moduli_past_the_proven_range():
    """Miller-Rabin on the bases up to 37 proves primality only below
    psi_12, which it takes for a prime; every modulus of 2^64 or more is
    refused before the test runs."""
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 and algebra.is_prime(psi_12)
    for modulus in (psi_12, 3317044064679887385961981, 2**64):
        with pytest.raises(ConstructionError, match="2\\^64"):
            FieldSpec.prime(modulus)
    assert FieldSpec.prime(2**61 - 1).modulus == 2**61 - 1
    assert FieldSpec.prime(2**64 - 59).modulus == 2**64 - 59  # the largest prime below 2^64


def test_scalar_arithmetic_and_fermat_inverse():
    # outside ints enter reduced into [0, p); nothing else enters
    assert F1009.scalar(-1) == 1008
    assert F1009.scalar(5 * 1009 + 3) == 3
    for bad in (1.5, "3", None):
        with pytest.raises(ConstructionError):
            F1009.scalar(bad)
    a, b = F1009.scalar(123), F1009.scalar(456)
    assert a * inverse(b, 1009) % 1009 * b % 1009 == a
    assert inverse(2, 1009) * 2 % 1009 == 1
    for zero in (0, 1009):
        with pytest.raises(ZeroDivisionError):
            inverse(zero, 1009)


_INVERSE_PRIMES = (257, 1009, 2003, 65537, 2**31 - 19, 2**31 - 1, 2**61 - 1)


@given(st.sampled_from(_INVERSE_PRIMES), st.integers(-(2**70), 2**70))
@settings(max_examples=200, deadline=None)
def test_inverse_matches_fermat_at_any_prime(p, a):
    """The list elimination takes any prime, so ``inverse`` is checked well
    past the int64 range against Fermat's a^(p-2); a multiple of p, of
    either sign, has no inverse."""
    if a % p:
        assert inverse(a, p) == pow(a, p - 2, p)
    for zero in (a * p, -p, 0):
        with pytest.raises(ZeroDivisionError):
            inverse(zero, p)


def test_no_fermat_inverse_in_the_package():
    """Every field inverse goes through ``inverse``: no ``pow(x, p - 2, p)``
    is left in the package.  ``tests/oracles.py`` keeps its own, as the
    independent reference."""
    package = Path(algebra.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow" and len(node.args) == 3:
                _, e, m = node.args
                fermat = (
                    isinstance(e, ast.BinOp)
                    and isinstance(e.op, ast.Sub)
                    and ast.dump(e.left) == ast.dump(m)
                    and getattr(e.right, "value", None) == 2
                )
                assert not fermat, f"{path.name}:{node.lineno} inverts by Fermat"


def test_scalar_field_mismatch_raises():
    # elements are bare ints, so the containers carry the field check
    a, b = Matrix(F1009, [[1, 0], [0, 1]]), Matrix(F2003, [[1, 0], [0, 1]])
    with pytest.raises(FieldMismatchError):
        Matrix.hstack([a, b])
    with pytest.raises(FieldMismatchError):
        a.matmul(b)
    with pytest.raises(FieldMismatchError):
        subspace_intersect(a, b)


# -- matrices ---------------------------------------------------------------


def _reduce_mod_1009(rows):
    """Integer or Fraction entries reduced into [0, 1009)."""
    return [[x.numerator * pow(x.denominator, -1, 1009) % 1009 for x in row] for row in rows]


def test_rank_matches_minor_expansion_oracle_mod_p():
    # pinned random 5x7 rational instance, full-rank and low-rank variants,
    # reduced mod p; the Fraction minor oracle gives the rank over Q
    rng = random.Random(1201)
    raw = random_fraction_matrix(rng, 5, 7)
    reduced = _reduce_mod_1009(raw)
    assert exact_rank(Matrix(F1009, reduced)) == rank_by_minors(reduced, 1009) == rank_by_minors(raw)

    raw_low = random_fraction_matrix(rng, 5, 7, rank_target=3)
    reduced_low = _reduce_mod_1009(raw_low)
    assert rank_by_minors(raw_low) == rank_by_minors(reduced_low, 1009) == 3
    assert exact_rank(Matrix(F1009, reduced_low)) == 3

    # rank 2 over Q but 1 over F_1009: the 2x2 minor is 1009 itself
    rows = [[1, 2], [3, 6 + 1009]]
    assert rank_by_minors([[Fraction(x) for x in row] for row in rows]) == 2
    assert rank_by_minors(rows, 1009) == exact_rank(Matrix(F1009, _reduce_mod_1009(rows))) == 1


def test_rank_matches_independent_echelon_over_prime_field():
    rng = random.Random(77)
    raw = [[rng.randrange(1009) for _ in range(7)] for _ in range(5)]
    m = Matrix(F1009, raw)
    assert exact_rank(m) == rank_by_reverse_echelon(raw, 1009)
    assert exact_rank(m) == rank_by_minors(raw, 1009)


def test_rank_trivial_cases():
    assert exact_rank(Matrix(F1009, [[int(i == j) for j in range(4)] for i in range(4)])) == 4
    assert exact_rank(Matrix(F1009, [[0] * 5] * 3)) == 0
    assert exact_rank(Matrix(F2003, [[0, 0], [0, 0]])) == 0
    assert exact_rank(Matrix(F1009, [])) == 0
    assert exact_rank(Matrix(F1009, [[], []])) == 0


def test_empty_products_are_zero():
    assert dot((), (), 1009) == 0
    assert Matrix(F1009, [[], []]).matvec([]) == (0, 0)
    with pytest.raises(ConstructionError):
        dot((1,), (), 1009)


def test_rank_transpose_and_permutation_invariance():
    rng = random.Random(5)
    for _ in range(20):
        raw = [[rng.randrange(-4, 5) for _ in range(6)] for _ in range(4)]
        m = Matrix(F1009, _reduce_mod_1009(raw))
        assert exact_rank(m) == exact_rank(m.transpose())
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert exact_rank(Matrix(F1009, _reduce_mod_1009(shuffled))) == exact_rank(m)


@given(
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_minor_oracle_mod_p(rows):
    m = Matrix(F1009, _reduce_mod_1009(rows))
    assert exact_rank(m) == rank_by_minors(rows, 1009)


def test_null_space_is_exact_kernel():
    rng = random.Random(9)
    raw = [[rng.randrange(1009) for _ in range(8)] for _ in range(3)]
    m = Matrix(F1009, raw)
    ker = m.null_space()
    assert ker.cols == 8 - exact_rank(m)
    for j in range(ker.cols):
        image = m.matvec(ker.column(j))
        assert not any(image)


@st.composite
def _int_matrices(draw, max_rows=6, max_cols=8):
    """Integer rows mod 1009 of any shape up to max_rows x max_cols, as a
    product L R through a drawn inner size, so zero, tall, wide and
    rank-deficient matrices all come up."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols)) if nrows else 0
    inner = draw(st.integers(0, min(nrows, ncols)))
    entry = st.integers(0, 1008)
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=inner, max_size=inner))
    return [[sum(left[i][k] * right[k][j] for k in range(inner)) % 1009 for j in range(ncols)] for i in range(nrows)]


def _apply(raw, vec):
    return [sum(a * x for a, x in zip(row, vec)) % 1009 for row in raw]


@given(_int_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_kernel_against_independent_references(raw, data):
    m = Matrix(F1009, raw)
    ncols = m.cols
    rank = exact_rank(m)
    assert rank == rank_by_reverse_echelon(raw, 1009)

    ker = m.null_space()
    assert ker.cols == ncols - rank
    for j in range(ker.cols):
        assert not any(_apply(raw, ker.column(j)))

    # consistent right-hand sides are images A x0; a drawn one may not be
    if data.draw(st.booleans()):
        x0 = [F1009.scalar(v) for v in data.draw(st.lists(st.integers(0, 1008), min_size=ncols, max_size=ncols))]
        rhs = _apply(raw, x0)
    else:
        rhs = data.draw(st.lists(st.integers(0, 1008), min_size=m.rows, max_size=m.rows))
    system = LinearSystem(raw, ncols, 1009)
    assert system.rank == rank
    particular = system.solve(rhs)
    if rank_by_reverse_echelon([row + [b] for row, b in zip(raw, rhs)], 1009) > rank:
        assert particular is None
    else:
        assert _apply(raw, particular) == rhs
    assert len(system.basis) == ncols - rank
    assert rank_by_reverse_echelon([list(v) for v in system.basis], 1009) == len(system.basis)
    for v in system.basis:
        assert not any(_apply(raw, v))

    # the cokernel: independent rows w with w A = 0, one per rank deficit of
    # the rows, and a rhs is solvable exactly when every w rhs is zero
    columns = [list(col) for col in zip(*raw)]
    assert len(system.cokernel) == m.rows - rank
    assert rank_by_reverse_echelon([list(w) for w in system.cokernel], 1009) == len(system.cokernel)
    for w in system.cokernel:
        assert not any(_apply(columns, w))
    assert (particular is None) == any(_apply(system.cokernel, rhs))

    # the once-reduced system against a fresh reduction of [A | rhs] per
    # right-hand side, on every leading block of columns
    for width in range(ncols + 1):
        b_rows = [row[:width] for row in raw]
        system = LinearSystem(b_rows, width, 1009)
        part = system.solve(rhs)
        expected = affine_solve_reference(b_rows, rhs, width, 1009)
        assert (part is None) == (expected is None)
        if expected is not None:
            assert (part, system.basis) == expected


def test_only_algebra_touches_the_elimination_kernel():
    """Every other module reads ranks, kernels and solves off ``Matrix`` and
    ``LinearSystem``, never off the reduction itself."""
    internals = {"_gauss_jordan", "_gauss_jordan_lists", "_gauss_jordan_int64", "_kernel_basis"}
    package = Path(algebra.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not names & internals, f"{path.name} uses {sorted(names & internals)}"


# -- the wide int64 elimination path ------------------------------------------


def _planted_rank_rows(rng, p: int, nrows: int, ncols: int, rank: int) -> list[list[int]]:
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(left[i][t] * right[t][j] for t in range(rank)) % p for j in range(ncols)] for i in range(nrows)]


def _check_reduced_form(raw, rref, pivots, p):
    """rref is a reduced row echelon form of raw, read off independently of
    any elimination: its pivot columns are unit vectors, each row is zero
    left of its pivot, rows past the rank are zero, and every row of raw is
    the combination of the rows of rref with its entries at the pivots."""
    assert all(type(x) is int and 0 <= x < p for row in rref for x in row)
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert not any(rref[r][:c])
        assert [row[c] for row in rref] == [int(i == r) for i in range(len(rref))]
    assert not any(any(row) for row in rref[len(pivots) :])
    for row in raw:
        combo = [sum(row[c] * rref[r][j] for r, c in enumerate(pivots)) % p for j in range(len(row))]
        assert combo == row


def _sparse_rows(rng, p: int, nrows: int, ncols: int, density: float) -> list[list[int]]:
    """Rows with about ``density`` of their entries nonzero, some of them
    p - 1, and a few whole rows and columns zero, as in stacked tangent
    frames."""
    rows = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
    for i in rng.sample(range(nrows), nrows // 6):
        rows[i] = [0] * ncols
    for j in rng.sample(range(ncols), ncols // 6):
        for row in rows:
            row[j] = 0
    for _ in range(nrows * ncols // 50):
        i, j = rng.randrange(nrows), rng.randrange(ncols)
        if rows[i][j]:
            rows[i][j] = p - 1
    return rows


@st.composite
def _wide_matrices(draw):
    """Rows of at least WIDE_CELLS cells: either L R with a planted inner
    rank, zero and full included, with some entries forced to p - 1, or
    sparse rows with whole zero rows and columns."""
    p = draw(st.sampled_from([1009, 2**31 - 19, 2**31 - 1]))
    nrows = draw(st.integers(20, 50))
    ncols = draw(st.integers(max(40, -(-WIDE_CELLS // nrows)), 120))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return p, _sparse_rows(rng, p, nrows, ncols, draw(st.floats(0.1, 0.3)))
    full = min(nrows, ncols)
    rank = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    rows = _planted_rank_rows(rng, p, nrows, ncols, rank)
    for _ in range(draw(st.integers(0, 30))):
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = p - 1
    return p, rows


@given(_wide_matrices())
@settings(max_examples=60, deadline=None)
def test_wide_int64_path_matches_list_path(case):
    p, raw = case
    by_lists = [row[:] for row in raw]
    list_pivots = _gauss_jordan_lists(by_lists, p)
    by_int64 = [row[:] for row in raw]
    pivots = _gauss_jordan(by_int64, p)
    assert (by_int64, pivots) == (by_lists, list_pivots)
    assert len(pivots) == rank_by_reverse_echelon(raw, p)
    _check_reduced_form(raw, by_int64, pivots, p)


def test_wide_path_is_chosen_by_size_and_modulus(monkeypatch):
    seen = []
    real = algebra._gauss_jordan_int64
    monkeypatch.setattr(
        algebra, "_gauss_jordan_int64", lambda rows, p, *rest: seen.append(p) or real(rows, p, *rest)
    )
    rng = random.Random(3)
    for p, nrows, ncols in [(1009, 32, 32), (1009, 31, 33), (2**31 - 1, 16, 64), (2**31 + 11, 32, 32), (2**61 - 1, 32, 32)]:
        _gauss_jordan([[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], p)
    assert seen == [1009, 2**31 - 1]


def _check_echelon_form(raw, echelon, pivots, p):
    """echelon is a row echelon form of raw, read off independently of any
    elimination: each pivot is a 1 with zeros left of it and below it, rows
    past the rank are zero, and stacking raw under it adds no rank."""
    rank = len(pivots)
    assert all(type(x) is int and 0 <= x < p for row in echelon for x in row)
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert not any(echelon[r][:c]) and echelon[r][c] == 1
        assert not any(row[c] for row in echelon[r + 1 :])
    assert not any(any(row) for row in echelon[rank:])
    assert rank_by_reverse_echelon(echelon[:rank] + raw, p) == rank


@st.composite
def _rank_matrices(draw):
    """Tall and wide rows on both sides of WIDE_CELLS, at moduli on both
    sides of the int64 bound: sparse ones, or L R with a planted rank."""
    p = draw(st.sampled_from([1009, 2**31 - 19, 2**31 - 1, 2**61 - 1]))
    if draw(st.booleans()):
        short = draw(st.integers(12, 30))
        long = draw(st.integers(-(-WIDE_CELLS // short), 100))
    else:
        short = draw(st.integers(1, 30))
        long = draw(st.integers(1, min(90, (WIDE_CELLS - 1) // short)))
    nrows, ncols = (long, short) if draw(st.booleans()) else (short, long)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return p, _sparse_rows(rng, p, nrows, ncols, draw(st.floats(0.1, 0.3)))
    full = min(nrows, ncols)
    rank = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return p, _planted_rank_rows(rng, p, nrows, ncols, rank)


@given(_rank_matrices())
@settings(max_examples=80, deadline=None)
def test_echelon_mode_ranks_match_the_reduced_form(case):
    p, raw = case
    m = Matrix(FieldSpec.prime(p), raw)
    rank = rank_by_reverse_echelon(raw, p)
    assert exact_rank(m) == exact_rank(m.transpose()) == rank

    reduced = [row[:] for row in raw]
    reduced_pivots = _gauss_jordan(reduced, p)
    echelon = [row[:] for row in raw]
    pivots = _gauss_jordan(echelon, p, reduced=False)
    assert pivots == reduced_pivots and len(pivots) == rank
    _check_reduced_form(raw, reduced, reduced_pivots, p)
    _check_echelon_form(raw, echelon, pivots, p)

    by_lists = [row[:] for row in raw]
    assert _gauss_jordan_lists(by_lists, p, reduced=False) == pivots
    assert by_lists == echelon
    if p < 2**31:
        by_int64 = [row[:] for row in raw]
        assert _gauss_jordan_int64(by_int64, p, reduced=False) == pivots
        assert by_int64 == echelon


def test_rank_reduces_the_shorter_side_in_echelon_mode(monkeypatch):
    calls = []
    real = algebra._gauss_jordan

    def spy(rows, p, reduced=True):
        calls.append((len(rows), reduced))
        return real(rows, p, reduced)

    monkeypatch.setattr(algebra, "_gauss_jordan", spy)
    field = FieldSpec.prime(2**31 - 1)
    ver = veronese(field, 14, 2)
    frame = ver.tangent_frame(ver.sample(random.Random(14)))
    assert (frame.rows, frame.cols) == (120, 15)
    assert frame.rank() == 15
    assert calls == [(15, False)]

    calls.clear()
    frame.transpose().null_space()
    LinearSystem([list(row) for row in frame.entries[:10]], 15, field.modulus)
    assert calls == [(15, True), (10, True)]


def test_rank_of_a_wide_stack_keeps_its_memory():
    # A full reduction of these matrices with a dense rank-one update per
    # pivot peaks at about 1,040 KiB, sparse or dense (Python 3.11, numpy
    # 2.4); the sparse echelon reduction may take at most 10% more.
    p = 2**31 - 1
    field = FieldSpec.prime(p)
    rng = random.Random(225)
    Matrix(field, _planted_rank_rows(rng, p, 40, 40, 40)).rank()
    for density in (0.18, 1.0):
        m = Matrix(field, _sparse_rows(rng, p, 120, 225, density))
        tracemalloc.start()
        try:
            m.rank()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * 1040 * 1024


def test_wide_matrix_reduces_exactly_past_int64():
    # 2^61 - 1 squared overflows int64, so this one stays on int lists
    p = 2**61 - 1
    rng = random.Random(61)
    raw = _planted_rank_rows(rng, p, 30, 60, 20)
    raw[4][7] = p - 1
    rref = [row[:] for row in raw]
    pivots = _gauss_jordan(rref, p)
    assert len(pivots) == rank_by_reverse_echelon(raw, p) == exact_rank(Matrix(FieldSpec.prime(p), raw))
    _check_reduced_form(raw, rref, pivots, p)


def test_subspace_intersect_rank_identity():
    rng = random.Random(31)
    for _ in range(10):
        a = Matrix(F1009, [[rng.randrange(1009) for _ in range(3)] for _ in range(6)])
        b = Matrix(F1009, [[rng.randrange(1009) for _ in range(4)] for _ in range(6)])
        inter = subspace_intersect(a, b)
        expected = exact_rank(a) + exact_rank(b) - exact_rank(Matrix.hstack([a, b]))
        assert exact_rank(inter) == max(0, expected)
        assert inter.cols == exact_rank(inter)  # columns independent


def test_subspace_intersect_same_and_disjoint_spans():
    a = Matrix(F1009, [[1, 0], [0, 1], [0, 0], [0, 0]])
    same = subspace_intersect(a, a)
    assert exact_rank(same) == 2
    b = Matrix(F1009, [[0, 0], [0, 0], [1, 0], [0, 1]])
    disjoint = subspace_intersect(a, b)
    assert disjoint.cols == 0


def test_normalize_point_last_nonzero_is_one():
    w = normalize_point((3, 5, 0), 1009)
    assert w[1] == 1
    assert w[0] == 3 * inverse(5, 1009) % 1009
    with pytest.raises(ConstructionError):
        normalize_point((0, 0), 1009)


# -- polynomials --------------------------------------------------------------


def test_multipoly_never_stores_zero_coefficients():
    # (x + y)(x - y) - x^2 + y^2, written out term by term
    q = MultiPoly.from_int_terms(F1009, 2, [(1, (2, 0)), (-1, (0, 2)), (-1, (2, 0)), (1, (0, 2))])
    assert q.is_zero()
    assert q.terms == {}
    assert MultiPoly(F1009, 2, {(1, 0): 1009, (0, 1): -2018}).terms == {}


def test_multipoly_graded_lex_term_order():
    f = MultiPoly.from_int_terms(
        F1009, 2, [(1, (0, 2)), (1, (1, 0)), (1, (2, 0)), (1, (0, 0))]
    )
    order = [e for e, _ in f.sorted_terms()]
    assert order == [(2, 0), (0, 2), (1, 0), (0, 0)]


def _horner(coeffs, s: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * s + c) % p
    return acc


@st.composite
def restriction_cases(draw):
    """A polynomial in 1-4 variables and one univariate argument per
    variable: zero arguments, trailing zeros, and (with two equal arguments
    and a factor x0 - x1) restrictions that vanish identically."""
    nvars = draw(st.integers(1, 4))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.lists(st.tuples(st.integers(0, 1008), expo), max_size=8))
    args = draw(st.lists(st.lists(st.integers(0, 1008), max_size=4), min_size=nvars, max_size=nvars))
    if nvars >= 2 and draw(st.booleans()):
        # the terms of f x0 - f x1
        shifted = [(c, (e[0] + 1, *e[1:])) for c, e in terms]
        shifted += [(-c, (e[0], e[1] + 1, *e[2:])) for c, e in terms]
        terms = shifted
        args[1] = args[0]
    return MultiPoly.from_int_terms(F1009, nvars, terms), args


@given(restriction_cases())
@settings(max_examples=200, deadline=None)
def test_restriction_kernel_matches_compose(case):
    """The restriction agrees with f evaluated at the arguments' values at
    deg + 1 distinct s, which pins a polynomial of degree <= deg; it is
    trimmed and reduced."""
    f, args = case
    p = F1009.modulus
    restricted = restrict_univariate(f.terms, args, p)
    assert not restricted or restricted[-1] != 0
    assert all(0 <= c < p for c in restricted)
    deg = max((sum(e * max(len(a) - 1, 0) for e, a in zip(expo, args)) for expo in f.terms), default=0)
    assert len(restricted) <= deg + 1
    for s in range(deg + 1):
        at_s = f.evaluate([_horner(a, s, p) for a in args])
        assert _horner(restricted, s, p) == at_s


_RESTRICTION_PRIMES = (257, 1009, 2**31 - 1, 2**61 - 1)


@st.composite
def wide_restriction_cases(draw):
    """A polynomial in 1-4 variables over one of ``_RESTRICTION_PRIMES`` and
    one argument per variable of 0-5 entries, unreduced and negative ones
    included; coefficients and entries are drawn near 0, near +-p and past
    it, so packed slots run from empty to full."""
    p = draw(st.sampled_from(_RESTRICTION_PRIMES))
    nvars = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3 * p, 3 * p), st.integers(p - 3, p + 3), st.integers(-3, 3))
    expo = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.lists(st.tuples(entry, expo), max_size=10))
    args = draw(st.lists(st.lists(entry, max_size=5), min_size=nvars, max_size=nvars))
    return MultiPoly.from_int_terms(FieldSpec.prime(p), nvars, terms), args


@given(wide_restriction_cases())
@settings(max_examples=300, deadline=None)
def test_restriction_matches_list_products_at_large_primes(case):
    """The Kronecker restriction gives exactly the list the old list
    expansion gave, so the root finder sees the same input."""
    f, args = case
    assert restrict_univariate(f.terms, args, f.field.modulus) == restriction_by_list_products(f.terms, args, f.field.modulus)


def test_restriction_fills_every_slot_at_the_bound():
    """Degree 12 in 4 variables with arguments of length 5 and every entry
    p - 1 at p = 2^61 - 1: every packed slot holds as much as the bound
    allows, and the restriction still matches the list expansion."""
    p = 2**61 - 1
    exponents = [e for e in itertools.product(range(13), repeat=4) if sum(e) == 12]
    f = MultiPoly.from_int_terms(FieldSpec.prime(p), 4, [(p - 1, e) for e in exponents])
    args = [[p - 1] * 5 for _ in range(4)]
    restricted = restrict_univariate(f.terms, args, p)
    assert len(restricted) == 12 * 4 + 1
    assert restricted == restriction_by_list_products(f.terms, args, p)


def test_multipoly_homogeneity_and_support():
    f_terms = [(2, (2, 1, 0)), (5, (0, 0, 3))]
    f = MultiPoly.from_int_terms(F1009, 3, f_terms)
    assert f.is_homogeneous()
    assert f.total_degree() == 3
    g = MultiPoly.from_int_terms(F1009, 3, f_terms + [(1, (0, 0, 0))])  # f + 1
    assert not g.is_homogeneous()


# -- jets ---------------------------------------------------------------------


def test_jet2_matches_symbolic_differentiation_oracle():
    # pinned random degree-4 polynomial in 3 variables
    rng = random.Random(404)
    terms = []
    for _ in range(12):
        expo = [rng.randrange(3) for _ in range(3)]
        while sum(expo) > 4:
            expo = [rng.randrange(3) for _ in range(3)]
        terms.append((rng.randrange(1, 1009), tuple(expo)))
    f = MultiPoly.from_int_terms(F1009, 3, terms)
    pt = tuple(F1009.scalar(v) for v in (311, 47, 902))
    jet = jet2_eval(f, pt)
    value, grad, hess = jet_by_symbolic_diff(f, pt)
    assert jet.value == value
    assert jet.gradient == grad
    assert jet.hessian == hess


def test_jet2_zero_hessian_below_degree_two():
    f = MultiPoly.from_int_terms(F1009, 2, [(3, (1, 0)), (7, (0, 1)), (11, (0, 0))])
    jet = jet2_eval(f, (F1009.scalar(5), F1009.scalar(-2)))
    assert all(all(h == 0 for h in row) for row in jet.hessian)
    assert jet.gradient == (F1009.scalar(3), F1009.scalar(7))


def test_jet2_hessian_exactly_symmetric_and_validated():
    rng = random.Random(7)
    # (x0 + x3)^3
    f = MultiPoly.from_int_terms(F2003, 4, [(1, (3, 0, 0, 0)), (3, (2, 0, 0, 1)), (3, (1, 0, 0, 2)), (1, (0, 0, 0, 3))])
    pt = tuple(F2003.random_scalar(rng) for _ in range(4))
    jet = jet2_eval(f, pt)
    for i in range(4):
        for j in range(4):
            assert jet.hessian[i][j] == jet.hessian[j][i]
    with pytest.raises(ConstructionError):
        Jet2(0, (0, 0), ((0, 1), (0, 0)))


@given(st.integers(min_value=0, max_value=1008), st.integers(min_value=0, max_value=1008))
@settings(max_examples=30, deadline=None)
def test_jet2_additivity(a, b):
    f_terms = [(1, (2, 1)), (3, (1, 0))]  # x^2 y + 3x
    g_terms = [(1, (0, 3)), (-1, (1, 1))]  # y^3 - xy
    f, g, f_plus_g = (MultiPoly.from_int_terms(F1009, 2, t) for t in (f_terms, g_terms, f_terms + g_terms))
    pt = (F1009.scalar(a), F1009.scalar(b))
    jf, jg, js = jet2_eval(f, pt), jet2_eval(g, pt), jet2_eval(f_plus_g, pt)
    assert js.value == (jf.value + jg.value) % 1009
    assert js.gradient == tuple((p + q) % 1009 for p, q in zip(jf.gradient, jg.gradient))


@st.composite
def _jet_kernel_cases(draw):
    """1-4 polynomials in 1-6 variables of degree <= 4 (zero and constant ones
    included), and two points that favour the entries 0 and p - 1."""
    p = draw(st.sampled_from([1009, 2**31 - 1]))
    field = FieldSpec.prime(p)
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(min_value=0, max_value=p - 1))

    def exponents():
        expo, budget = [], draw(st.integers(min_value=0, max_value=4))
        for _ in range(n):
            e = draw(st.integers(min_value=0, max_value=budget))
            expo.append(e)
            budget -= e
        return draw(st.permutations(expo))

    polys = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["zero", "constant", "general"]))
        if kind == "zero":
            terms = []
        elif kind == "constant":
            terms = [(draw(entry), (0,) * n)]
        else:
            terms = [(draw(entry), exponents()) for _ in range(draw(st.integers(min_value=1, max_value=6)))]
        polys.append(MultiPoly.from_int_terms(field, n, terms))
    points = [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2)]
    return field, n, polys, points


@given(_jet_kernel_cases())
@settings(max_examples=80, deadline=None)
def test_jet_kernel_matches_term_by_term_reference(case):
    field, n, polys, points = case
    p = field.modulus
    jets = PolyJets(polys, n)
    # every table is built before any is read, so a kernel that evaluated
    # from the last table it built would give the first point stale jets
    tables = [jets.powers(point) for point in points]
    for point, powers in zip(points, tables):
        values, grads, hessians = jets.values(powers), jets.gradients(powers), jets.hessians(powers)
        for k, f in enumerate(polys):
            ref = jet2_by_term_bookkeeping(f, point)
            assert (values[k], grads[k], hessians[k]) == (ref.value, ref.gradient, ref.hessian)
            assert jet2_eval(f, point) == ref
            hess = hessians[k]
            assert all(hess[i][j] == hess[j][i] for i in range(n) for j in range(n))
            for x in (values[k], *grads[k], *(h for row in hess for h in row)):
                assert type(x) is int and 0 <= x < p


def test_unreduced_chain_is_exact_on_wide_monomials_at_a_61_bit_prime():
    """Chain slots keep unreduced products, below p^s over s support
    variables: at p = 2^61 - 1, monomials over 20 to 24 of 24 variables make
    slots of up to ~1,500 bits, and every order still equals the term-by-term
    2-jet, with each output reduced into [0, p)."""
    p = 2**61 - 1
    field = FieldSpec.prime(p)
    n = 24
    rng = random.Random(61)
    entry = lambda: rng.choice([1, p - 1, rng.randrange(p)])  # noqa: E731
    polys = []
    for _ in range(3):
        terms = []
        for _ in range(6):
            support = rng.sample(range(n), rng.randint(20, n))
            terms.append((entry(), tuple(rng.randint(1, 3) if i in support else 0 for i in range(n))))
        polys.append(MultiPoly.from_int_terms(field, n, terms))
    jets = PolyJets(polys, n)
    for point in ([p - 1] * n, [entry() for _ in range(n)], [rng.randrange(p) for _ in range(n)]):
        powers = jets.powers(point)
        values, grads, hessians = jets.values(powers), jets.gradients(powers), jets.hessians(powers)
        for k, f in enumerate(polys):
            ref = jet2_by_term_bookkeeping(f, point)
            assert (values[k], grads[k], hessians[k]) == (ref.value, ref.gradient, ref.hessian)
            for x in (values[k], *grads[k], *(h for row in hessians[k] for h in row)):
                assert type(x) is int and 0 <= x < p


# -- univariate roots ----------------------------------------------------------


def _uni(field, coeffs):
    return MultiPoly.from_int_terms(field, 1, [(c, (e,)) for e, c in enumerate(coeffs) if c])


def test_roots_match_bruteforce_scan_on_pinned_cubic():
    rng = random.Random(2024)
    coeffs = [rng.randrange(1009) for _ in range(3)] + [1]  # monic cubic
    f = _uni(F1009, coeffs)
    assert uni_roots_mod_p(coeffs, 1009) == roots_by_scan(f, F1009)


def test_roots_of_factored_cubic():
    # (x - 3)(x - 17)(x - 500) over F_1009
    f = poly_mul(poly_mul([-3, 1], [-17, 1], 1009), [-500, 1], 1009)
    assert uni_roots_mod_p(f, 1009) == {3, 17, 500}


def test_roots_value_independent_of_rng():
    rng_a, rng_b = random.Random(1), random.Random(999)
    coeffs = [5, 0, 7, 0, 0, 1]  # degree 5
    f = _uni(F1009, coeffs)
    assert uni_roots_mod_p(coeffs, 1009, rng_a) == uni_roots_mod_p(coeffs, 1009, rng_b)
    assert uni_roots_mod_p(coeffs, 1009) == roots_by_scan(f, F1009)


def test_roots_handle_multiplicity_and_rootless():
    sq = poly_mul([-42, 1], [-42, 1], 2003)
    assert uni_roots_mod_p(sq, 2003) == {42}
    # x^2 + 1 has no roots when p = 3 mod 4
    f = _uni(F2003, [1, 0, 1])
    assert uni_roots_mod_p([1, 0, 1], 2003) == frozenset()
    assert uni_roots_mod_p([1, 0, 1], 2003) == roots_by_scan(f, F2003)


@pytest.mark.parametrize("p", [1009, 1013, 2**31 - 19])
def test_sqrt_mod_matches_brute_force_and_the_uncached_reference(p):
    """The cached per-prime constants leave every root as it was: at 1009
    and 1013 every residue's root is one of its two square roots by scan and
    equals the uncached Tonelli-Shanks root; at 2^31 - 19 the same holds for
    the squares of 300 random units, whose square roots are known."""
    if p < 2000:
        roots: dict[int, set[int]] = {}
        for x in range(p):
            roots.setdefault(x * x % p, set()).add(x)
    else:
        rng = random.Random(19)
        roots = {}
        for x in (rng.randrange(1, p) for _ in range(300)):
            roots[x * x % p] = {x, p - x}
    for n, expected in roots.items():
        r = algebra._sqrt_mod(n, p)
        assert r in expected
        assert r == sqrt_reference(n, p)


def test_roots_reject_bad_inputs():
    with pytest.raises(ConstructionError):
        uni_roots_mod_p([], 1009)  # the zero polynomial


def test_roots_normalize_their_coefficient_list():
    """Entries are reduced mod p and trailing zeros dropped before any root
    is sought: (x - 3)(x - 17) = x^2 - 20x + 51, written unreduced and
    padded, has the roots of its reduced, trimmed list, with the same
    random draws.  A list that trims to nothing is the zero polynomial."""
    p = 1009
    padded = [51 + 5 * p, -20, 1 + p, p, 0, -2 * p]
    rng, ref_rng = random.Random(5), random.Random(5)
    assert uni_roots_mod_p(padded, p, rng) == uni_roots_mod_p([51, p - 20, 1], p, ref_rng) == {3, 17}
    assert rng.getstate() == ref_rng.getstate()
    assert uni_roots_mod_p([7 + p, 0, p], p) == frozenset()  # a nonzero constant
    for zero in ([], [0, 0], [p, -p]):
        with pytest.raises(ConstructionError):
            uni_roots_mod_p(zero, p)


@given(st.lists(st.integers(min_value=0, max_value=1008), min_size=2, max_size=5))
@settings(max_examples=25, deadline=None)
def test_roots_against_scan_property(coeffs):
    coeffs = coeffs + [1]  # force nonzero leading coefficient
    f = _uni(F1009, coeffs)
    assert uni_roots_mod_p(coeffs, 1009) == roots_by_scan(f, F1009)


_ROOT_PRIMES = (1009, 2003, 2**31 - 19, 2**31 - 1)


@given(
    st.sampled_from(_ROOT_PRIMES),
    st.lists(st.integers(0, 2**31), min_size=1, max_size=8),
    st.integers(1, 2**31),
    st.integers(0, 2**31),
    st.sampled_from(["p", "half", "small", "any"]),
)
@settings(max_examples=200, deadline=None)
def test_linear_power_matches_square_and_multiply_reference(p, low, lead, a, which):
    m = [c % p for c in low] + [lead % p or 1]
    e = {"p": p, "half": (p - 1) // 2, "small": a % 4, "any": a * lead}[which]
    a %= p
    assert _linear_power_mod(a, e, _poly_monic(m, p), p) == poly_powmod([a, 1], e, m, p)


@st.composite
def cubic_moduli(draw):
    """A prime of ``_ROOT_PRIMES``, a cubic modulus with a random leading
    coefficient (random, with a zero constant term, or with a planted
    repeated root), a shift and an exponent: p, (p - 1)/2 or random."""
    p = draw(st.sampled_from(_ROOT_PRIMES))
    coeff = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["random", "zero constant", "repeated root"]))
    if kind == "repeated root":
        r, s = draw(coeff), draw(coeff)
        # (x - r)^2 (x - s)
        m = [-r * r * s, r * r + 2 * r * s, -2 * r - s, 1]
    else:
        m = [draw(coeff), draw(coeff), draw(coeff), 1]
        if kind == "zero constant":
            m[0] = 0
    lead = draw(st.integers(1, p - 1))
    m = [c * lead % p for c in m]
    e = draw(st.sampled_from([p, (p - 1) // 2, None]))
    if e is None:
        e = draw(st.integers(0, 2**64))
    return p, m, draw(coeff), e


@given(cubic_moduli())
@settings(max_examples=300, deadline=None)
def test_cubic_linear_power_matches_square_and_multiply_reference(case):
    """``_linear_power_mod`` on cubic moduli, the ones the root finder's
    general route meets, against the oracle's square-and-multiply on full
    products, at the root finder's exponents and at random ones."""
    p, m, a, e = case
    assert _linear_power_mod(a, e, _poly_monic(m, p), p) == poly_powmod([a, 1], e, m, p)


@given(
    st.sampled_from(_ROOT_PRIMES),
    st.lists(st.integers(0, 2**31), max_size=10),
    st.lists(st.integers(0, 2**31), max_size=5),
    st.integers(1, 2**31),
)
@settings(max_examples=200, deadline=None)
def test_divmod_is_long_division(p, a, low, lead):
    """a = q m + r with deg r < deg m, checked by multiplying back on plain
    ints, and r is the oracle's remainder; a may carry trailing zeros."""
    a = [c % p for c in a]
    m = [c % p for c in low] + [lead % p or 1]
    q, r = _poly_divmod(a, m, p)
    assert len(r) < len(m)
    assert all(x[-1] for x in (q, r) if x)  # both trimmed
    back = [0] * (len(a) + len(m))
    for i, x in enumerate(q):
        for j, y in enumerate(m):
            back[i + j] += x * y
    for k, x in enumerate(r):
        back[k] += x
    assert [x % p for x in back] == a + [0] * (len(back) - len(a))
    assert r == poly_mod(a, m, p)


@st.composite
def root_cases(draw):
    """A nonzero univariate of degree 1-8, often with planted roots, some
    repeated, and a seed for the splitting draws."""
    p = draw(st.sampled_from(_ROOT_PRIMES))
    planted = draw(st.lists(st.integers(0, p - 1), max_size=6))
    cofactor = draw(st.lists(st.integers(0, p - 1), max_size=8 - len(planted)))
    coeffs = cofactor + [draw(st.integers(1, p - 1))]
    for r in planted:  # multiply by x - r
        coeffs = [(lo - r * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return p, coeffs, draw(st.integers(0, 2**32))


@given(root_cases())
@settings(max_examples=200, deadline=None)
def test_roots_and_random_draws_match_reference(case):
    """Same root set as a brute scan (at F_1009) and as the reference root
    finder, which leaves the random stream in the same state."""
    p, coeffs, seed = case
    field = FieldSpec.prime(p)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    roots = uni_roots_mod_p(coeffs, p, rng)
    assert roots == roots_reference(coeffs, p, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    if p == 1009:
        assert roots == roots_by_scan(_uni(field, coeffs), field)


# primes on both sides of 3 and of 4: 1013 and 2003 are 2 mod 3, the rest
# 1 mod 3, and 3^6 exactly divides 1459 - 1
_CUBIC_PRIMES = (1009, 1013, 2003, 1459, 2**31 - 1, 2**31 - 19, 2**61 - 1)
_ANALYSIS_PRIMES = (2**31 - 1, 2**31 - 19)


def _times_linear(coeffs, r, p):
    """coeffs times x - r, mod p."""
    return [(lo - r * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]


def _shift(coeffs, beta, p):
    """The polynomial f(x - beta), by Horner's rule on x - beta."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = _times_linear(out, beta, p)
        out[0] = (out[0] + c) % p
    return out


def _cubic_discriminant(f, p):
    """The discriminant mod p of d + c x + b x^2 + a x^3, zero exactly when
    it has a repeated root."""
    d, c, b, a = f
    return (b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d) % p


@functools.lru_cache(maxsize=None)
def _irreducible_cubic(p):
    """The first x^3 + x + c, c = 1, 2, ..., with no root in F_p, by the
    reference root finder's x^p mod f: a cubic with no root is irreducible."""
    c = 1
    while roots_reference([c, 1, 0, 1], p, random.Random(0)):
        c += 1
    return [c, 1, 0, 1]


@st.composite
def planted_cubics(draw, primes=_CUBIC_PRIMES, repeated=True):
    """(p, coefficients, seed, root count) of a cubic with a random leading
    coefficient and a planted factorization: three distinct roots, one root
    times an irreducible quadratic, an irreducible cubic (the irreducible
    x^3 + x + c moved by x -> x - beta), x^3 - a (P = 0), t^3 + b t (Q = 0)
    moved by x -> x - beta, or a repeated root."""
    p = draw(st.sampled_from(primes))
    kinds = ["three roots", "root and quadratic", "irreducible", "P = 0", "Q = 0"]
    kind = draw(st.sampled_from(kinds + ["repeated root"] * repeated))
    elem, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    if kind == "three roots":
        f = [1]
        for r in draw(st.lists(elem, min_size=3, max_size=3, unique=True)):
            f = _times_linear(f, r, p)
        count = 3
    elif kind == "root and quadratic":
        # x^2 + b x + c has discriminant b^2 - 4c = d z^2 for a non-square d
        d = next(q for q in range(2, p) if pow(q, (p - 1) // 2, p) == p - 1)
        b, z = draw(elem), draw(unit)
        quadratic = [(b * b - d * z * z) * pow(4, -1, p) % p, b, 1]
        f, count = _times_linear(quadratic, draw(elem), p), 1
    elif kind == "irreducible":
        f, count = _shift(_irreducible_cubic(p), draw(elem), p), 0
    elif kind == "P = 0":
        # cubing is a bijection at p = 2 mod 3, else a has 3 cube roots or none
        a = draw(unit)
        f = [-a % p, 0, 0, 1]
        count = 1 if p % 3 == 2 else 3 * (pow(a, (p - 1) // 3, p) == 1)
    elif kind == "Q = 0":
        # t (t^2 + b): the root 0, and two more when -b is a square
        b = draw(unit)
        f = _shift([0, b, 0, 1], draw(elem), p)
        count = 1 + 2 * (pow(-b, (p - 1) // 2, p) == 1)
    else:
        r, q = draw(elem), draw(elem)
        f = _times_linear(_times_linear(_times_linear([1], r, p), r, p), q, p)
        count = len({r, q})
    lead = draw(unit)
    return p, [c * lead % p for c in f], draw(st.integers(0, 2**32)), count


@given(planted_cubics())
@settings(max_examples=400, deadline=None)
def test_cubic_roots_and_random_draws_match_reference_on_every_branch(case):
    """Every case of the closed-form cubic front end, and the general route
    it leaves to, against the reference root finder: the same root set, the
    planted number of roots, and the same random stream afterwards; below
    p = 3000 the set is also a brute scan's."""
    p, coeffs, seed, count = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    roots = uni_roots_mod_p(coeffs, p, rng)
    assert roots == roots_reference(coeffs, p, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    assert len(roots) == count
    if p < 3000:
        field = FieldSpec.prime(p)
        assert roots == roots_by_scan(_uni(field, coeffs), field)


@given(planted_cubics(primes=_ANALYSIS_PRIMES, repeated=False), st.data())
@settings(max_examples=200, deadline=None)
def test_squarefree_cubics_at_analysis_primes_skip_polynomial_powers_and_gcds(case, data):
    """At both analysis primes every squarefree cubic, planted or random,
    gets its roots in closed form: no power of x + a modulo the cubic and
    no polynomial gcd, with the reference's roots and draws."""
    p, coeffs, seed, _ = case
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3)) + [data.draw(st.integers(1, p - 1))]
        assume(_cubic_discriminant(coeffs, p))
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    rng, ref_rng = random.Random(seed), random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_linear_power_mod", counted(algebra._linear_power_mod))
        mp.setattr(algebra, "_poly_gcd", counted(algebra._poly_gcd))
        roots = uni_roots_mod_p(coeffs, p, rng)
        assert not calls
    assert roots == roots_reference(coeffs, p, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("p", [7, 19, 163, 1009, 1459])
def test_cube_root_on_every_unit(p):
    """``_cube_root`` on every unit of F_p, with 3^s3 exactly dividing
    p - 1 for s3 = 1, 2, 4, 2 and 6: a cube root for each cube, None for
    each non-cube."""
    _, _, _, s3, k, c_inv, omega, _ = _cubic_constants(p)
    cubes = {x**3 % p for x in range(1, p)}
    for w in range(1, p):
        u = _cube_root(w, p, s3, k, c_inv, omega)
        assert (u is not None and pow(u, 3, p) == w) if w in cubes else u is None
