"""Exact arithmetic layer: fields, matrices, polynomials, jets, roots."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terracini.algebra as algebra
from terracini.algebra import (
    WIDE_CELLS,
    FieldSpec,
    Jet2,
    Matrix,
    MultiPoly,
    _affine_solve,
    _gauss_jordan,
    _gauss_jordan_lists,
    _linear_power_mod,
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
from terracini.fiber import _ConstantSystem

from oracles import (
    jet_by_symbolic_diff,
    poly_powmod,
    rank_by_minors,
    rank_by_reverse_echelon,
    random_fraction_matrix,
    roots_by_scan,
    roots_reference,
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


def test_scalar_field_mismatch_raises():
    # elements are bare ints, so the containers carry the field check
    with pytest.raises(FieldMismatchError):
        MultiPoly.variable(F1009, 1, 0) + MultiPoly.variable(F2003, 1, 0)
    with pytest.raises(FieldMismatchError):
        MultiPoly.variable(F1009, 1, 0) * MultiPoly.variable(F2003, 1, 0)
    a, b = Matrix.identity(F1009, 2), Matrix.identity(F2003, 2)
    with pytest.raises(FieldMismatchError):
        Matrix.hstack([a, b])
    with pytest.raises(FieldMismatchError):
        a.matmul(b)
    with pytest.raises(FieldMismatchError):
        subspace_intersect(a, b)


# -- matrices ---------------------------------------------------------------


def _reduce_mod_1009(rows):
    return [[x.numerator * pow(x.denominator, -1, 1009) % 1009 for x in row] for row in rows]


def test_rank_matches_minor_expansion_oracle_mod_p():
    # pinned random 5x7 rational instance, full-rank and low-rank variants,
    # reduced mod p; the Fraction minor oracle gives the rank over Q
    rng = random.Random(1201)
    raw = random_fraction_matrix(rng, 5, 7)
    reduced = _reduce_mod_1009(raw)
    assert exact_rank(Matrix.from_rows(F1009, reduced)) == rank_by_minors(reduced, 1009) == rank_by_minors(raw)

    raw_low = random_fraction_matrix(rng, 5, 7, rank_target=3)
    reduced_low = _reduce_mod_1009(raw_low)
    assert rank_by_minors(raw_low) == rank_by_minors(reduced_low, 1009) == 3
    assert exact_rank(Matrix.from_rows(F1009, reduced_low)) == 3

    # rank 2 over Q but 1 over F_1009: the 2x2 minor is 1009 itself
    rows = [[1, 2], [3, 6 + 1009]]
    assert rank_by_minors([[Fraction(x) for x in row] for row in rows]) == 2
    assert rank_by_minors(rows, 1009) == exact_rank(Matrix.from_rows(F1009, rows)) == 1


def test_rank_matches_independent_echelon_over_prime_field():
    rng = random.Random(77)
    raw = [[rng.randrange(1009) for _ in range(7)] for _ in range(5)]
    m = Matrix.from_rows(F1009, raw)
    assert exact_rank(m) == rank_by_reverse_echelon(raw, 1009)
    assert exact_rank(m) == rank_by_minors(raw, 1009)


def test_rank_trivial_cases():
    assert exact_rank(Matrix.identity(F1009, 4)) == 4
    assert exact_rank(Matrix.zeros(F1009, 3, 5)) == 0
    assert exact_rank(Matrix.zeros(F2003, 2, 2)) == 0
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
        m = Matrix.from_rows(F1009, raw)
        assert exact_rank(m) == exact_rank(m.transpose())
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert exact_rank(Matrix.from_rows(F1009, shuffled)) == exact_rank(m)


@given(
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_minor_oracle_mod_p(rows):
    m = Matrix.from_rows(F1009, rows)
    assert exact_rank(m) == rank_by_minors(rows, 1009)


def test_null_space_is_exact_kernel():
    rng = random.Random(9)
    raw = [[rng.randrange(1009) for _ in range(8)] for _ in range(3)]
    m = Matrix.from_rows(F1009, raw)
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
    m = Matrix.from_rows(F1009, raw)
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
    solved = _affine_solve(F1009, m.entries, [F1009.scalar(b) for b in rhs], ncols)
    if rank_by_reverse_echelon([row + [b] for row, b in zip(raw, rhs)], 1009) > rank:
        assert solved is None
    else:
        particular, basis = solved
        assert _apply(raw, particular) == rhs
        assert len(basis) == ncols - rank
        assert rank_by_reverse_echelon([list(v) for v in basis], 1009) == len(basis)
        for v in basis:
            assert not any(_apply(raw, v))

    # the ruling scan's once-reduced constant system against a reduction of
    # [A | rhs] per right-hand side, on every leading block of columns
    for width in range(ncols + 1):
        b_rows = [row[:width] for row in raw]
        system = _ConstantSystem(b_rows, width, 1009)
        part = system.solve(rhs)
        expected = _affine_solve(F1009, b_rows, rhs, width)
        assert (part is None) == (expected is None)
        if expected is not None:
            assert (part, system.basis) == expected


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


@st.composite
def _wide_matrices(draw):
    """Rows of at least WIDE_CELLS cells as L R with a planted inner rank,
    zero and full included, with some entries forced to p - 1."""
    p = draw(st.sampled_from([1009, 2**31 - 19, 2**31 - 1]))
    nrows = draw(st.integers(20, 50))
    ncols = draw(st.integers(max(40, -(-WIDE_CELLS // nrows)), 120))
    full = min(nrows, ncols)
    rank = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
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
    monkeypatch.setattr(algebra, "_gauss_jordan_int64", lambda rows, p: seen.append(p) or real(rows, p))
    rng = random.Random(3)
    for p, nrows, ncols in [(1009, 32, 32), (1009, 31, 33), (2**31 - 1, 16, 64), (2**31 + 11, 32, 32), (2**61 - 1, 32, 32)]:
        _gauss_jordan([[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], p)
    assert seen == [1009, 2**31 - 1]


def test_wide_matrix_reduces_exactly_past_int64():
    # 2^61 - 1 squared overflows int64, so this one stays on int lists
    p = 2**61 - 1
    rng = random.Random(61)
    raw = _planted_rank_rows(rng, p, 30, 60, 20)
    raw[4][7] = p - 1
    rref = [row[:] for row in raw]
    pivots = _gauss_jordan(rref, p)
    assert len(pivots) == rank_by_reverse_echelon(raw, p) == exact_rank(Matrix.from_rows(FieldSpec.prime(p), raw))
    _check_reduced_form(raw, rref, pivots, p)


def test_subspace_intersect_rank_identity():
    rng = random.Random(31)
    for _ in range(10):
        a = Matrix.from_rows(F1009, [[rng.randrange(1009) for _ in range(3)] for _ in range(6)])
        b = Matrix.from_rows(F1009, [[rng.randrange(1009) for _ in range(4)] for _ in range(6)])
        inter = subspace_intersect(a, b)
        expected = exact_rank(a) + exact_rank(b) - exact_rank(Matrix.hstack([a, b]))
        assert exact_rank(inter) == max(0, expected)
        assert inter.cols == exact_rank(inter)  # columns independent


def test_subspace_intersect_same_and_disjoint_spans():
    a = Matrix.from_rows(F1009, [[1, 0], [0, 1], [0, 0], [0, 0]])
    same = subspace_intersect(a, a)
    assert exact_rank(same) == 2
    b = Matrix.from_rows(F1009, [[0, 0], [0, 0], [1, 0], [0, 1]])
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
    x = MultiPoly.variable(F1009, 2, 0)
    y = MultiPoly.variable(F1009, 2, 1)
    q = (x + y) * (x - y) - x * x + y * y
    assert q.is_zero()
    assert q.terms == {}


def test_multipoly_graded_lex_term_order():
    f = MultiPoly.from_int_terms(
        F1009, 2, [(1, (0, 2)), (1, (1, 0)), (1, (2, 0)), (1, (0, 0))]
    )
    order = [e for e, _ in f.sorted_terms()]
    assert order == [(2, 0), (0, 2), (1, 0), (0, 0)]


def test_multipoly_compose_matches_pointwise_evaluation():
    rng = random.Random(17)
    x0 = MultiPoly.variable(F1009, 3, 0)
    x1 = MultiPoly.variable(F1009, 3, 1)
    x2 = MultiPoly.variable(F1009, 3, 2)
    f = x0 * x0 * x1 + x2 * x1 - x0 * 7 + MultiPoly.constant(F1009, 3, 5)
    u = MultiPoly.variable(F1009, 2, 0)
    v = MultiPoly.variable(F1009, 2, 1)
    args = [u * v + 1, u * u - v, v * v * u + u * 3]
    g = f.compose(args)
    for _ in range(10):
        pt = (F1009.random_scalar(rng), F1009.random_scalar(rng))
        direct = f.evaluate(tuple(a.evaluate(pt) for a in args))
        assert g.evaluate(pt) == direct


def _coefficient_list(g: MultiPoly) -> list[int]:
    out = [0] * (g.total_degree() + 1)
    for (e,), c in g.terms.items():
        out[e] = c
    return out


@st.composite
def restriction_cases(draw):
    """A polynomial in 1-4 variables and one univariate argument per
    variable: zero arguments, trailing zeros, and (with two equal arguments
    and a factor x0 - x1) restrictions that vanish identically."""
    nvars = draw(st.integers(1, 4))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.lists(st.tuples(st.integers(0, 1008), expo), max_size=8))
    f = MultiPoly.from_int_terms(F1009, nvars, terms)
    args = draw(st.lists(st.lists(st.integers(0, 1008), max_size=4), min_size=nvars, max_size=nvars))
    if nvars >= 2 and draw(st.booleans()):
        x = [MultiPoly.variable(F1009, nvars, i) for i in range(nvars)]
        f = f * (x[0] - x[1])
        args[1] = args[0]
    return f, args


@given(restriction_cases())
@settings(max_examples=200, deadline=None)
def test_restriction_kernel_matches_compose(case):
    f, args = case
    direct = f.compose([MultiPoly.univariate(F1009, a) for a in args])
    assert restrict_univariate(f, args) == _coefficient_list(direct)


def test_multipoly_homogeneity_and_support():
    f = MultiPoly.from_int_terms(F1009, 3, [(2, (2, 1, 0)), (5, (0, 0, 3))])
    assert f.is_homogeneous()
    assert f.total_degree() == 3
    assert f.support() == frozenset({0, 1, 2})
    g = f + MultiPoly.constant(F1009, 3, 1)
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
    x0 = MultiPoly.variable(F2003, 4, 0)
    x3 = MultiPoly.variable(F2003, 4, 3)
    f = (x0 + x3) ** 3
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
    x = MultiPoly.variable(F1009, 2, 0)
    y = MultiPoly.variable(F1009, 2, 1)
    f = x * x * y + x * 3
    g = y * y * y - x * y
    pt = (F1009.scalar(a), F1009.scalar(b))
    jf, jg, js = jet2_eval(f, pt), jet2_eval(g, pt), jet2_eval(f + g, pt)
    assert js.value == (jf.value + jg.value) % 1009
    assert js.gradient == tuple((p + q) % 1009 for p, q in zip(jf.gradient, jg.gradient))


# -- univariate roots ----------------------------------------------------------


def _uni(field, coeffs):
    return MultiPoly.from_int_terms(field, 1, [(c, (e,)) for e, c in enumerate(coeffs) if c])


def test_roots_match_bruteforce_scan_on_pinned_cubic():
    rng = random.Random(2024)
    coeffs = [rng.randrange(1009) for _ in range(3)] + [1]  # monic cubic
    f = _uni(F1009, coeffs)
    assert uni_roots_mod_p(f, F1009) == roots_by_scan(f, F1009)


def test_roots_of_factored_cubic():
    # (x - 3)(x - 17)(x - 500) over F_1009
    x = MultiPoly.variable(F1009, 1, 0)
    f = (x - MultiPoly.constant(F1009, 1, 3)) * (x - MultiPoly.constant(F1009, 1, 17)) * (
        x - MultiPoly.constant(F1009, 1, 500)
    )
    assert uni_roots_mod_p(f, F1009) == {3, 17, 500}


def test_roots_value_independent_of_rng():
    rng_a, rng_b = random.Random(1), random.Random(999)
    coeffs = [5, 0, 7, 0, 0, 1]  # degree 5
    f = _uni(F1009, coeffs)
    assert uni_roots_mod_p(f, F1009, rng_a) == uni_roots_mod_p(f, F1009, rng_b)
    assert uni_roots_mod_p(f, F1009) == roots_by_scan(f, F1009)


def test_roots_handle_multiplicity_and_rootless():
    x = MultiPoly.variable(F2003, 1, 0)
    sq = (x - MultiPoly.constant(F2003, 1, 42)) ** 2
    assert uni_roots_mod_p(sq, F2003) == {42}
    # x^2 + 1 has no roots when p = 3 mod 4
    f = _uni(F2003, [1, 0, 1])
    assert uni_roots_mod_p(f, F2003) == frozenset()
    assert uni_roots_mod_p(f, F2003) == roots_by_scan(f, F2003)


def test_roots_reject_bad_inputs():
    with pytest.raises(ConstructionError):
        uni_roots_mod_p(MultiPoly.zero(F1009, 1), F1009)
    with pytest.raises(ConstructionError):
        uni_roots_mod_p(MultiPoly.variable(F1009, 2, 0), F1009)
    with pytest.raises(FieldMismatchError):
        uni_roots_mod_p(_uni(F2003, [1, 1]), F1009)


@given(st.lists(st.integers(min_value=0, max_value=1008), min_size=2, max_size=5))
@settings(max_examples=25, deadline=None)
def test_roots_against_scan_property(coeffs):
    coeffs = coeffs + [1]  # force nonzero leading coefficient
    f = _uni(F1009, coeffs)
    assert uni_roots_mod_p(f, F1009) == roots_by_scan(f, F1009)


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
    roots = uni_roots_mod_p(MultiPoly.univariate(field, coeffs), field, rng)
    assert roots == roots_reference(coeffs, p, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    if p == 1009:
        assert roots == roots_by_scan(MultiPoly.univariate(field, coeffs), field)
