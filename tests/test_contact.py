"""Tangent hyperplanes, contact coranks, weak defectivity."""

import random
from math import comb

import pytest

from terracini import contact
from terracini.algebra import FieldSpec, Matrix, MultiPoly, dot, exact_rank
from terracini.contact import (
    WITNESS_TUPLES,
    _draw_hyperplane,
    _tangent_corank,
    check_nu_ge_delta,
    check_nu_tower,
    nu_estimate,
)
from terracini.errors import DegenerateWitness
from terracini.instances import builtin_blueprint
from terracini.secant import _hyperplanes_through, _nondegenerate_tuple
from terracini.varieties import (
    _contract_linear_form,
    _monomial_exponents,
    build,
    rational_normal_curve,
    sample_distinct,
    veronese,
)

from oracles import AH_SPORADIC, COV_EXCEPTIONS, double_point_condition_nullity, weakly_defective_veronese

F = FieldSpec.prime(2147483647)
P = F.modulus


def quadric_from_affine(field, poly2):
    """Read a degree-<=2 affine polynomial in (u, v) off as a linear form on
    the veronese(2,2) coordinates."""
    order = {e: i for i, e in enumerate(_monomial_exponents(2, 2))}
    coeffs = [0] * len(order)
    for e, c in poly2.terms.items():
        coeffs[order[e]] = c
    return tuple(coeffs)


def contact_corank(x, coeffs, w):
    """The corank nu_estimate reads at a witness: the hyperplane pulled back
    through the witness's chart jet, against the chart's parameter count,
    which is dim X on the charts these tests use."""
    return _tangent_corank(_contract_linear_form(coeffs, x.chart_jet2(w), x.field.modulus), x.field, x.chart_dim)


# -- the doubled line on the veronese surface ---------------------------------


def test_veronese22_contact_hessian_is_a_doubled_line():
    """The only hyperplane through two tangent planes of the veronese
    surface is the square of the line through the two base points; its
    pullback Hessian is the rank-one matrix 2 g g^T."""
    rng = random.Random(41)
    ver = veronese(F, 2, 2)
    wp, wq = sample_distinct(ver, 2, rng)
    (u1, v1), (u2, v2) = wp.params, wq.params

    du, dv = (u2 - u1) % P, (v2 - v1) % P
    # ell = (u - u1) dv - (v - v1) du = dv u - du v + c, squared term by term
    c = du * v1 - dv * u1
    square = [(dv * dv, (2, 0)), (du * du, (0, 2)), (c * c, (0, 0))]
    square += [(-2 * dv * du, (1, 1)), (2 * dv * c, (1, 0)), (-2 * du * c, (0, 1))]
    m = quadric_from_affine(F, MultiPoly.from_int_terms(F, 2, square))

    space = _hyperplanes_through([ver.tangent_frame(w) for w in (wp, wq)])
    assert space.cols == 1 == double_point_condition_nullity(2, [(1, 2, 3), (5, 7, 11)], P)
    # the hand-built square lies in (so spans) the one-dimensional space
    assert exact_rank(Matrix.from_columns(F, [space.column(0), list(m)])) == 1

    # Hessian both ways: package pullback vs 2 g g^T for g = grad(ell)
    jet = ver.pullback_jet2(m, wp)
    assert jet.value == 0 and jet.gradient_is_zero()
    g = (dv, -du % P)
    expected = [[2 * g[i] * g[j] % P for j in range(2)] for i in range(2)]
    assert [list(row) for row in jet.hessian] == expected
    assert contact_corank(ver, m, wp) == 1
    assert contact_corank(ver, m, wq) == 1


def test_nu_estimate_flags_the_veronese_surface():
    rng = random.Random(42)
    est = nu_estimate(veronese(F, 2, 2), 1, rng)
    assert est.nu == 1
    assert est.hyperplane_space_dim == 1
    assert est.weakly_defective


def test_nu_estimate_clears_the_cubic_veronese():
    rng = random.Random(43)
    est = nu_estimate(veronese(F, 2, 3), 1, rng)
    assert est.nu == 0
    # hyperplanes through two tangent planes = cubics double at two points
    assert est.hyperplane_space_dim == double_point_condition_nullity(
        3, [(1, 2, 3), (5, 7, 11)], P
    ) == 4
    assert not est.weakly_defective


def test_nu_estimate_on_the_quartic_veronese_at_five_points():
    rng = random.Random(44)
    est = nu_estimate(veronese(F, 2, 4), 4, rng)
    # the unique tangent hyperplane is the doubled conic through the points
    assert est.hyperplane_space_dim == 1
    assert est.nu == 1
    assert est.weakly_defective


# -- charts with more parameters than dim X -------------------------------------


def _linear_image(nbase, components):
    """``map_image`` of ``veronese {n: nbase, d: 1}``, whose chart has nbase
    parameters, by products of pairs of its coordinates."""
    def term(i, j):
        e = [0] * (nbase + 1)
        e[i] += 1
        e[j] += 1
        return [[1, e]]

    tree = {
        "constructor": "map_image",
        "base": {"constructor": "veronese", "n": nbase, "d": 1},
        "components": [term(i, j) for i, j in components],
        "arity": nbase + 1,
    }
    return build(tree, F, random.Random(0))


def test_padded_veronese_surface_reads_its_contact_conic():
    """v_2(P^2) on a chart of three parameters, the six quadrics in three of
    P^3's four coordinates: the chart's fibre direction is in every Hessian's
    kernel, but nu_1 is still 1, the conic of the doubled line."""
    x = _linear_image(3, [(i, j) for i in range(3) for j in range(i, 3)])
    assert (x.chart_dim, x.intrinsic_dim(random.Random(0))) == (3, 2)
    est = nu_estimate(x, 1, random.Random(0))
    assert est.nu == 1 == nu_estimate(veronese(F, 2, 2), 1, random.Random(0)).nu


@pytest.mark.parametrize("nbase, shared", [(5, 3), (4, 0)], ids=["padded", "birational"])
def test_segre_plane_times_plane_reads_its_contact_quadric(nbase, shared):
    """The Segre P^2 x P^2, the products x_i y_j with y = (x_shared, ...), on
    a padded chart of five parameters and on a birational one of four.  The
    hyperplane tangent at two points is a rank-one matrix u v^T, and its
    contact locus through x (x) y, where x is orthogonal to u and y to v, is
    P^1 x P^1: nu_1 is 2 on both charts."""
    ys = [shared] + list(range(nbase - 1, nbase + 1))
    x = _linear_image(nbase, [(i, j) for i in range(3) for j in ys])
    assert (x.chart_dim, x.intrinsic_dim(random.Random(0))) == (nbase, 4)
    assert nu_estimate(x, 1, random.Random(0)).nu == 2


# -- guardrails ----------------------------------------------------------------


def test_no_hyperplane_when_the_secant_fills():
    rng = random.Random(45)
    rnc = rational_normal_curve(F, 3)  # S^1 fills P^3
    ws = sample_distinct(rnc, 2, rng)
    assert _hyperplanes_through([rnc.tangent_frame(w) for w in ws]).cols == 0
    est = nu_estimate(rnc, 1, rng)
    assert est.nu is None
    assert est.hyperplane_space_dim == 0
    assert not est.weakly_defective


def test_contact_corank_rejects_non_tangent_hyperplanes():
    rng = random.Random(46)
    ver = veronese(F, 2, 2)
    w = ver.sample(rng)
    coeffs = tuple(F.random_scalar(rng) for _ in range(6))
    assert all(coeffs)
    with pytest.raises(DegenerateWitness):
        contact_corank(ver, coeffs, w)


def test_tangent_hyperplane_really_contains_the_frames():
    rng = random.Random(47)
    ver = veronese(F, 2, 3)
    _, _, frames = _nondegenerate_tuple(ver, 2, 2, rng)
    space = _hyperplanes_through(frames)
    coeffs = _draw_hyperplane(ver, space, rng)
    for frame in frames:
        for j in range(frame.cols):
            assert dot(coeffs, frame.column(j), P) == 0
            for h in range(space.cols):
                assert dot(space.column(h), frame.column(j), P) == 0


def test_nu_estimate_charts_each_witness_once(monkeypatch):
    """The chart jets a tuple's frames were read from serve its hyperplane
    draws too: on counter1 at k = 1, ``chart_jet2`` runs exactly once per
    witness of each tuple, in draw order."""
    rng = random.Random(30)
    x = build(builtin_blueprint("counter1"), F, rng, label="counter1")
    x.intrinsic_dim(rng)  # the dimension's own draws are cached before counting
    charted, tuples = [], []
    chart_jet2, nondegenerate = x.chart_jet2, contact._nondegenerate_tuple

    def counted(w):
        charted.append(w)
        return chart_jet2(w)

    def recorded(*args):
        out = nondegenerate(*args)
        tuples.append(out[0])
        return out

    monkeypatch.setattr(x, "chart_jet2", counted)
    monkeypatch.setattr(contact, "_nondegenerate_tuple", recorded)
    est = nu_estimate(x, 1, rng)
    assert est.nu is not None
    assert len(tuples) == WITNESS_TUPLES
    assert charted == [w for ws in tuples for w in ws]


# -- towers and the defect comparison -----------------------------------------


def test_nu_tower_is_consistent_on_the_cubic_veronese():
    rng = random.Random(48)
    report = check_nu_tower(veronese(F, 2, 3), 2, rng)
    assert report.nu_k == 0
    assert report.nu_one_projected == 0
    assert report.consistent


def test_nu_dominates_delta_where_defects_start():
    rng = random.Random(49)
    cmp22 = check_nu_ge_delta(veronese(F, 2, 2), 3, rng)
    assert cmp22.min_defective_k == 1
    assert (cmp22.delta, cmp22.nu) == (1, 1)
    assert cmp22.holds

    cmp24 = check_nu_ge_delta(veronese(F, 2, 4), 5, rng)
    assert cmp24.min_defective_k == 4
    assert (cmp24.delta, cmp24.nu) == (1, 1)
    assert cmp24.holds

    vacuous = check_nu_ge_delta(veronese(F, 2, 3), 3, rng)
    assert not vacuous.applicable
    assert vacuous.holds


# -- weak defectivity against Alexander-Hirschowitz and COV ------------------


def _weak_defect_mismatch(n, d, k, seed=0):
    """None when nu_estimate on v_d(P^n) at k reads what the literature says
    (``weakly_defective_veronese``): no nu where S^k fills, nu >= 1 exactly
    where it is weakly defective."""
    want = weakly_defective_veronese(n, d, k)
    est = nu_estimate(veronese(F, n, d), k, random.Random(seed))
    got = None if est.nu is None else est.nu >= 1
    return None if got == want else f"v_{d}(P^{n}) k={k}: nu {est.nu}, want weakly defective {want}"


# (n, d, k, weakly defective): COV's three exceptions (r = k + 1) and their
# k - 1 neighbours, the four sporadic defective secants of Alexander-
# Hirschowitz, and v_2(P^n) for n <= 5 from one point to filling
_WEAK_PINS = (
    [(n, d, r - 1, True) for n, d, r in sorted(COV_EXCEPTIONS)]
    + [(n, d, r - 2, False) for n, d, r in sorted(COV_EXCEPTIONS)]
    + [(n, d, k, True) for n, d, k in sorted(AH_SPORADIC)]
    + [(n, 2, k, None if k == n else k > 0) for n in range(1, 6) for k in range(n + 1)]
)


@pytest.mark.parametrize("n, d, k, weak", _WEAK_PINS, ids=[f"v{d}P{n}k{k}" for n, d, k, _ in _WEAK_PINS])
def test_weak_defectivity_matches_the_classification(n, d, k, weak):
    assert weakly_defective_veronese(n, d, k) is weak
    assert _weak_defect_mismatch(n, d, k) is None


def _weak_defect_sweep_cases():
    """Every k from one point to filling: v_d(P^n) for n >= 2 up to P^120,
    and rational normal curves up to degree 40."""
    cases = []
    for n in range(1, 120):
        for d in range(2, 41 if n == 1 else 120):
            if comb(n + d, d) - 1 > 120:
                break
            k = 0
            while True:
                cases.append((n, d, k))
                if weakly_defective_veronese(n, d, k) is None:
                    break
                k += 1
    return cases


@pytest.mark.slow
def test_full_weak_defectivity_sweep():
    cases = _weak_defect_sweep_cases()
    mismatches = [m for m in (_weak_defect_mismatch(n, d, k) for n, d, k in cases) if m]
    assert not mismatches, mismatches
