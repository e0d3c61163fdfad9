"""Secant dimensions, defects, towers, tangential projections."""

import random
from math import comb

import pytest

from terracini.algebra import FieldSpec, Matrix, MultiPoly, exact_rank
from terracini.errors import CenterFillsAmbient, ConfigError
from terracini.secant import (
    check_delta_tower,
    defect,
    expected_secant_dim,
    min_defective_k,
    tangential_projection,
    terracini_dim,
)
from terracini.varieties import AMBIENT_CAP, map_image, rational_normal_curve, veronese

from oracles import (
    ah_parameter_count,
    ah_secant_dim,
    double_point_condition_nullity,
    rank_by_reverse_echelon,
)

F = FieldSpec.prime(2147483647)
P = F.modulus

# pinned points in P^2, pairwise in general position
PTS = [(1, 2, 3), (5, 7, 11), (13, 17, 19), (23, 29, 31), (37, 41, 43)]


# -- the conditions-matrix oracle, frozen ------------------------------------


def test_singular_form_counts_at_pinned_points():
    # one double conic through 2 points, one double quartic through 5,
    # nothing for cubics through 4: the classical counts
    assert double_point_condition_nullity(2, PTS[:2], P) == 1
    assert double_point_condition_nullity(4, PTS, P) == 1
    assert double_point_condition_nullity(3, PTS[:4], P) == 0


# -- rational normal curves ---------------------------------------------------


def test_rnc5_secant_line_dimension_is_three():
    rng = random.Random(21)
    rnc = rational_normal_curve(F, 5)
    dim, ws = terracini_dim(rnc, 1, rng)
    assert dim == 3
    assert len(ws) == 2

    # independent route: write the two stacked frames down by hand
    u, v = 2, 3
    rows = []
    for i in range(6):
        rows.append(
            [
                pow(u, i, P),
                (i * pow(u, i - 1, P)) % P if i else 0,
                pow(v, i, P),
                (i * pow(v, i - 1, P)) % P if i else 0,
            ]
        )
    assert rank_by_reverse_echelon(rows, P) == 4


def test_rnc5_fills_its_span_at_k2():
    rng = random.Random(22)
    rnc = rational_normal_curve(F, 5)
    profile = defect(rnc, 2, rng)
    assert (profile.expected, profile.actual, profile.delta) == (5, 5, 0)
    assert min_defective_k(rnc, 4, rng) is None


# -- the veronese surface, the classical defective example -------------------


def test_veronese22_secant_defect_one():
    rng = random.Random(23)
    ver = veronese(F, 2, 2)
    profile = defect(ver, 1, rng)
    assert (profile.expected, profile.actual, profile.delta) == (5, 4, 1)
    # cross-check through singular conics: dim S^1 = 5 - #{double conics}
    assert profile.actual == 5 - double_point_condition_nullity(2, PTS[:2], P)
    assert min_defective_k(ver, 3, rng) == 1


def test_veronese23_never_defective():
    rng = random.Random(24)
    ver = veronese(F, 2, 3)
    dims = {k: defect(ver, k, rng) for k in (1, 2, 3)}
    assert (dims[1].actual, dims[1].delta) == (5, 0)
    assert (dims[2].actual, dims[2].delta) == (8, 0)
    assert (dims[3].actual, dims[3].delta) == (9, 0)  # fills P^9
    assert min_defective_k(ver, 3, rng) is None


def test_veronese24_five_points_are_defective():
    rng = random.Random(25)
    ver = veronese(F, 2, 4)
    profile = defect(ver, 4, rng)
    assert (profile.expected, profile.actual, profile.delta) == (14, 13, 1)
    assert profile.actual == 14 - double_point_condition_nullity(4, PTS, P)
    assert min_defective_k(ver, 5, rng) == 4


# -- Alexander-Hirschowitz ---------------------------------------------------

# Defective: v_2(P^n) at every k < n for n <= 7, and at its edge k = 9 for
# n = 10 (a 66 x 110 rank); the four sporadic cases, v_4(P^4) at k = 13 a
# 70 x 70 rank.  Controls: the sporadic cases' non-defective neighbours.
AH_FAST = (
    [(n, 2, k) for n in range(2, 8) for k in range(1, n)]
    + [(10, 2, 9)]
    + [(2, 4, 4), (3, 4, 8), (4, 3, 6), (4, 4, 13)]
    + [(2, 4, 3), (2, 4, 5), (3, 4, 7), (3, 4, 9), (4, 3, 5), (4, 3, 7), (4, 4, 12), (4, 4, 14)]
)


def _ah_sweep_cases() -> list[tuple[int, int, int]]:
    """Every v_d(P^n) with d >= 2 and ambient dimension at most AMBIENT_CAP,
    curves included, at every k >= 1 up to the first k whose secant fills
    the span."""
    cases = []
    for n in range(1, AMBIENT_CAP + 1):
        d = 2
        while (span := comb(n + d, d) - 1) <= AMBIENT_CAP:
            k = 1
            while True:
                cases.append((n, d, k))
                if ah_secant_dim(n, d, k) == span:
                    break
                k += 1
            d += 1
    return cases


def _ah_mismatch(n: int, d: int, k: int) -> str | None:
    profile = defect(veronese(F, n, d), k, random.Random(f"ah/{n}/{d}/{k}"))
    want_expected, want_actual = ah_parameter_count(n, d, k), ah_secant_dim(n, d, k)
    got = (profile.expected, profile.actual, profile.delta)
    if got != (want_expected, want_actual, want_expected - want_actual):
        return f"v_{d}(P^{n}) k={k}: (expected, actual, delta) {got}, want {want_expected}, {want_actual}"
    return None


@pytest.mark.parametrize("n,d,k", AH_FAST, ids=[f"v{d}P{n}k{k}" for n, d, k in AH_FAST])
def test_secant_dims_match_alexander_hirschowitz(n, d, k):
    assert _ah_mismatch(n, d, k) is None


@pytest.mark.slow
def test_full_alexander_hirschowitz_sweep():
    cases = _ah_sweep_cases()
    assert len(cases) == 4049
    mismatches = [m for m in (_ah_mismatch(*c) for c in cases) if m]
    assert not mismatches, mismatches


# -- span awareness -----------------------------------------------------------


def test_expected_dim_uses_the_measured_span():
    rng = random.Random(26)
    base = veronese(F, 1, 2)
    x0, x1, x2 = (MultiPoly.variable(F, 3, i) for i in range(3))
    img = map_image(base, [x0, x1, x2, x0 + 2 * x2, MultiPoly.zero(F, 3)], rng)
    assert img.span_dim() == 2
    assert expected_secant_dim(img, 1, rng) == 2  # span caps 2n+1 = 3
    actual, _ = terracini_dim(img, 1, rng)
    assert actual == 2


# -- tangential projections ---------------------------------------------------


def test_projection_annihilates_its_center_exactly():
    rng = random.Random(27)
    ver = veronese(F, 2, 3)
    projected, ws = tangential_projection(ver, 2, rng)
    center = Matrix.hstack([ver.tangent_frame(w) for w in ws])
    image = projected.proj.matmul(center)
    assert not any(any(row) for row in image.entries)

    # rank through the projection equals the span gained over the center
    w = ver.sample(rng)
    frame = ver.tangent_frame(w)
    lhs = exact_rank(projected.proj.matmul(frame))
    rhs = exact_rank(Matrix.hstack([center, frame])) - exact_rank(center)
    assert lhs == rhs == 3


def test_projection_center_filling_ambient_is_refused():
    rng = random.Random(28)
    ver = veronese(F, 2, 2)
    with pytest.raises(CenterFillsAmbient):
        tangential_projection(ver, 3, rng)  # 3 tangent planes fill P^5


def test_projected_curve_keeps_its_dimension():
    rng = random.Random(29)
    rnc = rational_normal_curve(F, 5)
    projected, _ = tangential_projection(rnc, 1, rng)
    assert projected.ambient_r == 3
    assert projected.intrinsic_dim(rng) == 1


# -- the defect tower ---------------------------------------------------------


def test_delta_tower_on_the_defective_quartic_veronese():
    rng = random.Random(30)
    ver = veronese(F, 2, 4)
    report = check_delta_tower(ver, 4, rng)
    assert report.delta_k == 1
    assert report.delta_one_projected == 1
    assert report.consistent
    assert report.center_rank == 9  # three disjoint tangent planes


def test_delta_tower_on_a_nondefective_surface():
    rng = random.Random(31)
    ver = veronese(F, 2, 3)
    report = check_delta_tower(ver, 2, rng)
    assert report.delta_k == 0
    assert report.delta_one_projected == 0
    assert report.consistent


def test_bad_indices_are_rejected():
    rng = random.Random(32)
    ver = veronese(F, 2, 2)
    with pytest.raises(ConfigError):
        terracini_dim(ver, -1, rng)
    with pytest.raises(ConfigError):
        check_delta_tower(ver, 0, rng)
