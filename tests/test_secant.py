"""Secant dimensions, defects, towers, tangential projections."""

import random
from math import comb

import pytest

from terracini import secant
from terracini.algebra import FieldSpec, Matrix, MultiPoly, exact_rank
from terracini.contact import check_nu_tower
from terracini.errors import CenterFillsAmbient, ConfigError, DegenerateWitness
from terracini.instances import builtin
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
    terracini_dim_ranking_every_trial,
)
from test_varieties import coordinates

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


# -- trials at the parameter count --------------------------------------------

# v_2(P^14) at k = 14 reaches its span, v_2(P^4) at k = 2 is defective, and
# v_4(P^2) at k = 3 reaches n(k+1) + k below its span
SKIP_CASES = [
    ("veronese-14-2", 14),
    ("veronese-4-2", 2),
    ("veronese-2-4", 3),
    ("rnc-5", 2),
    ("counter1", 1),
    ("counter2", 1),
    ("counter3-n3", 1),
]


@pytest.mark.parametrize("trials", [1, 3, 7])
@pytest.mark.parametrize("name, k", SKIP_CASES, ids=[f"{name}-k{k}" for name, k in SKIP_CASES])
def test_terracini_dim_matches_the_loop_that_ranks_every_trial(name, k, trials):
    """Skipping the ranks of trials that cannot raise the max changes no
    dimension, no witness and no draw of the caller's generator."""
    sides = []
    for run in (terracini_dim, terracini_dim_ranking_every_trial):
        x = builtin(name, F, random.Random(36))
        rng = random.Random(f"skip/{name}/{k}/{trials}")
        dim, ws = run(x, k, rng, trials=trials)
        sides.append((dim, [w.raw for w in ws], rng.getstate()))
    assert sides[0] == sides[1]


@pytest.mark.parametrize("n, d, k, stacked", [(2, 4, 3, 1), (4, 2, 2, 3)])
def test_trials_after_the_parameter_count_form_no_stacked_rank(monkeypatch, n, d, k, stacked):
    """v_4(P^2) reaches n(k+1) + k = 11 on its first trial, so the other two
    form no stacked rank; defective v_2(P^4) never reaches 14 and ranks all
    three.  A frame alone has n + 1 columns, a stacked one more."""
    calls = []

    def spy(m):
        if m.cols > n + 1:
            calls.append(m.cols)
        return exact_rank(m)

    monkeypatch.setattr(secant, "exact_rank", spy)
    dim, _ = terracini_dim(veronese(F, n, d), k, random.Random(38), trials=3)
    assert dim == ah_secant_dim(n, d, k)
    assert calls == [(k + 1) * (n + 1)] * stacked


# -- span awareness -----------------------------------------------------------


def test_defect_refuses_a_dimension_above_the_parameter_count(monkeypatch):
    """A handle that under-reports its span is caught by its own rank."""
    ver = veronese(F, 2, 2)
    monkeypatch.setattr(ver, "span_dim", lambda: 3)
    with pytest.raises(DegenerateWitness, match="measured dim 4 above the parameter count 3"):
        defect(ver, 1, random.Random(37))


def test_expected_dim_uses_the_measured_span():
    rng = random.Random(26)
    base = veronese(F, 1, 2)
    comps = [*coordinates(F, 3), MultiPoly(F, 3, {(1, 0, 0): 1, (0, 0, 1): 2}), MultiPoly(F, 3, {})]
    img = map_image(base, comps, rng)
    assert img.span_dim() == 2
    assert expected_secant_dim(img, 1, rng) == 2  # span caps 2n+1 = 3
    actual, _ = terracini_dim(img, 1, rng)
    assert actual == 2


@pytest.mark.parametrize("d, deltas", [(2, [0, 0, 0, 1]), (3, [0] * 9)])
def test_composed_veronese_images_read_their_whole_span(d, deltas):
    """v_2(v_d(P^2)) is v_2d(P^2) in another embedding.  Its span passes
    the 20 samples map_image starts from when d = 3, and its secants are
    those of v_2d(P^2), by Alexander-Hirschowitz."""
    rng = random.Random(1)
    base = veronese(F, 2, d)
    nv = base.ambient_r + 1
    quadrics = [
        MultiPoly(F, nv, {tuple(int(a == i) + int(a == j) for a in range(nv)): 1})
        for i in range(nv)
        for j in range(i, nv)
    ]
    img = map_image(base, quadrics, rng)
    assert img.span_dim() == comb(2 * d + 2, 2) - 1
    for k, delta in enumerate(deltas, start=1):
        profile = defect(img, k, rng)
        assert (profile.actual, profile.delta) == (ah_secant_dim(2, 2 * d, k), delta)


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
    assert report.generically_finite


def test_delta_tower_on_a_nondefective_surface():
    rng = random.Random(31)
    ver = veronese(F, 2, 3)
    report = check_delta_tower(ver, 2, rng)
    assert report.delta_k == 0
    assert report.delta_one_projected == 0
    assert report.consistent
    assert report.generically_finite


def test_delta_tower_records_a_projection_that_drops_dimension():
    """Projecting the quadratic Veronese surface from one tangent plane maps
    it onto a conic; the report reads that off the projected defect."""
    report = check_delta_tower(veronese(F, 2, 2), 2, random.Random(33))
    assert (report.dim_x, report.dim_projected) == (2, 1)
    assert not report.generically_finite


def test_nu_tower_records_a_projection_that_drops_dimension():
    """The nu tower shares the delta tower's body and so its record of the
    projection: the quadratic Veronese surface projects onto a conic."""
    report = check_nu_tower(veronese(F, 2, 2), 2, random.Random(33))
    assert (report.dim_x, report.dim_projected) == (2, 1)
    assert not report.generically_finite


def test_bad_indices_are_rejected():
    rng = random.Random(32)
    ver = veronese(F, 2, 2)
    with pytest.raises(ConfigError):
        terracini_dim(ver, -1, rng)
    with pytest.raises(ConfigError):
        check_delta_tower(ver, 0, rng)


def test_defect_refuses_bad_arguments_before_it_draws():
    """A bad index or trial count is refused before the dimension of x is
    measured, so the caller's generator and x's cached dimension are as
    they were."""
    ver = veronese(F, 2, 2)
    rng = random.Random(39)
    state = rng.getstate()
    for call in (
        lambda: defect(ver, -1, rng),
        lambda: defect(ver, 1, rng, trials=0),
        lambda: min_defective_k(ver, 3, rng, trials=0),
        lambda: check_delta_tower(ver, 2, rng, trials=0),
    ):
        with pytest.raises(ConfigError):
            call()
        assert rng.getstate() == state
        assert ver._dim_cache is None
