"""Handles: sampling, chart jets, composition, blueprints."""

import ast
import gc
import hashlib
import itertools
import json
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terracini import algebra, cli, varieties
from terracini.algebra import FieldSpec, Matrix, MultiPoly, exact_rank, inverse, normalize_point
from terracini.errors import ConfigError, ConstructionError, DegenerateWitness
from terracini.instances import SUITE_MEMBERS, builtin, builtin_blueprint
from terracini.secant import tangential_projection, terracini_dim
from terracini.varieties import (
    ProjectionHandle,
    build,
    cone,
    generic_hyperplane_section,
    hyperplane_section,
    hypersurface_section,
    implicit_plane_curve,
    map_image,
    rational_normal_curve,
    sample_distinct,
    veronese,
)

from oracles import (
    fermat_cubic_points,
    jet2_by_term_bookkeeping,
    rank_by_reverse_echelon,
    ruling_restriction_by_terms,
)
from test_cli import PINNED_TREES, map_image_chain

F = FieldSpec.prime(2147483647)
F257 = FieldSpec.prime(257)


def coordinates(field, n):
    """The coordinate functions x_0, ..., x_{n-1} as polynomials."""
    return [MultiPoly(field, n, {tuple(int(j == i) for j in range(n)): 1}) for i in range(n)]


def fermat_cubic(field):
    return MultiPoly.from_int_terms(field, 3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])


def embed_with_padding(curve, pad, rng):
    field = curve.field
    comps = coordinates(field, 3) + [MultiPoly(field, 3, {})] * pad
    return map_image(curve, comps, rng)


def cone_over_embedded_curve(rng, field=F):
    """Fermat cubic in the first 3 of 5 coordinates, vertex line e3^e4."""
    curve = implicit_plane_curve(field, fermat_cubic(field), 1, rng)
    emb = embed_with_padding(curve, 2, rng)
    vertex = Matrix.from_columns(
        field,
        [
            [field.scalar(1 if i == 3 else 0) for i in range(5)],
            [field.scalar(1 if i == 4 else 0) for i in range(5)],
        ],
    )
    return cone(emb, vertex)


def random_cubic_terms(nvars, seed):
    """A cubic form with every monomial, as a tree's integer terms."""
    rng = random.Random(seed)
    return [
        [rng.randrange(1, 2**30), list(e)]
        for e in itertools.product(range(4), repeat=nvars)
        if sum(e) == 3
    ]


def random_cubic_form(field, nvars, seed):
    return MultiPoly.from_int_terms(field, nvars, random_cubic_terms(nvars, seed))


# -- two independent routes to the same conic --------------------------------


def test_conic_two_routes_share_tangent_lines():
    """The parametric conic and its implicit equation agree pointwise and
    to first order, checked by stacking frames at a shared point."""
    from terracini.varieties import Witness

    rng = random.Random(31)
    par = veronese(F, 1, 2)  # [1 : u : u^2]
    eqn = MultiPoly.from_int_terms(F, 3, [(1, (1, 0, 1)), (-1, (0, 2, 0))])  # x0 x2 - x1^2
    imp = implicit_plane_curve(F, eqn, 0, rng)

    for _ in range(5):
        w = par.sample(rng)
        assert eqn.evaluate(w.raw) == 0

    # shared point: [1 : u : u^2] ~ (1/u^2, 1/u, 1)
    u = F.scalar(87123)
    raw = par._eval_map((u,))
    wp = Witness((u,), raw)
    inv = inverse(u, F.modulus)
    affine = (inv * inv % F.modulus, inv)
    wi = Witness(affine, (affine[0], affine[1], 1))

    frame_p = par.tangent_frame(wp)
    frame_i = imp.tangent_frame(wi)
    assert exact_rank(frame_p) == 2
    assert exact_rank(frame_i) == 2
    # the affine cones over the two tangent lines coincide as subspaces
    stacked = Matrix.from_columns(F, frame_p.columns() + frame_i.columns())
    assert exact_rank(stacked) == 2


# -- curve sampling against the exhaustive point list ------------------------


def test_curve_samples_live_on_the_exhaustive_point_set():
    # 257 = 2 mod 3, so cubing is a bijection and the count is exactly p + 1
    pts = fermat_cubic_points(257)
    assert len(pts) == 258

    rng = random.Random(5)
    curve = implicit_plane_curve(F257, fermat_cubic(F257), 1, rng)
    seen = set()
    for _ in range(30):
        w = curve.sample(rng)
        assert normalize_point(w.raw, 257) in pts
        seen.add(normalize_point(w.raw, 257))
    assert len(seen) >= 10  # line cuts spread over the curve


# -- frame ranks against an independent elimination -------------------------


def test_frame_rank_matches_reverse_echelon_oracle():
    rng = random.Random(12)
    ver = veronese(F, 2, 2)
    w = ver.sample(rng)
    frame = ver.tangent_frame(w)
    rows = [list(row) for row in frame.entries]
    assert exact_rank(frame) == rank_by_reverse_echelon(rows, F.modulus) == 3


def test_intrinsic_dim_agrees_with_chart_dim_on_honest_handles():
    rng = random.Random(40)
    assert veronese(F, 2, 3).intrinsic_dim(rng) == 2
    assert rational_normal_curve(F, 4).intrinsic_dim(rng) == 1
    K = cone_over_embedded_curve(rng)
    assert K.intrinsic_dim(rng) == K.chart_dim == 3


# -- jets --------------------------------------------------------------------


def _assert_taylor_exact(handle, chart_map, rng):
    """The chart 2-jet reproduces an exactly quadratic chart map at any
    offset, not just infinitesimally.  ``second`` is read only after the
    first-order frame at the same witness."""
    p = F.modulus
    half = inverse(2, p)
    n = handle.chart_dim
    for _ in range(3):
        w = handle.sample(rng)
        frame = handle.tangent_frame(w)
        jet = handle.chart_jet2(w)
        assert frame == Matrix.from_columns(F, [jet.point] + list(jet.first))
        for _ in range(4):
            h = [F.random_scalar(rng) for _ in range(n)]
            direct = chart_map(tuple((t + d) % p for t, d in zip(w.params, h)))
            pred = list(jet.point)
            for a in range(n):
                for i, v in enumerate(jet.first[a]):
                    pred[i] += h[a] * v
            for a in range(n):
                for b in range(n):
                    c = half * h[a] * h[b]
                    for i, v in enumerate(jet.second[a][b]):
                        pred[i] += c * v
            assert tuple(x % p for x in pred) == direct


def test_quadratic_map_taylor_is_exact():
    rng = random.Random(64)
    ver = veronese(F, 2, 2)
    _assert_taylor_exact(ver, ver._eval_map, rng)

    proj = Matrix(F, [[F.random_scalar(rng) for _ in range(6)] for _ in range(4)])
    projected = ProjectionHandle(ver, proj, "projected-veronese", span_r=3)
    _assert_taylor_exact(projected, lambda u: proj.matvec(ver._eval_map(u)), rng)

    # linear re-embedding into P^7 frees two coordinates for a vertex line
    emb = map_image(ver, coordinates(F, 6) + [MultiPoly(F, 6, {})] * 2, rng)
    vertex = Matrix.from_columns(F, [[F.scalar(1 if i == j else 0) for i in range(8)] for j in (6, 7)])
    K = cone(emb, vertex)
    _assert_taylor_exact(K, lambda t: K._point(emb._apply(ver._eval_map(t[:2])), t[2:]), rng)


class _Poisoned:
    """A coefficient of the compiled Hessian table: evaluating its entry
    multiplies it by a monomial value."""

    def __mul__(self, other):
        raise AssertionError("a second derivative was evaluated")

    __rmul__ = __mul__


def _poison_second_derivatives(handle):
    jets = handle.jets
    chain, rows = jets.hessian_table
    assert rows, "a kernel without second derivatives proves nothing here"
    jets.hessian_table = (chain, tuple((pos, [(j, _Poisoned()) for j, _ in pairs]) for pos, pairs in rows))


def _kernel_layers(handle):
    """The handle and every base below it that owns a jet kernel, top first."""
    layers = []
    while handle is not None:
        if hasattr(handle, "jets"):
            layers.append(handle)
        handle = getattr(handle, "base", None)
    return layers


def _assert_first_order_untouched(clean, poisoned, rng, ks):
    for _ in range(3):
        w = clean.sample(rng)
        assert poisoned.tangent_frame(w) == clean.tangent_frame(w)
    with pytest.raises(AssertionError):
        poisoned.chart_jet2(w).second
    for k in ks:
        assert terracini_dim(poisoned, k, random.Random(k)) == terracini_dim(clean, k, random.Random(k))


def test_frames_and_secant_dims_never_evaluate_second_derivatives():
    clean, poisoned = veronese(F, 2, 3), veronese(F, 2, 3)
    _poison_second_derivatives(poisoned)
    _assert_first_order_untouched(clean, poisoned, random.Random(93), (1, 2, 3))

    # counter2 stacks a section over a cone over a map image of a plane curve
    clean2, poisoned2 = (builtin("counter2", F, random.Random(7)) for _ in range(2))
    layers = list(zip(_kernel_layers(clean2), _kernel_layers(poisoned2)))
    assert [c.kind for c, _ in layers] == ["section", "map_image", "implicit_plane_curve"]
    for _, poisoned_layer in layers:
        _poison_second_derivatives(poisoned_layer)
    for clean_layer, poisoned_layer in layers:
        _assert_first_order_untouched(clean_layer, poisoned_layer, random.Random(94), (1, 2))


def test_curve_jet_kills_its_own_equation_to_second_order():
    rng = random.Random(88)
    f = fermat_cubic(F)
    curve = implicit_plane_curve(F, f, 1, rng)
    for _ in range(4):
        jet = curve.pullback_poly_jet2(f, curve.sample(rng))
        assert jet.value == 0
        assert jet.gradient_is_zero()
        assert not any(any(row) for row in jet.hessian)


def test_section_chart_kills_constraints_to_second_order():
    rng = random.Random(5150)
    K = cone_over_embedded_curve(rng)
    H = random_cubic_form(F, 5, seed=17)
    S = hypersurface_section(K, H, rng)
    assert S.chart_dim == 2

    for _ in range(3):
        jet = S.pullback_poly_jet2(H, S.sample(rng))
        assert jet.value == 0
        assert jet.gradient_is_zero()
        assert not any(any(row) for row in jet.hessian)

    Sh = generic_hyperplane_section(S, rng)
    assert Sh.chart_dim == 1
    w = Sh.sample(rng)
    for g in Sh.constraints:
        jet = Sh.pullback_poly_jet2(g, w)
        assert jet.value == 0
        assert jet.gradient_is_zero()
        assert not any(any(row) for row in jet.hessian)
    assert Sh.intrinsic_dim(rng) == 1


def test_section_jet_reduces_its_gradients_once(monkeypatch):
    """A section chart's rank check, kernel and every second-order
    correction are read off one reduction of its constraint gradients."""
    rng = random.Random(12)
    x = builtin("counter3-n3", F, rng)
    w = x.sample(rng)
    reduce, calls = algebra._gauss_jordan, []

    def counted(rows, p):
        calls.append(len(rows))
        return reduce(rows, p)

    monkeypatch.setattr(algebra, "_gauss_jordan", counted)
    x.chart_jet2(w).second
    assert x.kind == "section"
    assert len(calls) == 1


def test_section_over_parametric_solves_one_constraint():
    rng = random.Random(321)
    ver = veronese(F, 2, 2)
    g = random_cubic_form(F, 6, seed=9)
    S = hypersurface_section(ver, g, rng)
    assert S.chart_dim == 1
    for _ in range(3):
        w = S.sample(rng)
        assert g.evaluate(w.raw) == 0
        jet = S.pullback_poly_jet2(g, w)
        assert jet.gradient_is_zero()
        assert not any(any(row) for row in jet.hessian)


@pytest.mark.parametrize("name", ["counter1", "counter2", "counter3-n3"])
def test_ruling_form_matches_direct_restriction(name):
    """The per-handle form g(y + V mu), evaluated at y, is the constraint
    restricted to the ruling over y, term for term.  The threefold is also
    cut by a hyperplane, which gives a second, linear constraint.  Random
    points lie on the cone base's coordinate support, with zeros elsewhere,
    as every point a caller passes does."""
    x = cli._construct(cli.RunConfig({"variety": name}))
    if name == "counter3-n3":
        x = generic_hyperplane_section(x, random.Random(5))
        assert len(x.constraints) == 2
    field, vertex = x.field, x.base.vertex
    columns = [list(col) for col in vertex.columns()]
    terms = [[(c, e) for e, c in g.terms.items()] for g in x.constraints]
    support = x.base.base.coord_support
    rng = random.Random(314)
    for trial in range(5):
        if trial == 0:
            y = [0] * (x.ambient_r + 1)  # every coefficient but g(V mu)'s vanishes
        elif trial < 3:
            y = [field.random_scalar(rng) if i in support else 0 for i in range(x.ambient_r + 1)]
        else:
            base = x.base.base
            y = base.sample(rng).raw
        direct = [ruling_restriction_by_terms(t, columns, y, field.modulus) for t in terms]
        assert x._restrict_to_ruling(y) == direct


@pytest.mark.parametrize("name", ["counter1", "counter3-n3"])
def test_compiled_ruling_restriction_matches_term_by_term_oracle(name):
    """The compiled restriction to a ruling agrees with each constraint
    expanded term by term as g(y + V mu) on plain integers, at the vertex
    (y = 0), at random points on the base curve's coordinate support (zero
    elsewhere) and at points of the base curve's image."""
    x = cli._construct(cli.RunConfig({"variety": name}))
    if name == "counter3-n3":
        x = generic_hyperplane_section(x, random.Random(6))
    p, vertex = x.field.modulus, x.base.vertex
    columns = [list(col) for col in vertex.columns()]
    terms = [[(c, e) for e, c in g.terms.items()] for g in x.constraints]
    base = x.base.base
    rng = random.Random(2718)
    points = [[0] * (x.ambient_r + 1)]
    points += [[rng.randrange(p) if i in base.coord_support else 0 for i in range(x.ambient_r + 1)] for _ in range(4)]
    points += [list(base.sample(rng).raw) for _ in range(4)]
    for y in points:
        expected = [ruling_restriction_by_terms(t, columns, y, p) for t in terms]
        assert x._restrict_to_ruling(y) == expected


@pytest.mark.parametrize("name", ["counter1", "counter3-n3"])
def test_restrict_to_ruling_refuses_a_point_off_the_base_support(name):
    """The ruling kernel reads y only on the cone base's coordinate support,
    so a point that is nonzero on a vertex coordinate is refused rather than
    restricted wrongly."""
    x = cli._construct(cli.RunConfig({"variety": name}))
    support = x.base.base.coord_support
    y = list(x.base.base.sample(random.Random(9)).raw)
    x._restrict_to_ruling(y)
    for i in range(x.ambient_r + 1):
        if i not in support:
            bad = y[:]
            bad[i] = 1
            with pytest.raises(ConstructionError, match="off the cone base's coordinate support"):
                x._restrict_to_ruling(bad)


@st.composite
def dense_ruling_cases(draw):
    """One or two constraints of degree <= 3 in 2-6 coordinates, a vertex of
    1-3 dense random columns (the built-ins only have unit columns), and
    points: y = 0 and two random ones."""
    p = draw(st.sampled_from([1009, 2147483647]))
    field = FieldSpec.prime(p)
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    # a monomial of degree <= 3 as the list of its variables, repeats allowed
    expo = st.lists(st.integers(0, n - 1), max_size=3).map(lambda xs: tuple(xs.count(i) for i in range(n)))
    constraints = [
        MultiPoly(field, n, draw(st.dictionaries(expo, entry, min_size=1, max_size=6)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    m = draw(st.integers(1, 3))
    columns = [draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) for _ in range(m)]
    points = [[0] * n] + [draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) for _ in range(2)]
    return field, constraints, columns, points


@given(dense_ruling_cases())
@settings(max_examples=60, deadline=None)
def test_ruling_forms_match_term_by_term_oracle_on_dense_vertices(case):
    """The ruling kernel, evaluated at y and grouped by constraint, is each
    constraint expanded term by term as g(y + V mu), for a vertex whose
    columns mix every coordinate, with every coordinate as the support."""
    field, constraints, columns, points = case
    support = frozenset(range(len(columns[0])))
    keys, jets = varieties._ruling_forms(constraints, Matrix.from_columns(field, columns), support)
    assert len(set(keys)) == len(keys)
    terms = [[(c, e) for e, c in g.terms.items()] for g in constraints]
    for y in points:
        grouped = [{} for _ in constraints]
        for (k, mu_e), c in zip(keys, jets.values(jets.powers(y))):
            if c:
                grouped[k][mu_e] = c
        assert grouped == [ruling_restriction_by_terms(t, columns, y, field.modulus) for t in terms]


def test_only_varieties_reads_section_internals():
    """How a section of a cone restricts to a ruling is known in one module:
    every other module asks the handle (``_ruling_points``) instead of
    reading its constraints or its ruling kernel."""
    internals = {"constraints", "_ruling_keys", "_ruling_jets"}
    package = Path(varieties.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "varieties.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not names & internals, f"{path.name} reads {sorted(names & internals)}"


def test_fiber_scan_asks_the_handles_for_ruling_points_and_witnesses():
    """The fiber scan neither restricts a section to a ruling nor builds a
    witness: it reads no ``_restrict_to_ruling``, constructs no ``Witness``
    and imports no line restriction or root finder.  The handles do that
    (``_ruling_points``, ``_witness_at``, ``_witness_over``,
    ``_ruling_witness``)."""
    tree = ast.parse((Path(varieties.__file__).parent / "fiber.py").read_text(encoding="utf-8"))
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    imported = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    called = {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    called |= {n.func.attr for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert "_restrict_to_ruling" not in attrs
    assert "Witness" not in called | imported
    assert not imported & {"restrict_univariate", "uni_roots_mod_p"}



def _source_tree(module):
    return ast.parse((Path(varieties.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


def _definitions(tree):
    """(qualified name, node) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _calls(node, name):
    """How many calls under node go to a function or method of this name."""
    return sum(
        1
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    )


def _callers(tree, name):
    """The functions and methods that call name; asserts that nothing
    outside them does."""
    found = {qual: _calls(node, name) for qual, node in _definitions(tree)}
    assert sum(found.values()) == _calls(tree, name), f"{name} is called outside any function"
    return {qual for qual, count in found.items() if count}


def test_each_handle_kind_builds_witnesses_in_one_method():
    """Every handle kind constructs ``Witness`` in one builder, which its
    draws and the fiber scan call, and no other module constructs one; the
    ambient point is normalized only on the curve's chart and to key
    distinct draws."""
    tree = _source_tree("varieties")
    assert _callers(tree, "Witness") == {
        "ParametricHandle._witness_at",
        "ImplicitPlaneCurveHandle._witness_at",
        "MapImageHandle._witness_over",
        "ConeHandle._witness_on",
        "SectionHandle._witness_over",
        "ProjectionHandle._witness_over",
    }
    assert _callers(tree, "normalize_point") == {"ImplicitPlaneCurveHandle._witness_at", "sample_distinct"}
    for path in sorted(Path(varieties.__file__).parent.glob("*.py")):
        if path.name != "varieties.py":
            assert not _calls(ast.parse(path.read_text(encoding="utf-8")), "Witness"), path.name


def test_draw_path_and_fiber_scan_read_term_maps():
    """Cone draws, ruling points, line restrictions and the fiber scan read
    term maps: they wrap nothing in a ``MultiPoly`` and evaluate none."""
    var, alg = dict(_definitions(_source_tree("varieties"))), dict(_definitions(_source_tree("algebra")))
    for what, node in [
        ("_sample_cone", var["SectionHandle._sample_cone"]),
        ("_ruling_points", var["SectionHandle._ruling_points"]),
        ("_random_root", var["_random_root"]),
        ("restrict_univariate", alg["restrict_univariate"]),
        ("fiber.py", _source_tree("fiber")),
    ]:
        for name in ("MultiPoly", "from_int_terms", "evaluate"):
            assert not _calls(node, name), f"{what} calls {name}"

def test_compiled_veronese_kernel_stores_only_nonzero_derivatives():
    """v_2(P^14) has 120 coordinates in 14 chart variables: 1,680 first
    derivatives, of which only the 14 + 196 of the linear and quadratic
    monomials are nonzero, and 196 nonzero Hessian entries."""
    jets = veronese(F, 14, 2).jets
    chain, rows = jets.value_table
    assert len(rows) == 120
    assert len(chain) + 1 == 120  # slot 0, the constant monomial, has no entry
    _, rows = jets.gradient_table
    assert len(rows) == 210
    assert all(len(pairs) == 1 for _, pairs in rows)
    assert "hessian_table" not in vars(jets)  # compiled on first use only
    chain, rows = jets.hessian_table
    assert len(rows) == 14 + 2 * 91 and chain == ()


@pytest.mark.parametrize("kernel", ["jets", "_ruling_jets"])
def test_dense_section_kernels_match_term_by_term_oracle(kernel):
    """counter2's section kernel (one cubic with all 165 monomials in nine
    coordinates) and its ruling kernel (ten coefficient forms over 120
    monomial slots), every order at three points, against the term-by-term
    2-jet."""
    x = cli._construct(cli.RunConfig({"variety": "counter2"}))
    jets = getattr(x, kernel)
    if kernel == "jets":
        assert [len(f.terms) for f in jets.polys] == [165]
    rng = random.Random(28)
    p = jets.p
    for _ in range(3):
        point = [rng.randrange(p) for _ in range(jets.nvars)]
        powers = jets.powers(point)
        values, grads, hessians = jets.values(powers), jets.gradients(powers), jets.hessians(powers)
        for k, f in enumerate(jets.polys):
            ref = jet2_by_term_bookkeeping(f, point)
            assert (values[k], grads[k], hessians[k]) == (ref.value, ref.gradient, ref.hessian)


def test_compiled_kernels_are_freed_with_their_handle():
    """No cache outside a handle keeps its kernels or their tables alive."""
    x = cli._construct(cli.RunConfig({"variety": "counter1"}))
    w = x.sample(random.Random(31))
    assert x.chart_jet2(w).second
    refs = [weakref.ref(x.jets), weakref.ref(x._ruling_jets)]
    del x, w
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _compiled_orders(jets):
    return [t for t in ("value_table", "gradient_table", "hessian_table") if t in vars(jets)]


@pytest.mark.parametrize("name", ["counter1", "counter3-n3"])
def test_kernels_compile_only_the_orders_they_read(name):
    """Sampling a cone section evaluates its constraints and its ruling
    forms but differentiates neither; a full chart 2-jet differentiates the
    constraints twice and still never the ruling forms."""
    x = cli._construct(cli.RunConfig({"variety": name}))
    if name == "counter3-n3":
        x = generic_hyperplane_section(x, random.Random(6))
    w = x.sample(random.Random(31))
    assert _compiled_orders(x.jets) == ["value_table"]
    assert _compiled_orders(x._ruling_jets) == ["value_table"]
    assert x.chart_jet2(w).second
    assert _compiled_orders(x.jets) == ["value_table", "gradient_table", "hessian_table"]
    assert _compiled_orders(x._ruling_jets) == ["value_table"]


@pytest.mark.parametrize(
    "tree",
    [
        {"constructor": "veronese", "n": "2", "d": 2},
        {"constructor": "veronese", "n": 2},
        {"constructor": "cone", "base": {"constructor": "rnc", "d": 2}, "vertex": 5},
        # one past the caps on polynomial degree and projection points
        {"constructor": "implicit_plane_curve", "terms": [[1, [61, 60, 0]]], "genus_hint": 1},
        {"constructor": "tangential_projection", "base": {"constructor": "rnc", "d": 2}, "points": 121},
        # a negative exponent must not hide a large one from the degree bound
        {"constructor": "implicit_plane_curve", "terms": [[1, [10**9, -10**9, 3]]], "genus_hint": 1},
    ],
)
def test_build_rejects_an_unchecked_tree_before_any_draw(tree):
    """A library caller that skips config validation gets the config
    check's message as a ``ConstructionError``, not a bare Python error,
    and nothing is drawn from its rng."""
    with pytest.raises(ConfigError) as checked:
        varieties.check_tree(tree)
    rng = random.Random(9)
    state = rng.getstate()
    with pytest.raises(ConstructionError) as built:
        build(tree, F, rng)
    assert str(built.value) == str(checked.value)
    assert rng.getstate() == state


def test_tree_caps_admit_the_cap_itself():
    """Polynomial degree, projection points and tree depth are bounded by
    the ambient cap, which is itself allowed."""
    varieties.check_tree({"constructor": "implicit_plane_curve", "terms": [[1, [60, 60, 0]]], "genus_hint": 1})
    varieties.check_tree({"constructor": "tangential_projection", "base": {"constructor": "rnc", "d": 2}, "points": 120})
    varieties.check_tree(map_image_chain(120))


def test_only_build_writes_variety_trees():
    """The tree format is known to ``CONSTRUCTORS`` and ``build`` alone: only
    ``varieties._build`` assigns a handle's ``blueprint``, and no module
    but ``instances.py``, which pins the built-in trees, writes a tree node
    (a dict literal with a "constructor" key)."""
    stores, node_writers = [], set()
    for path in sorted(Path(varieties.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                child.parent = parent
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "blueprint" and isinstance(node.ctx, ast.Store):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = scope.parent
                stores.append((path.name, getattr(scope, "name", None)))
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "constructor" for k in node.keys
            ):
                node_writers.add(path.name)
    assert stores == [("varieties.py", "_build")]
    assert node_writers <= {"instances.py"}


def test_off_section_witness_is_rejected():
    rng = random.Random(5150)
    K = cone_over_embedded_curve(rng)
    H = random_cubic_form(F, 5, seed=17)
    S = hypersurface_section(K, H, rng)
    stray = K.sample(rng)  # generic cone point misses the cubic
    assert H.evaluate(stray.raw) != 0
    with pytest.raises(DegenerateWitness):
        S.chart_jet2(type(stray)(stray.params, stray.raw, base=stray))


# -- bookkeeping --------------------------------------------------------------


def test_cone_rejects_overlapping_vertex():
    rng = random.Random(2)
    curve = implicit_plane_curve(F, fermat_cubic(F), 1, rng)
    emb = embed_with_padding(curve, 2, rng)
    bad = Matrix.from_columns(F, [[F.scalar(1 if i == 0 else 0) for i in range(5)]])
    with pytest.raises(ConstructionError):
        cone(emb, bad)


def test_map_image_measures_its_span():
    rng = random.Random(77)
    base = veronese(F, 1, 2)
    comps = [*coordinates(F, 3), MultiPoly(F, 3, {(1, 0, 0): 1, (0, 0, 1): 2}), MultiPoly(F, 3, {})]
    img = map_image(base, comps, rng)
    assert img.ambient_r == 4
    assert img.span_dim() == 2  # one dependent and one zero coordinate
    assert sorted(img.coord_support) == [0, 1, 2, 3]


def test_veronese_respects_ambient_cap():
    with pytest.raises(ConstructionError):
        veronese(F, 2, 15)  # 135 coordinates


def test_veronese_cap_is_checked_before_listing_monomials(monkeypatch):
    def no_listing(n, d):
        raise AssertionError("monomials listed past the ambient cap")

    monkeypatch.setattr(varieties, "_monomial_exponents", no_listing)
    for make in (
        lambda: veronese(F, 14, 14),
        lambda: veronese(F, 10**18, 10**18),
    ):
        with pytest.raises(ConstructionError, match="exceeds cap 120"):
            make()
    with pytest.raises(ConstructionError, match=r"^rnc\(100000000\) ambient dimension exceeds cap 120$"):
        rational_normal_curve(F, 10**8)


def test_cone_and_section_span_bookkeeping():
    rng = random.Random(303)
    K = cone_over_embedded_curve(rng)
    assert K.span_dim() == 4
    S = hypersurface_section(K, random_cubic_form(F, 5, seed=23), rng)
    assert S.span_dim() == 4  # nonlinear cuts do not shrink the span
    Sh = generic_hyperplane_section(S, rng)
    assert Sh.span_dim() == 3


def _raw_from_base(handle, w):
    """The ambient representative of a witness of this handle, recomputed
    by plain polynomial evaluation from its params and its base's ``raw``."""
    p = F.modulus
    if handle.kind == "parametric":
        return tuple(g.evaluate(w.params) for g in handle.polys)
    if handle.kind == "implicit_plane_curve":
        return (w.params[0], w.params[1], 1)
    if handle.kind == "map_image":
        return tuple(g.evaluate(w.base.raw) for g in handle.polys)
    if handle.kind == "cone":
        mu = w.params[len(w.params) - handle.m :]
        return tuple(
            (y + sum(v * c for v, c in zip(handle.vertex.row(i), mu))) % p for i, y in enumerate(w.base.raw)
        )
    if handle.kind == "section":
        return w.base.raw
    assert handle.kind == "projection"
    return handle.proj.matvec(w.base.raw)


def test_witness_reevaluation_matches_its_point():
    """Every layer of every sampled witness chain stores the representative
    its chart map gives, normalizes it to its point, and hands it to its
    chart jet as the jet's point."""
    rng = random.Random(404)
    zoo = [
        veronese(F, 2, 2),
        implicit_plane_curve(F, fermat_cubic(F), 1, rng),
        cone_over_embedded_curve(rng),
    ]
    zoo.append(hypersurface_section(zoo[2], random_cubic_form(F, 5, seed=61), rng))
    zoo.append(hypersurface_section(zoo[0], random_cubic_form(F, 6, seed=62), rng))
    zoo.append(tangential_projection(veronese(F, 2, 3), 1, rng)[0])
    kinds = set()
    for handle in zoo:
        for _ in range(3):
            layer, w = handle, handle.sample(rng)
            while w is not None:
                kinds.add(layer.kind)
                assert w.raw == _raw_from_base(layer, w)
                assert layer.chart_jet2(w).point == w.raw
                layer, w = getattr(layer, "base", None), w.base
            assert layer is None
    assert kinds == {"parametric", "implicit_plane_curve", "map_image", "cone", "section", "projection"}


def test_distinct_sampling_never_repeats():
    rng = random.Random(9)
    ws = sample_distinct(veronese(F, 1, 3), 8, rng)
    keys = {normalize_point(w.raw, F.modulus) for w in ws}
    assert len(keys) == 8


# -- the draw streams ---------------------------------------------------------


# sha256 prefixes of the normalized points of 30 draws and 5 distinct
# witnesses of each handle, and of the generator's final state: a change
# that moves any draw of any handle kind changes its pin
DRAW_PINS = {
    "veronese-2-3": "6e1bdde7e6fa009b",
    "rnc-5": "4f2e3f64aac72172",
    "fermat-curve": "cfa38daffaab15cc",
    "counter1": "2fad0ecb8eb32cf5",
    "counter2": "a0526e3e10b0ed2e",
    "counter3-n3": "473741b4483c7e1c",
    "counter3-n3-cut": "c2a326039f25acc5",
    "veronese-2-2-cut": "3b9a5188db6db7a7",
    "veronese-2-3-projected": "126da868f862dd39",
}


def _pinned_handle(name, rng):
    if name == "fermat-curve":
        return implicit_plane_curve(F, fermat_cubic(F), 1, rng)
    if name.endswith("-cut"):
        return generic_hyperplane_section(builtin(name[: -len("-cut")], F, rng), rng)
    if name.endswith("-projected"):
        return tangential_projection(builtin(name[: -len("-projected")], F, rng), 1, rng)[0]
    return builtin(name, F, rng)


@pytest.mark.parametrize("name", DRAW_PINS)
def test_draw_streams_are_pinned(name):
    handle = _pinned_handle(name, random.Random(3101))
    rng = random.Random(3102)
    ws = [handle.sample(rng) for _ in range(30)] + sample_distinct(handle, 5, rng)
    points = [normalize_point(w.raw, F.modulus) for w in ws]
    digest = hashlib.sha256(repr((points, rng.getstate())).encode()).hexdigest()
    assert digest[:16] == DRAW_PINS[name]


def test_blueprint_rebuild_across_primes():
    rng = random.Random(1212)
    # cone_over_embedded_curve, cut by a cubic and then by a hyperplane
    coned = {
        "constructor": "cone",
        "base": {
            "constructor": "map_image",
            "base": {
                "constructor": "implicit_plane_curve",
                "terms": [[1, [3, 0, 0]], [1, [0, 3, 0]], [1, [0, 0, 3]]],
                "genus_hint": 1,
            },
            "components": [[[1, [1, 0, 0]]], [[1, [0, 1, 0]]], [[1, [0, 0, 1]]], [], []],
            "arity": 3,
        },
        "vertex": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    }
    tree = {
        "constructor": "hyperplane_section",
        "base": {"constructor": "hypersurface_section", "base": coned, "h": random_cubic_terms(5, seed=41)},
        "hyperplane": [rng.randrange(1, 2**30) for _ in range(5)],
    }
    Sh = build(tree, F, rng)

    wire = json.dumps(Sh.blueprint, sort_keys=True)
    bp = json.loads(wire)
    for p in (1009, 2003):
        rebuilt = build(bp, FieldSpec.prime(p), random.Random(6))
        assert rebuilt.kind == "section"
        assert rebuilt.chart_dim == Sh.chart_dim
        assert rebuilt.ambient_r == Sh.ambient_r
        w = rebuilt.sample(random.Random(8))
        for g in rebuilt.constraints:
            assert g.evaluate(w.raw) == 0


def counter1_with_a_negative_coefficient():
    tree = json.loads(json.dumps(builtin_blueprint("counter1")))
    tree["h"][0][0] = -1
    return tree


BLUEPRINT_TREES = {
    "cone-section-with-minus-one": counter1_with_a_negative_coefficient(),
    "map-image": {
        "constructor": "map_image",
        "base": {"constructor": "rnc", "d": 2},
        "components": [[[1, [2, 0, 0]]], [[1, [1, 1, 0]], [-3, [0, 0, 2]]], [[1, [0, 2, 0]]], []],
        "arity": 3,
    },
    "hyperplane-section": PINNED_TREES["hyperplane-cut-veronese-3-2"],
}


@pytest.mark.parametrize("name", sorted(BLUEPRINT_TREES))
def test_build_keeps_the_given_subtree_at_every_node(name, monkeypatch):
    """Every handle ``build`` returns, at every level of the tree, carries
    the subtree it was built from, not one re-derived from reduced field
    data: a -1 stays -1, and reduces to p - 1 over every enumeration prime."""
    tree = BLUEPRINT_TREES[name]
    built, real_build = [], varieties._build

    def recording_build(blueprint, field, rng, label=None):
        handle = real_build(blueprint, field, rng, label)
        built.append((blueprint, handle))
        return handle

    # ``build`` checks the tree once, then builds every node through ``_build``
    monkeypatch.setattr(varieties, "_build", recording_build)
    x = varieties.build(tree, F, random.Random(3))
    depth, node = 0, tree
    while node is not None:
        depth, node = depth + 1, node.get("base")
    assert len(built) == depth
    assert all(handle.blueprint == node for node, handle in built)
    assert x.blueprint == tree
    if name == "cone-section-with-minus-one":
        small = build(x.blueprint, FieldSpec.prime(1009), random.Random(4))
        coeff, expo = tree["h"][0]
        assert small.constraints[0].terms[tuple(expo)] == 1008


@pytest.mark.parametrize("name", ["veronese-3-2", "counter3-n3"])
def test_both_cut_paths_give_the_same_constraints(name):
    """A tree's ``hyperplane_section`` node and a ``hyperplane_section`` call
    make the same cut from the same coefficients, over a parametric chart and
    over a section, whose constraint list the cut extends."""
    x = builtin(name, F, random.Random(21))
    rng = random.Random(22)
    coeffs = [rng.randrange(1, 2**30) for _ in range(x.ambient_r + 1)]
    called = hyperplane_section(x, coeffs, rng)
    tree = {"constructor": "hyperplane_section", "base": x.blueprint, "hyperplane": coeffs}
    built = build(tree, F, random.Random(23))
    assert built.constraints == called.constraints
    assert len(built.constraints) == (2 if name == "counter3-n3" else 1)


# -- the field-element representation -------------------------------------------


def _assert_elements(values, p, what):
    bad = [v for v in values if type(v) is not int or not 0 <= v < p]
    assert not bad, f"{what} holds {bad[:3]}, not ints in [0, {p})"


@pytest.mark.parametrize("name", SUITE_MEMBERS + tuple(sorted(PINNED_TREES)))
def test_field_elements_are_ints_in_range(name, monkeypatch):
    """Every field element a handle hands out is a plain int in [0, p): a
    forgotten reduction would pass most other checks unnoticed."""
    roots = []

    def recording_roots(coeffs, p, rng=None):
        assert type(coeffs) is list
        _assert_elements(coeffs, p, f"{name} restricted coefficient list")
        out = real_roots(coeffs, p, rng)
        roots.extend(out)
        return out

    real_roots = varieties.uni_roots_mod_p
    monkeypatch.setattr(varieties, "uni_roots_mod_p", recording_roots)
    x = cli._construct(cli.RunConfig({"variety": PINNED_TREES.get(name, name)}))
    p = x.field.modulus
    rng = random.Random(2718)
    for w in sample_distinct(x, 2, rng):
        # every layer of a composite handle, with the witness it chains to
        handle = x
        while w is not None:
            what = f"{name}, {handle.kind} layer:"
            _assert_elements(w.params + normalize_point(w.raw, p), p, f"{what} witness")
            jet = handle.chart_jet2(w)
            _assert_elements(jet.point, p, f"{what} chart-jet point")
            _assert_elements([v for vec in jet.first for v in vec], p, f"{what} chart-jet first")
            second = [v for row in jet.second for vec in row for v in vec]
            _assert_elements(second, p, f"{what} chart-jet second")
            frame = handle.tangent_frame(w)
            _assert_elements([v for row in frame.entries for v in row], p, f"{what} tangent frame")
            handle, w = getattr(handle, "base", None), w.base
    projected, _ = tangential_projection(x, 1, rng)
    _assert_elements([v for row in projected.proj.entries for v in row], p, f"{name} projection")
    _assert_elements(roots, p, f"{name} root set")
    if name.startswith("counter"):
        assert roots  # curve and section sampling both root-find
