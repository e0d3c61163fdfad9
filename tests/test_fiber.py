"""Fiber probes: exhaustive preimage counts of tangential projections."""

import ast
import contextlib
import hashlib
import random
import tracemalloc
from math import isqrt, prod
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terracini import fiber
from terracini.algebra import FieldSpec, LinearSystem, Matrix, MultiPoly, exact_rank, is_prime, normalize_point
from terracini.errors import BudgetExhausted, ConfigError, DegenerateWitness
from terracini.fiber import (
    DEFAULT_FIBER_TRIALS,
    ENUM_BUDGET,
    FiberReport,
    _curve_points_int,
    _grade,
    _inverse_table,
    _scan_parametric,
    fiber_probe,
    tangent_functoriality_check,
)
from terracini.instances import ANALYSIS_PRIME, builtin, builtin_blueprint
from terracini.secant import tangential_projection
from terracini.seeding import derive_rng
from terracini.varieties import (
    MAX_RESAMPLE,
    MapImageHandle,
    Witness,
    build,
    cone,
    hypersurface_section,
    implicit_plane_curve,
    map_image,
    rational_normal_curve,
)

from oracles import (
    NOT_GENERICALLY_FINITE,
    fermat_cubic_points,
    fiber_counts_by_brute_force,
    rank_by_reverse_echelon,
    ruling_fiber_by_brute_force,
    tangential_projection_degree,
)
from test_varieties import counter1_with_a_negative_coefficient

FIELD = FieldSpec.prime(ANALYSIS_PRIME)


def handle(name, seed=7):
    return builtin(name, FIELD, random.Random(seed))


def test_verdict_grading_rules():
    # two primes agreeing on a max >= 2 decide, even when a third prime only
    # ever saw the forced rational preimage
    assert _grade({1009: (3, 1), 2003: (1, 3), 3001: (1, 1)}) == (
        3,
        "NonBirationalEvidence",
    )
    assert _grade({1009: (1, 1), 2003: (1, 1), 3001: (1, 1)}) == (
        1,
        "BirationalEvidence",
    )
    # any single count above 1 rules out birational, but one prime alone
    # cannot corroborate a degree
    assert _grade({1009: (1, 1), 2003: (1, 1), 3001: (3, 1)}) == (
        None,
        "Inconclusive",
    )
    # a single prime never decides either way
    assert _grade({1009: (1, 1)}) == (1, "Inconclusive")
    assert _grade({1009: (3, 3)}) == (3, "Inconclusive")


def test_cubic_veronese_projection_is_birational():
    rep = fiber_probe(handle("veronese-2-3"), 1, random.Random(11))
    assert rep.verdict == "BirationalEvidence"
    assert rep.consensus_d == 1
    assert rep.cardinalities == {
        1009: (1, 1, 1, 1, 1),
        2003: (1, 1, 1, 1, 1),
        3001: (1, 1, 1, 1, 1),
    }
    assert all(c >= 1 for counts in rep.cardinalities.values() for c in counts)


def test_rnc_projections_are_birational():
    x = handle("rnc-5")
    for k in (1, 2):
        rep = fiber_probe(x, k, random.Random(11))
        assert rep.verdict == "BirationalEvidence", (k, rep)


def test_weakly_defective_cone_has_triple_fibers():
    rep = fiber_probe(handle("counter1"), 1, random.Random(11))
    assert rep.verdict == "NonBirationalEvidence"
    assert rep.consensus_d == 3
    # some trials catch fibers whose extra points are conjugate over the
    # prime, so raw counts drop to 1 there; the maximum is the invariant
    assert rep.cardinalities == {
        1009: (3, 1, 1, 1, 1),
        2003: (1, 1, 3, 3, 3),
        3001: (3, 1, 3, 3, 3),
    }
    assert rep.center_hits == {1009: 10, 2003: 10, 3001: 10}
    assert rep.tangent_agreement is True


def test_defective_projection_reports_not_finite():
    rep = fiber_probe(handle("veronese-2-2"), 1, random.Random(11))
    assert rep.verdict == "NotGenericallyFinite"
    assert rep.cardinalities == {}
    assert rep.consensus_d is None


def test_budget_guard_rejects_threefold_grids():
    x = build({"constructor": "veronese", "n": 3, "d": 3}, FIELD, random.Random(5))
    with pytest.raises(BudgetExhausted):
        fiber_probe(x, 1, random.Random(5))


def test_projection_dimension_is_the_generic_frame_rank():
    """Over F_1009, the tangential projection of counter1 that
    `terracini fiber-probe --seed 517` builds has a ramified witness among
    the three dimension draws; the generic rank, not that draw, is its
    dimension."""
    seed_tag = derive_rng(517, "cli", "fiber", 1).randrange(2**63)
    rng = derive_rng(seed_tag, "fiber", 1009)
    xp = build(builtin_blueprint("counter1"), FieldSpec.prime(1009), rng)
    assert xp.intrinsic_dim(rng) == 2
    projected, _ = tangential_projection(xp, 1, rng)
    replay = random.Random()
    replay.setstate(rng.getstate())
    ranks = [exact_rank(projected.tangent_frame(projected.sample(replay))) for _ in range(3)]
    assert min(ranks) < max(ranks) == 3
    assert projected.intrinsic_dim(rng) == 2


def test_fiber_probe_rebuilds_from_the_tree_not_the_analysis_field():
    """The enumeration primes reduce the tree's integers, so the analysis
    field a handle was built over cannot change what they count: counter1's
    pinned cut has coefficients above 1000003."""
    reports = []
    for p in (1000003, ANALYSIS_PRIME):
        x = build(builtin_blueprint("counter1"), FieldSpec.prime(p), random.Random(1))
        reports.append(fiber_probe(x, 1, random.Random(2), primes=(1009, 2003)))
    assert reports[0] == reports[1]
    assert reports[0].consensus_d == 3


def test_fiber_probe_refuses_a_handle_without_a_tree():
    """A cut coefficient of -1 is p - 1 over every enumeration prime only
    when each prime reduces the tree's own integers.  counter1 with that
    coefficient, made by ``build``, probes normally; the same variety made
    by constructor calls on the same integers has the same constraints but
    no tree, and the probe refuses it before it draws anything."""
    tree = counter1_with_a_negative_coefficient()
    built = build(tree, FIELD, random.Random(1))
    assert fiber_probe(built, 1, random.Random(2), primes=(1009, 2003)).consensus_d == 3

    rng = random.Random(1)
    coned, embedded, curve = tree["base"], tree["base"]["base"], tree["base"]["base"]["base"]
    x = implicit_plane_curve(FIELD, MultiPoly.from_int_terms(FIELD, 3, curve["terms"]), curve["genus_hint"], rng)
    x = map_image(x, [MultiPoly.from_int_terms(FIELD, 3, c) for c in embedded["components"]], rng)
    x = cone(x, Matrix.from_columns(FIELD, [[FIELD.scalar(v) for v in col] for col in coned["vertex"]]))
    x = hypersurface_section(x, MultiPoly.from_int_terms(FIELD, x.ambient_r + 1, tree["h"]), rng)
    assert x.constraints == built.constraints
    assert x.blueprint is None
    probe_rng = random.Random(2)
    state = probe_rng.getstate()
    with pytest.raises(ConfigError, match="make it with build or builtin"):
        fiber_probe(x, 1, probe_rng, primes=(1009, 2003))
    assert probe_rng.getstate() == state


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials must be positive"),
        ({"primes": ()}, "at least one enumeration prime"),
        ({"primes": (1009, 1009)}, "list a prime twice"),
    ],
    ids=["no-trials", "no-primes", "repeated-prime"],
)
def test_fiber_probe_refuses_bad_arguments_before_it_draws(kwargs, message):
    """Zero trials, no primes and a prime listed twice are config errors,
    raised before the probe takes its draw from the caller's generator."""
    rng = random.Random(2)
    state = rng.getstate()
    with pytest.raises(ConfigError, match=message):
        fiber_probe(handle("veronese-2-2"), 1, rng, **kwargs)
    assert rng.getstate() == state


def test_report_is_deterministic_and_thread_independent():
    x = handle("counter1")
    a = fiber_probe(x, 1, random.Random(77))
    b = fiber_probe(x, 1, random.Random(77))
    assert a == b


def test_functoriality_on_birational_projection():
    rep = tangent_functoriality_check(handle("veronese-2-3"), 1, random.Random(5))
    assert rep.generically_finite
    assert rep.frame_ranks == (3, 3, 3)
    assert rep.span_consistent


def test_functoriality_on_multi_sheeted_projection():
    rep = tangent_functoriality_check(handle("counter1"), 1, random.Random(5))
    assert rep.generically_finite
    assert rep.frame_ranks == (3, 3, 3)
    assert rep.span_consistent


def test_functoriality_flags_collapsing_projection():
    rep = tangent_functoriality_check(handle("veronese-2-2"), 1, random.Random(5))
    assert not rep.generically_finite
    assert not rep.span_consistent
    assert rep.frame_ranks == ()


# caps on KEY_PRODUCT_DEGREE: below every group's key count times the chart's
# degree, even a degree-0 chart's, so every group is keyed; or above every
# one, so every group scans through the key product
_KEYED, _PRODUCT = -1, 10**9
_PASSES = (_KEYED, _PRODUCT)


@st.composite
def _grid_scan_cases(draw):
    """A random map F_p^n -> P^r through a projection, with probe points.

    Drawn structure, each piece aimed at a branch of the scan's two passes:
    every coordinate vanishing at the origin puts the origin in the center;
    an all-zero chart puts every grid point there and makes every factor of
    the key product identically zero; a zero projection row with q[0] = 0
    makes that row's family polynomial identically zero; a first chart
    polynomial times ``(x_0 - c)``, read alone by the last projection row,
    makes the usual pivot coordinate vanish on a whole grid line; one
    projection row keys every cell alike and makes the product's one factor
    ``R_j - R_j`` identically zero, so every cell is a candidate; and zeroed
    probe coordinates hit the key coordinate, give the factor ``R_i`` of the
    key 0, and split batches of up to five probes into several pivot groups.
    The small block size makes the scan cross many block boundaries, the last
    block partial, and at p = 101 cuts grid rows into parts.  A forced
    stretch length of 1 or 2 products splits every contraction of the scan;
    None keeps the natural one.  The cap on ``KEY_PRODUCT_DEGREE`` sends
    every pivot group through the ratio key or every one through the key
    product."""
    p = draw(st.sampled_from([31, 101]))
    n = draw(st.integers(1, 2))
    coeff = st.integers(0, p - 1)
    expo = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 4)
    polys = [draw(st.dictionaries(expo, coeff, min_size=1, max_size=4)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        polys = [{e: c for e, c in poly.items() if any(e)} for poly in polys]
    if draw(st.integers(0, 7)) == 0:
        polys = [{} for _ in polys]
    nrows = draw(st.integers(1, 4))
    proj = [draw(st.lists(coeff, min_size=len(polys), max_size=len(polys))) for _ in range(nrows)]
    if draw(st.booleans()):
        c = draw(coeff)
        factored: dict = {}
        for e, a in polys[0].items():
            up = (e[0] + 1,) + e[1:]
            factored[up] = (factored.get(up, 0) + a) % p
            factored[e] = (factored.get(e, 0) - c * a) % p
        polys[0] = factored
        proj[-1] = [1] + [0] * (len(polys) - 1)
    zero_row = draw(st.booleans())
    if zero_row:
        proj[0] = [0] * len(polys)
    qs = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            # the image of a grid point, so that the fiber is not empty
            point = draw(st.tuples(*[coeff] * n))
            vals = [sum(c * prod(pow(x, k, p) for x, k in zip(point, e)) for e, c in poly.items()) for poly in polys]
            q = [sum(a * v for a, v in zip(row, vals)) % p for row in proj]
        else:
            q = draw(st.lists(coeff, min_size=nrows, max_size=nrows))
        for index in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows - 1)):
            q[index] = 0
        if zero_row:
            q[0] = 0
        if any(q):
            qs.append(q)
    block_cells = draw(st.sampled_from([64, fiber.GRID_BLOCK_CELLS]))
    stretch = draw(st.sampled_from([1, 2, None]))
    cap = draw(st.sampled_from(_PASSES))
    return p, n, polys, proj, qs or [[0] * (nrows - 1) + [1]], block_cells, stretch, cap


@contextlib.contextmanager
def _stretched(stretch):
    """Sum every contraction of the grid in stretches of ``stretch`` products,
    or of the natural length for None, and check that every value the grid
    reduces is a sum of at most that many products of two residues: as if
    float64 held no larger integer exactly.  Every value tested for zero
    unreduced is such a sum too, or a difference of two products, within
    the bound of ``_divisible``."""
    reduce = fiber._reduce
    divisible = fiber._divisible

    def checked(values, p):
        assert values.max(initial=0) <= (stretch or fiber._stretch(p)) * (p - 1) ** 2
        return reduce(values, p)

    def tested(values, p):
        assert np.abs(values).max(initial=0) <= fiber._zero_stretch(p) * (p - 1) ** 2
        return divisible(values, p)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(fiber, "_reduce", checked))
        stack.enter_context(mock.patch.object(fiber, "_divisible", tested))
        if stretch is not None:
            stack.enter_context(mock.patch.object(fiber, "_stretch", lambda p: stretch))
        yield


# grid points (u, v) map to [1 : u : v]: each probe has its own pivot
_SPLIT_PIVOTS = (31, 2, [{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 2, 0], [1, 2, 3], [0, 0, 5]], 64)
# no grid point has R_j != 0, so no cell may take the key 0
_ZERO_CHART = (31, 2, [{}], [[1], [2]], [[0, 1]], 64)
# five probes at once, some over grid points and some not
_FIVE_PROBES = (101, 2, [{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}, {(1, 1): 1}], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 2, 3, 6], [1, 0, 7, 0], [1, 5, 0, 0], [1, 1, 1, 1], [1, 1, 1, 2]], 64)
# (u, v) maps to [u : v : 1]; q_i = 0 at the key coordinate i = 1
_ZERO_AT_KEY = (31, 2, [{(1, 0): 1}, {(0, 1): 1}, {(0, 0): 1}], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[3, 0, 1], [0, 0, 1]], 64)
# the pivot coordinate u - 4 vanishes on the whole grid line u = 4
_LINEAR_FACTOR = (31, 2, [{(1, 0): 1, (0, 0): 27}, {(0, 1): 1}, {(1, 1): 1}], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[5, 30, 1], [0, 0, 1], [1, 0, 0]], 64)
# one projection row: i = j, and every nonzero cell takes the key 1
_ONE_ROW = (101, 2, [{(2, 0): 1, (0, 1): 3}, {(1, 1): 1}], [[1, 2]], [[5]], 64)
# the image [1 : 2 : 3 : 6] of (2, 3) listed twice: two owners share one key,
# and each counts the preimage
_TWICE = (101, 2, _FIVE_PROBES[2], _FIVE_PROBES[3], [[1, 2, 3, 6], [1, 5, 0, 0], [1, 2, 3, 6]], 64)


_SCAN_EXAMPLES = (_SPLIT_PIVOTS, _ZERO_CHART, _FIVE_PROBES, _ZERO_AT_KEY, _LINEAR_FACTOR, _ONE_ROW, _TWICE)


def _scan_examples(test):
    """Each explicit case at its natural stretch and in stretches of one
    product, on either pass."""
    for case in reversed(_SCAN_EXAMPLES):
        for stretch in (1, None):
            for cap in _PASSES:
                test = example(case + (stretch, cap))(test)
    return test


@given(_grid_scan_cases())
@_scan_examples
@settings(max_examples=100, deadline=None)
def test_grid_scan_matches_brute_force_enumeration(case):
    # FieldSpec rejects primes this small, and the brute force needs them
    # small; the scan reads only the modulus, the chart's term dicts and the
    # projection's entries, so plain stand-ins carry them
    p, n, polys, proj, qs, block_cells, stretch, cap = case
    xp = SimpleNamespace(field=SimpleNamespace(modulus=p), n=n, polys=[SimpleNamespace(terms=t) for t in polys])
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(fiber, "GRID_BLOCK_CELLS", block_cells))
        stack.enter_context(mock.patch.object(fiber, "KEY_PRODUCT_DEGREE", cap))
        stack.enter_context(_stretched(stretch))
        got = _scan_parametric(xp, SimpleNamespace(entries=proj), qs)
    assert got == fiber_counts_by_brute_force(polys, proj, qs, p, n)


@pytest.mark.parametrize("case", _SCAN_EXAMPLES)
def test_int64_grid_scan_matches_brute_force_enumeration(case):
    """Residues handed to the scan as numpy int64 (chart coefficients,
    projection entries and probe points) are cast once into the float64
    grid: on the explicit cases of the brute-force test, summed in stretches
    of one product, both passes count the same fibers."""
    p, n, polys, proj, qs, block_cells = case
    wide = [SimpleNamespace(terms={e: np.int64(c) for e, c in t.items()}) for t in polys]
    xp = SimpleNamespace(field=SimpleNamespace(modulus=p), n=n, polys=wide)
    entries = np.array(proj, dtype=np.int64)
    points = [np.array(q, dtype=np.int64) for q in qs]
    want = fiber_counts_by_brute_force(polys, proj, qs, p, n)
    for cap in _PASSES:
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(fiber, "GRID_BLOCK_CELLS", block_cells))
            stack.enter_context(mock.patch.object(fiber, "KEY_PRODUCT_DEGREE", cap))
            stack.enter_context(_stretched(1))
            got = _scan_parametric(xp, SimpleNamespace(entries=entries), points)
        assert got == want, cap


@pytest.mark.parametrize("stretch", [1, None])
@pytest.mark.parametrize("p, shape, keys", [(31, (3, 3), [0, 1, 7]), (101, (1, 5), [2, 3, 5, 7, 100]), (9_999_991, (2, 4), [1, 9_999_990])])
def test_key_product_is_the_product_of_its_factors(p, shape, keys, stretch):
    """At every grid point the key product's value, in Python ints, is the
    product of ``R_i - k R_j`` over the keys; its arithmetic stays in exact
    stretches."""
    rng = np.random.default_rng(p)
    pair = rng.integers(0, p, (2, *shape))
    with _stretched(stretch):
        got = fiber._key_product(pair.astype(np.float64), keys, p)
    coeffs = [[int(c) for c in row] for row in got.tolist()]
    assert all(0 <= c < p for row in coeffs for c in row)

    def at(poly, u, v):
        return sum(int(c) * pow(u, a, p) * pow(v, b, p) for (a, b), c in np.ndenumerate(poly)) % p

    for u, v in rng.integers(0, p, (20, 2)).tolist():
        ri, rj = at(pair[0], u, v), at(pair[1], u, v)
        assert at(np.array(coeffs, dtype=object), u, v) == prod((ri - k * rj) % p for k in keys) % p


@pytest.mark.parametrize("p", [3, 31, 1009, 65537, 1000003])
def test_inverse_table_inverts_every_unit(p):
    table = _inverse_table(p)
    units = np.arange(1, p, dtype=np.int64)
    assert table[0] == 0
    assert (table[1:] * units % p == 1).all()


@pytest.mark.parametrize("p", [257, 1009, 3001])
def test_inverse_table_matches_pow_inverse(p):
    """The table built from a primitive root's powers holds, at every x,
    exactly the inverse Python computes."""
    table = _inverse_table(p)
    assert table.dtype == np.float64
    assert table.tolist() == [0] + [pow(x, -1, p) for x in range(1, p)]


def _projection_probes(tree, p, k, count):
    rng = random.Random(3)
    xp = build(tree, FieldSpec.prime(p), rng)
    projected, _ = tangential_projection(xp, k, rng)
    return xp, projected.proj, [list(normalize_point(projected.sample(rng).raw, p)) for _ in range(count)]


def test_grid_scan_takes_one_pass_per_pivot_group():
    """Probe points share the grid evaluation: one block sequence per pivot
    group, however many points the group holds."""
    xp, proj, qs = _projection_probes(builtin_blueprint("veronese-2-4"), 1009, 1, 5)
    evaluate = fiber._grid_blocks

    def scan(batch):
        starts = []

        def counted(*args, **kwargs):
            for start, vals in evaluate(*args, **kwargs):
                starts.append(start)
                yield start, vals

        with mock.patch.object(fiber, "_grid_blocks", counted):
            counts, _ = _scan_parametric(xp, proj, batch)
        return counts, starts

    one, one_pass = scan(qs[:1])
    five, five_pass = scan(qs)
    assert (one, five) == ([1], [1] * 5)
    assert five_pass == one_pass == sorted(set(one_pass))
    # a point whose last coordinate is zero pivots on another coordinate
    split = qs[:2] + [qs[2][:-1] + [0]]
    _, split_pass = scan(split)
    assert split_pass == one_pass * 2


def _kernel_calls(run, name):
    """Run ``run()``; return how many calls of the fiber helper ``name`` the
    grid kernel made while it produced its blocks, how many were made
    outside it, and how many blocks it yielded."""
    helper, evaluate = getattr(fiber, name), fiber._grid_blocks
    inside, calls, blocks = [False], [0, 0], [0]

    def counted_helper(*args, **kwargs):
        calls[not inside[0]] += 1
        return helper(*args, **kwargs)

    def counted_blocks(*args, **kwargs):
        inner = evaluate(*args, **kwargs)
        while True:
            inside[0] = True
            try:
                block = next(inner)
            except StopIteration:
                return
            finally:
                inside[0] = False
            blocks[0] += 1
            yield block

    with mock.patch.object(fiber, name, counted_helper), mock.patch.object(fiber, "_grid_blocks", counted_blocks):
        run()
    return calls[0], calls[1], blocks[0]


def test_zero_tests_reduce_less_than_once_per_grid_block():
    """The product pass and the curve enumeration test their blocks for zero
    unreduced: the grid kernel reduces once per power of its table and once
    per band of blocks, not once or twice per block.  Five probes of
    veronese-2-4 and counter1's curve, both at p = 1009, scan 64 and 65
    blocks."""
    xp, proj, qs = _projection_probes(builtin_blueprint("veronese-2-4"), 1009, 1, 5)
    calls, _, blocks = _kernel_calls(lambda: _scan_parametric(xp, proj, qs), "_reduce")
    assert blocks == 64
    assert calls < blocks
    curve = build(builtin_blueprint("counter1"), FieldSpec.prime(1009), random.Random(1)).base.base.base
    calls, _, blocks = _kernel_calls(lambda: _curve_points_int(curve), "_reduce")
    assert blocks == 65
    assert calls < blocks


@pytest.mark.parametrize("name, rows", [("veronese-2-3", 7), ("veronese-2-4", 12)])
def test_exact_check_makes_a_few_products_per_batch(name, rows):
    """Each batch of candidate cells forms its power columns once and
    evaluates projected rows in at most three passes of two products: the
    pivot rows R_i and R_j together, the first other row on every cell,
    and all the remaining rows together on the claims it leaves.  So
    outside the grid kernel, a five-probe scan at p = 1009 makes at most
    six products per batch, and one more for the projected rows, whether
    its projection keeps 7 rows or 12."""
    xp, proj, qs = _projection_probes(builtin_blueprint(name), 1009, 1, 5)
    assert len(proj.entries) == rows
    count_over = fiber._count_over
    batches = []

    def counted(*args, **kwargs):
        batches.append(len(args[0]))
        return count_over(*args, **kwargs)

    def run():
        with mock.patch.object(fiber, "_count_over", counted):
            assert _scan_parametric(xp, proj, qs)[0] == [1] * 5

    _, products, _ = _kernel_calls(run, "_matmul")
    assert len(batches) > 1
    assert products <= 1 + 6 * len(batches)


def test_grid_scan_memory_does_not_grow_with_probe_points():
    xp, proj, qs = _projection_probes(builtin_blueprint("veronese-2-4"), 3001, 1, 20)

    def peak(batch):
        tracemalloc.start()
        try:
            counts, _ = _scan_parametric(xp, proj, batch)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == [1] * len(batch)
        return top

    assert peak(qs) < peak(qs[:5]) + 8 * 1024


def test_curve_points_match_brute_force_in_scan_order():
    """The cone scan's rulings follow this order: u-major affine points with
    v ascending, then the points at infinity, then (1, 0, 0).  At p = 257 the
    affine grid spans several blocks, the last one partial."""
    curve = build(
        {"constructor": "implicit_plane_curve", "terms": [[1, [3, 0, 0]], [1, [0, 3, 0]], [1, [0, 0, 3]]], "genus_hint": 1},
        FieldSpec.prime(257),
        random.Random(0),
    )
    pts = _curve_points_int(curve)
    assert pts == sorted(pts, key=lambda c: (c[2] == 0, c == (1, 0, 0), c))
    assert len(pts) == len(set(pts))
    assert set(pts) == fermat_cubic_points(257)


def _curve_points_by_brute_force(terms, p):
    """The zeros of the form with these integer terms in P^2(F_p), in the
    cone scan's order: (u, v, 1) u-major, (u, 1, 0), then (1, 0, 0)."""
    points = [(u, v, 1) for u in range(p) for v in range(p)] + [(u, 1, 0) for u in range(p)] + [(1, 0, 0)]
    return [x for x in points if sum(c * prod(pow(a, e, p) for a, e in zip(x, expo)) for c, expo in terms) % p == 0]


@pytest.mark.parametrize(
    "terms, count, at_infinity",
    [
        # x1^3 - x0^2 x1 + x2^3 + x0 x1 x2 meets x2 = 0 where x1 (x1 - x0) (x1 + x0) = 0
        ([[1, [0, 3, 0]], [-1, [2, 1, 0]], [1, [0, 0, 3]], [1, [1, 1, 1]]], 260, [(1, 1, 0), (256, 1, 0), (1, 0, 0)]),
        # x2 (x0^2 + x1^2 + x2^2) holds the whole line x2 = 0
        ([[1, [2, 0, 1]], [1, [0, 2, 1]], [1, [0, 0, 3]]], 514, [(u, 1, 0) for u in range(257)] + [(1, 0, 0)]),
    ],
    ids=["corner-point", "line-at-infinity"],
)
def test_curve_points_at_infinity_match_brute_force(terms, count, at_infinity):
    """The line at infinity, read off the terms without x2: a curve through
    the corner point (1, 0, 0) with two more points at infinity, and one
    that holds the whole line x2 = 0, whose restriction there is zero."""
    p = 257
    curve = build({"constructor": "implicit_plane_curve", "terms": terms, "genus_hint": 0}, FieldSpec.prime(p), random.Random(0))
    pts = _curve_points_int(curve)
    assert pts == _curve_points_by_brute_force(terms, p)
    assert len(pts) == count
    assert [c for c in pts if c[2] == 0] == at_infinity


def test_shared_witness_builders_match_the_field_by_field_chain():
    """``_witness_at`` and ``_witness_over``, which draws and the cone scan
    share, build at every affine point c of counter1's curve at p = 257 the
    witness chain the scan once built field by field, with c's embedding y
    taken straight from the map's components."""
    p = 257
    emb = build(builtin_blueprint("counter1"), FieldSpec.prime(p), random.Random(1)).base.base
    curve = emb.base
    affine = sorted(c for c in fermat_cubic_points(p) if c[2] == 1)
    assert affine
    for c in affine:
        y = tuple(g.evaluate(c) for g in emb.polys)
        assert any(y)
        want = Witness(c[:2], y, base=Witness(c[:2], c))
        assert emb._witness_over(curve._witness_at(c)) == want


def _counter1_probes(p: int, draws: int):
    """counter1 built over F_p, its tangential projection at k = 1, and that
    many probe points drawn from it, all from one seeded rng."""
    rng = random.Random(1)
    xp = build(builtin_blueprint("counter1"), FieldSpec.prime(p), rng)
    projected, _ = tangential_projection(xp, 1, rng)
    return xp, projected.proj, [normalize_point(projected.sample(rng).raw, p) for _ in range(draws)]


def test_ruling_scan_matches_brute_force_enumeration():
    """The cone scan's preimages of two probe points of counter1's
    tangential projection at p = 257, and its center tallies, are exactly
    those that a scan of every point of F_p^2 on every ruling finds: the
    scan misses no ruling and no point on one.  The first probe has all
    three preimages, the sixth only one."""
    p = 257
    blueprint = builtin_blueprint("counter1")
    xp, proj, qs = _counter1_probes(p, 6)
    scan = fiber._RulingScan(xp, proj)
    coned = blueprint["base"]
    for q, count in ((qs[0], 3), (qs[5], 1)):
        found, center_hits, _ = scan.preimages(q)
        expected = ruling_fiber_by_brute_force(
            coned["base"]["components"], coned["vertex"], blueprint["h"], proj.entries, q, p
        )
        assert (found, center_hits) == expected
        assert len(found) == count


def test_ruling_scan_embeds_its_curve_points_without_apply(monkeypatch):
    """The scan's rulings are counter1's curve points at p = 257, in curve
    order, each with the embedding ``MapImageHandle._apply`` gives it, and
    its point matrix holds those embeddings as columns; the scan itself
    makes no ``_apply`` call."""
    p = 257
    xp, proj, _ = _counter1_probes(p, 0)
    emb = xp.base.base
    want = [(c, emb._apply(c)) for c in _curve_points_int(emb.base)]
    want = [(c, y) for c, y in want if any(y)]

    def refused(self, x):
        raise AssertionError("the ruling scan embeds curve points one at a time")

    monkeypatch.setattr(MapImageHandle, "_apply", refused)
    scan = fiber._RulingScan(xp, proj)
    assert scan.rulings == want
    assert scan.points.T.tolist() == [list(y) for _, y in want]


def test_ruling_scan_drops_the_base_locus_of_the_embedding():
    """A map whose forms all vanish on the line x2 = 0 sends the Fermat
    cubic's one point there at p = 257, (256, 1, 0), to zero; the scan
    keeps every other curve point, in curve order, with the forms' values
    there in Python ints."""
    p = 257
    curve = build(
        {"constructor": "implicit_plane_curve", "terms": [[1, [3, 0, 0]], [1, [0, 3, 0]], [1, [0, 0, 3]]], "genus_hint": 1},
        FieldSpec.prime(p),
        random.Random(0),
    )
    forms = [{(1, 0, 1): 1}, {(0, 1, 1): 3, (1, 0, 1): 250}, {(0, 0, 2): 1}, {}]
    emb = SimpleNamespace(base=curve, polys=[SimpleNamespace(terms=f) for f in forms])
    cone_ = SimpleNamespace(base=emb, vertex=SimpleNamespace(entries=[[0], [0], [0], [1]]))
    scan = fiber._RulingScan(SimpleNamespace(base=cone_, field=curve.field), None)
    values = [
        (c, tuple(sum(a * prod(pow(x, e, p) for x, e in zip(c, expo)) for expo, a in f.items()) % p for f in forms))
        for c in _curve_points_int(curve)
    ]
    assert (256, 1, 0) in [c for c, y in values if not any(y)]
    assert scan.rulings == [(c, y) for c, y in values if any(y)]
    assert {type(v) for _, y in scan.rulings for v in y} == {int}


def test_ruling_scan_solves_only_the_solvable_rulings(monkeypatch):
    """``preimages`` solves the proportionality system ``A mu = -N y`` only on
    the rulings where it has a solution, once each, in curve order: exactly
    those on which a fresh rank test finds rank [A | -N y] = rank A."""
    p = 257
    xp, proj, (q,) = _counter1_probes(p, 1)
    calls = []
    solve = LinearSystem.solve

    def spy(self, rhs):
        calls.append(list(rhs))
        return solve(self, rhs)

    monkeypatch.setattr(LinearSystem, "solve", spy)
    fiber._RulingScan(xp, proj).preimages(q)

    rows, j = proj.entries, max(i for i, v in enumerate(q) if v)
    minors = [[(q[j] * a - q[i] * b) % p for a, b in zip(rows[i], rows[j])] for i in range(len(rows)) if i != j]
    a = [list(row) for row in Matrix(xp.field, minors).matmul(xp.base.vertex).entries]
    rank = rank_by_reverse_echelon(a, p)
    embedded = [xp.base.base._apply(c) for c in _curve_points_int(xp.base.base.base)]
    rhss = [[-sum(n * t for n, t in zip(row, y)) % p for row in minors] for y in embedded if any(y)]
    solvable = [rhs for rhs in rhss if rank_by_reverse_echelon([r + [b] for r, b in zip(a, rhs)], p) == rank]
    assert calls == solvable
    assert 0 < len(solvable) < len(rhss)


def test_grid_counts_scan_at_most_max_resample_times(monkeypatch):
    """Probe points whose count reaches ``DEGENERATE_COUNT_FLOOR`` are drawn
    again and rescanned, alone, in at most ``MAX_RESAMPLE`` scans in all,
    and every scan is checked: a last allowed scan that clears every probe
    gives its counts, and ``MAX_RESAMPLE`` degenerate scans raise."""
    floor = fiber.DEGENERATE_COUNT_FLOOR

    def run(clean_at):
        # the first draw is the one probe point the first scan finds clean
        draws = iter(range(10**6))
        projected = SimpleNamespace(base=None, proj=None, sample=lambda rng: SimpleNamespace(raw=[next(draws)]))
        sizes = []

        def scan(xp, proj, qs):
            sizes.append(len(qs))
            if len(sizes) == clean_at:
                return [2] * len(qs), 10
            return [1 if q[0] == 0 else floor for q in qs], 10

        monkeypatch.setattr(fiber, "_scan_parametric", scan)
        try:
            return fiber._grid_counts(projected, 2, 3, None), sizes
        except DegenerateWitness:
            return None, sizes

    assert run(MAX_RESAMPLE) == (((1, 2, 2), 10, None), [3] + [2] * (MAX_RESAMPLE - 1))
    assert run(None) == (None, [3] + [2] * (MAX_RESAMPLE - 1))


def test_grid_scan_memory_is_bounded():
    """One scan at p = 3001 keeps its numpy temporaries to a few grid blocks."""
    fp = FieldSpec.prime(3001)
    rng = random.Random(3)
    xp = build(builtin_blueprint("veronese-2-4"), fp, rng)
    projected, _ = tangential_projection(xp, 1, rng)
    qs = [normalize_point(projected.sample(rng).raw, fp.modulus) for _ in range(5)]
    tracemalloc.start()
    try:
        counts, _ = _scan_parametric(xp, projected.proj, qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [1] * 5
    assert peak < 1 << 20


def test_grid_scan_memory_is_bounded_on_a_cut_row():
    """A one-parameter chart of 96 terms at p = 100003 cuts its one grid row
    into 13 parts.  The scan holds one power table of 96 rows, one per term,
    over one part's width, once; beside it only the inverse table and a few
    blocks of values.  A table built afresh for each part would double it."""
    p = 100_003
    rng = random.Random(3)
    xp = rational_normal_curve(FieldSpec.prime(p), 95)
    projected, _ = tangential_projection(xp, 1, rng)
    qs = [normalize_point(projected.sample(rng).raw, p) for _ in range(5)]
    width = fiber.GRID_BLOCK_CELLS // 2
    assert -(-p // width) == 13
    tracemalloc.start()
    try:
        counts, _ = _scan_parametric(xp, projected.proj, qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [1] * 5
    table, inverse, block = 96 * width * 8, p * 8, 2 * width * 8
    assert peak < table + inverse + 8 * block


@pytest.mark.parametrize(
    "tree, p, k, count, tables",
    [
        ({"constructor": "veronese", "n": 2, "d": 4}, 3001, 1, 5, 0),
        ({"constructor": "rnc", "d": 95}, 3001, 1, 5, 1),
        ({"constructor": "veronese", "n": 2, "d": 7}, 1009, 11, 30, 1),
    ],
    ids=["v4P2-5-probes", "rnc95-5-probes", "v7P2-k11-30-probes"],
)
def test_grid_scan_pass_follows_key_count_times_degree(tree, p, k, count, tables):
    """Only the keyed pass builds an inverse table.  Five keys on a quartic
    chart (20) stay on the key product, which builds none; five keys on a
    degree-95 curve (475) and 30 on a septic chart (210) are keyed, and
    build one."""
    xp, proj, qs = _projection_probes(tree, p, k, count)
    table = fiber._inverse_table
    calls = []

    def spy(q):
        calls.append(q)
        return table(q)

    with mock.patch.object(fiber, "_inverse_table", spy):
        counts, _ = _scan_parametric(xp, proj, qs)
    assert calls == [p] * tables
    assert min(counts) >= 1


def test_product_pass_holds_no_table_of_p_entries():
    """Five probes of rnc-5 at p = 1000003 scan through the key product: the
    scan peaks below one float64 table of p entries, the size of the keyed
    pass's inverse table alone."""
    p = 1_000_003
    xp, proj, qs = _projection_probes({"constructor": "rnc", "d": 5}, p, 1, 5)
    tracemalloc.start()
    try:
        counts, _ = _scan_parametric(xp, proj, qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [1] * 5
    assert peak < 8 * p


def _prime_at_most(m):
    while not is_prime(m):
        m -= 1
    return m


@st.composite
def _reduction_cases(draw):
    """A prime and integers below 2^53, about half of them next to a multiple
    of the prime, where a quotient rounded up would show."""
    p = draw(st.integers(3, 9_999_991).map(_prime_at_most))
    near = st.builds(lambda m, e: m * p + e, st.integers(1, (2**53 - 2) // p), st.sampled_from([-1, 0, 1]))
    return p, draw(st.lists(st.one_of(st.integers(0, 2**53 - 1), near), min_size=1, max_size=64))


def _next_to_multiples(p):
    top = (2**53 - 2) // p
    return [m * p + e for m in (1, 2, top // 2, top) for e in (-1, 0, 1)] + [0, p - 1, 2**53 - 1]


@given(_reduction_cases())
@example((3, _next_to_multiples(3)))
@example((1009, _next_to_multiples(1009)))
@example((3001, _next_to_multiples(3001)))
@example((9_999_991, _next_to_multiples(9_999_991)))
@settings(max_examples=200, deadline=None)
def test_float64_grid_arithmetic_is_exact(case):
    """The float64 reduction agrees with Python's % on every integer below
    2^53, and the stretch rule keeps every sum there."""
    p, values = case
    reduced = fiber._reduce(np.array(values, dtype=np.float64), p)
    assert reduced.tolist() == [v % p for v in values]
    # near the largest prime the budget admits, 90 products fit in a stretch
    top = 9_999_991
    assert fiber._stretch(top) == 90
    # contractions of the largest residues split in two stretches (91 terms,
    # the first to be split) and in three sum exactly, with no value past
    # 2^53 on the way
    for terms in (91, 181):
        row = np.full((1, terms), top - 1.0)
        with _stretched(None):
            assert fiber._matmul(row, row.T, top).tolist() == [[terms * (top - 1) ** 2 % top]]
    # no two-parameter chart under the budget is ever split, even one with as
    # many terms as the budget has cells
    assert fiber._stretch(isqrt(ENUM_BUDGET)) >= ENUM_BUDGET
    # every prime the budget admits has stretches of at least one product
    assert (ENUM_BUDGET - 1) ** 2 < 2**53


# the grid's primes and the smallest ones.  At 103 and 65521, fl(1/p) is
# short of 1/p by enough that v fl(1/p) rounds to just below m at some
# multiples v = m p, m = 1 among them: rounding the quotient to the nearest
# integer recovers m there, flooring it does not
_DIVISIBLE_PRIMES = (2, 3, 5, 7, 31, 103, 1009, 3001, 65521, 100003, 9_999_991)


def _largest_unreduced(p):
    """The largest value a block product hands ``_divisible`` unreduced."""
    return fiber._zero_stretch(p) * (p - 1) ** 2


@st.composite
def _divisibility_cases(draw):
    """A prime and integers up to the largest unreduced block value, about
    half of them a multiple of the prime or next to one."""
    p = draw(st.sampled_from(_DIVISIBLE_PRIMES))
    top = _largest_unreduced(p)
    near = st.builds(lambda m, e: m * p + e, st.integers(0, top // p), st.sampled_from([-1, 0, 1]))
    values = st.one_of(st.integers(0, top), near.filter(lambda v: 0 <= v <= top))
    return p, draw(st.lists(values, min_size=1, max_size=64))


def _multiples_at_the_bound(p):
    """The multiples of p at the largest unreduced value and their
    neighbours, the small ones, and ``(2^k - 1) p``, just below where the
    spacing of float64 quotients doubles."""
    top = _largest_unreduced(p)
    edges = [m * p + e for m in (1, 2, top // p - 1, top // p) for e in (-1, 0, 1)]
    edges += [(2**k - 1) * p for k in range(1, 53) if (2**k - 1) * p <= top]
    return p, [v for v in edges if 0 <= v <= top] + [0, top]


def _divisibility_examples(test):
    for p in reversed(_DIVISIBLE_PRIMES):
        test = example(_multiples_at_the_bound(p))(test)
    return test


@given(_divisibility_cases())
@_divisibility_examples
@settings(max_examples=200, deadline=None)
def test_divisibility_test_matches_python_remainders(case):
    """The division-free zero test agrees with Python's % on every integer a
    block product can hand it unreduced, which stays within its bound, and
    on their negatives."""
    p, values = case
    assert _largest_unreduced(p) <= min(p << 50, 2**53 - 1)
    want = [v % p == 0 for v in values]
    assert fiber._divisible(np.array(values, dtype=np.float64), p).tolist() == want
    assert fiber._divisible(-np.array(values, dtype=np.float64), p).tolist() == want


@st.composite
def _product_cases(draw):
    """Residue matrices a (m x t) and b (t x w), with t up to 121, at primes
    up to the largest the budget admits, and a stretch length.  A matrix is
    filled with uniform residues, or all with p - 1, the largest, or all with
    p - 2, whose products are odd."""
    p = draw(st.integers(3, 9_999_991).map(_prime_at_most))
    t = draw(st.integers(1, 121))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fill(shape):
        entry = draw(st.sampled_from(["uniform", p - 1, p - 2]))
        return rng.integers(0, p, shape) if entry == "uniform" else np.full(shape, entry)

    a = fill((draw(st.integers(1, 4)), t))
    b = fill((t, draw(st.integers(1, 4))))
    return p, a, b, draw(st.sampled_from([1, 2, None]))


def _full_product(p, t, entry, stretch):
    return p, np.full((2, t), entry), np.full((t, 3), entry), stretch


@given(_product_cases())
@example(_full_product(9_999_991, 121, 9_999_990, None))
@example(_full_product(9_999_991, 121, 9_999_989, None))
@example(_full_product(9_999_991, 121, 9_999_990, 1))
@example(_full_product(9_999_991, 91, 9_999_989, 2))
@example(_full_product(3, 121, 2, 1))
@settings(max_examples=200, deadline=None)
def test_matmul_matches_python_integer_products(case):
    """Every grid product, at every stretch length, is the product over the
    integers reduced mod p."""
    p, a, b, stretch = case
    with _stretched(stretch):
        got = fiber._matmul(a.astype(np.float64), b.astype(np.float64), p)
    assert got.tolist() == ((a.astype(object) @ b.astype(object)) % p).tolist()


def _mixed_coordinates(name, p):
    """The built-in chart over F_p, and the coefficients of general
    combinations of its coordinates: two on a surface, as the scan
    evaluates, and as many as it has on a curve."""
    xp = build(builtin_blueprint(name), FieldSpec.prime(p), random.Random(0))
    coeffs = fiber._coefficients([g.terms for g in xp.polys], xp.n)
    mix = np.random.default_rng(0).integers(0, p, (2 if xp.n == 2 else len(coeffs), len(coeffs)))
    return xp, (mix @ coeffs.reshape(len(coeffs), -1) % p).reshape(len(mix), *coeffs.shape[1:])


@pytest.mark.parametrize("name, p", [("veronese-2-4", 3001), ("rnc-5", 3001)])
def test_grid_blocks_agree_across_stretch_lengths(name, p):
    """Forced stretches of one and two products yield the natural stretch's
    blocks on the same chart.  They evaluate general combinations of the
    chart's coordinates: two on veronese-2-4, as the scan does, and all six
    on rnc-5, whose one grid row they cut into parts."""
    xp, coeffs = _mixed_coordinates(name, p)

    def blocks(stretch):
        with _stretched(stretch):
            return [
                (start, vals.shape, hashlib.sha256(vals.tobytes()).digest())
                for start, vals in fiber._grid_blocks(coeffs, p, xp.n)
            ]

    natural = blocks(None)
    assert blocks(1) == blocks(2) == natural
    assert sum(prod(shape[1:]) for _, shape, _ in natural) == p**xp.n


@pytest.mark.parametrize("name, p", [("veronese-2-4", 1009), ("rnc-5", 3001)])
def test_unreduced_blocks_have_the_zero_cells_of_the_residues(name, p):
    """The blocks a zero test reads unreduced are congruent to the residue
    blocks, cell for cell, and ``_divisible`` finds exactly their zero
    cells.  At the natural stretch the values arrive as unreduced sums;
    stretches of one and two products split the last contraction, so its
    values fall back to residues.  veronese-2-4 at p = 1009 spans several
    bands of blocks, the last one partial; rnc-5 cuts its one row in two."""
    xp, coeffs = _mixed_coordinates(name, p)
    for stretch in (1, 2, None):
        top = 0
        with _stretched(stretch):
            reduced = fiber._grid_blocks(coeffs, p, xp.n)
            unreduced = fiber._grid_blocks(coeffs, p, xp.n, reduced=False)
            for (start, vals), (raw_start, raw) in zip(reduced, unreduced, strict=True):
                assert (raw_start, raw.shape) == (start, vals.shape)
                assert np.array_equal(raw % p, vals)
                assert np.array_equal(fiber._divisible(raw, p), vals == 0)
                top = max(top, raw.max())
        assert (top >= p) == (stretch is None), stretch


def test_curve_points_match_brute_force_at_every_stretch():
    """counter1's plane cubic at p = 257 has the points a brute force finds,
    in scan order, whether its blocks reach the zero test unreduced, at the
    natural stretch, or as residues, at stretches of one and two
    products."""
    p = 257
    curve = build(builtin_blueprint("counter1"), FieldSpec.prime(p), random.Random(1)).base.base.base
    want = _curve_points_by_brute_force([(c, e) for e, c in curve.f.terms.items()], p)
    for stretch in (1, 2, None):
        tops = []
        with _stretched(stretch):
            divisible = fiber._divisible

            def spy(values, q):
                tops.append(values.max(initial=0))
                return divisible(values, q)

            with mock.patch.object(fiber, "_divisible", spy):
                assert _curve_points_int(curve) == want, stretch
        assert (max(tops) >= p) == (stretch is None), stretch


@st.composite
def _shift_cases(draw):
    """A prime up to the largest the budget admits, a step s in [0, p] (s = p
    is a row that is never cut), a point c, and rows of up to 121
    coefficients, uniform residues or all p - 1."""
    p = draw(st.integers(3, 9_999_991).map(_prime_at_most))
    size = draw(st.integers(1, 121))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, p, (draw(st.integers(1, 3)), size)).tolist()
    if draw(st.booleans()):
        rows = [[p - 1] * size for _ in rows]
    return p, draw(st.integers(0, p)), draw(st.integers(0, p - 1)), rows


@given(_shift_cases())
@example((9_999_991, 9_999_990, 9_999_990, [[9_999_990] * 121]))
@example((9_999_991, 9_999_991, 5, [[9_999_990] * 121]))
@example((8209, 8192, 16, [list(range(1, 13))]))
@settings(max_examples=100, deadline=None)
def test_shift_translates_coefficient_rows(case):
    """Rows L times the step matrix ``B(s)``, evaluated at c, equal L
    evaluated at ``c + s``, all in Python ints."""
    p, s, c, rows = case
    step = fiber._shift(s, len(rows[0]), p)
    b = [[int(x) for x in row] for row in step.tolist()]
    assert b == step.tolist()
    assert all(0 <= x < p for row in b for x in row)
    assert all(x == 0 for e, row in enumerate(b) for x in row[e + 1 :])
    for row in rows:
        moved = [sum(row[e] * b[e][k] for e in range(len(row))) % p for k in range(len(row))]
        at = sum(a * pow(c, k, p) for k, a in enumerate(moved)) % p
        assert at == sum(a * pow(c + s, e, p) for e, a in enumerate(row)) % p


def test_grid_blocks_match_horner_on_a_cut_row():
    """At p = 8209 the default block size cuts the one grid row of two
    polynomials into 8192 + 17 columns; every cell of both parts holds the
    value Horner's rule gives in Python ints."""
    p = 8209
    xp = rational_normal_curve(FieldSpec.prime(p), 11)
    coeffs = fiber._coefficients([g.terms for g in xp.polys], xp.n)
    mix = np.random.default_rng(1).integers(0, p, (2, len(coeffs)))
    mix[1] = p - 1
    coeffs = (mix @ coeffs.reshape(len(coeffs), -1) % p).reshape(2, *coeffs.shape[1:])
    blocks = list(fiber._grid_blocks(coeffs, p, 1))
    assert [(start, vals.shape) for start, vals in blocks] == [(0, (2, 1, 8192)), (8192, (2, 1, 17))]
    got = np.concatenate([vals.reshape(2, -1) for _, vals in blocks], axis=1)
    for poly, row in zip(coeffs[:, 0].astype(np.int64).tolist(), got.tolist()):
        want = []
        for v in range(p):
            acc = 0
            for a in reversed(poly):
                acc = (acc * v + a) % p
            want.append(acc)
        assert row == want


@pytest.mark.parametrize(
    "n, p, block_cells", [(1, 8209, None), (1, 101, 64), (2, 101, 64), (2, 31, None)], ids=["cut-1", "cut-1-small-block", "cut-2", "whole-2"]
)
def test_grid_blocks_build_one_power_table(n, p, block_cells):
    """Every ``_grid_blocks`` call builds one power table, whether or not
    its rows are cut into parts."""
    rng = np.random.default_rng(2)
    coeffs = rng.integers(0, p, (2, 4 if n == 2 else 1, 6)).astype(np.float64)
    powers = fiber._powers
    calls = []

    def counted(*args):
        calls.append(args)
        return powers(*args)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(fiber, "_powers", counted))
        if block_cells is not None:
            stack.enter_context(mock.patch.object(fiber, "GRID_BLOCK_CELLS", block_cells))
        cells = sum(vals[0].size for _, vals in fiber._grid_blocks(coeffs, p, n))
    assert cells == p**n
    assert len(calls) == 1


@pytest.mark.parametrize("p", [7, 1009, 3001, 9_999_991])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 65])
def test_powers_match_python_pow(p, count):
    """Every entry of a power table is ``pow(x, e, p)``, on one row of
    residues and on two, with 0, 1 and p - 1 among them; 65 rows is the
    largest table the key product takes."""
    rng = random.Random(p * 100 + count)
    xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(9)]
    for shape in [(12,), (2, 6)]:
        table = fiber._powers(np.array(xs, dtype=np.float64).reshape(shape), count, p)
        assert table.shape == (count, *shape)
        assert table.reshape(count, len(xs)).tolist() == [[float(pow(x, e, p)) for x in xs] for e in range(count)]


def test_every_grid_product_goes_through_matmul():
    """Every matrix product in fiber.py is formed by ``_matmul``, in exact
    stretches, and no module keeps a rule that picks another arithmetic."""
    package = Path(fiber.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "product_dtype" not in names, path.name
    tree = ast.parse((package / "fiber.py").read_text(encoding="utf-8"))
    products = {n for n in ast.walk(tree) if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)}
    helpers = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_matmul"]
    inside = {n for helper in helpers for n in ast.walk(helper)}
    assert products and products <= inside, sorted(n.lineno for n in products - inside)


def test_one_helper_tests_grid_blocks_for_zero():
    """Only ``_zero_cells`` asks ``_grid_blocks`` for unreduced values, and
    the curve enumeration reads its zero cells from it, not from a search
    of its own."""
    tree = ast.parse(Path(fiber.__file__).read_text(encoding="utf-8"))
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}

    def calls(node, name):
        return [
            c
            for c in ast.walk(node)
            if isinstance(c, ast.Call) and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
        ]

    # a call that passes ``reduced`` at all, by keyword or by position
    unreduced = {
        caller
        for caller, node in functions.items()
        for call in calls(node, "_grid_blocks")
        if len(call.args) > 3 or any(k.arg == "reduced" for k in call.keywords)
    }
    assert unreduced == {"_zero_cells"}
    for name in ("_zero_cells", "_curve_points_int"):
        assert not calls(functions[name], "flatnonzero"), name
    assert calls(functions["_curve_points_int"], "_zero_cells")


# -- identifiability: fiber degrees against decompositions of forms ----------


def _degree_mismatch(n, d, k, trials, seed=0):
    """None when the probe of v_d(P^n) at k reads what the literature says
    (``tangential_projection_degree``) or the literature gives no count."""
    want = tangential_projection_degree(n, d, k)
    if want is None:
        return None
    tree = {"constructor": "veronese", "n": 2, "d": d} if n == 2 else {"constructor": "rnc", "d": d}
    x = build(tree, FIELD, random.Random(seed))
    rep = fiber_probe(x, k, random.Random(seed), trials=trials)
    if want == NOT_GENERICALLY_FINITE:
        expected = ("NotGenericallyFinite", None)
    else:
        expected = ("BirationalEvidence" if want == 1 else "NonBirationalEvidence", want)
    got = (rep.verdict, rep.consensus_d)
    return None if got == expected else f"v_{d}(P^{n}) k={k}: {got} {rep.cardinalities}, want {expected}"


# (n, d, k, trials, degree): the perfect plane quintic and septic, the plane
# sextic below and at COV's (2, 6, 9), and the perfect binary septic.  At the
# default trials the septic's fibers read 3 of their 5 points at two primes
_DEGREE_PINS = [
    (2, 6, 7, DEFAULT_FIBER_TRIALS, 1),
    (2, 6, 8, DEFAULT_FIBER_TRIALS, 2),
    (2, 5, 6, DEFAULT_FIBER_TRIALS, 1),
    (1, 7, 3, DEFAULT_FIBER_TRIALS, 1),
    (2, 7, 11, 30, 5),
]


@pytest.mark.parametrize("n, d, k, trials, degree", _DEGREE_PINS, ids=[f"v{d}P{n}k{k}" for n, d, k, _, _ in _DEGREE_PINS])
def test_fiber_degree_is_the_number_of_decompositions(n, d, k, trials, degree):
    assert tangential_projection_degree(n, d, k) == degree
    assert _degree_mismatch(n, d, k, trials) is None


def _degree_sweep_cases():
    """Every k with a projection: v_d(P^2) for d = 3..7, rnc of degree 3..11."""
    cases = []
    for n, degrees in ((2, range(3, 8)), (1, range(3, 12))):
        for d in degrees:
            k = 1
            while True:
                try:
                    tangential_projection_degree(n, d, k)
                except ValueError:
                    break
                cases.append((n, d, k))
                k += 1
    return cases


@pytest.mark.slow
def test_full_fiber_degree_sweep():
    """30 trials, so that the septic's five points show at two primes."""
    cases = _degree_sweep_cases()
    assert len(cases) == 63
    mismatches = [m for m in (_degree_mismatch(n, d, k, 30) for n, d, k in cases) if m]
    assert not mismatches, mismatches
