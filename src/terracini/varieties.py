"""Variety handles: sampleable projective varieties with exact local 2-jets.

A handle is a capability object, not an equation set.  It knows how to draw
generic witnesses, how to produce the affine-cone tangent frame at a witness,
and how to pull an ambient polynomial back to a second-order jet on a local
chart.  Every concrete kind reduces those three capabilities to one shared
primitive, the chart 2-jet: an exact local parameterization

    x(u) = P + sum_a u_a D_a + 1/2 sum_ab u_a u_b S_ab + O(3)

around the witness.  Pullbacks are then a single contraction and composite
handles (images, cones, sections, projections) chain by the chain rule, so
linear projections commute with jets by construction.

A chart jet is first order until its second order is read: tangent frames,
and so every secant dimension, need only ``point`` and ``first``, while the
``second`` block (Hessians, section corrections) is computed on first read.
Every check that can reject a witness runs on the first-order part.

A witness carries one ambient point, ``raw``, computed once when it is
drawn or built: it is the first column of every tangent frame and every
chart jet's point.  Points are normalized only where they are compared
(``sample_distinct``) and on the plane curve's chart x2 = 1.

Derivatives are taken in one place, ``algebra.PolyJets``: each parametric,
plane-curve, map-image and section handle keeps one kernel over its
polynomials and reads values, gradients and Hessians from it, and a section
over a cone keeps one more for its ruling forms.  A kernel compiles each
order on first read, so the ruling kernel, which only evaluates, compiles
values only.

Charts are affine and a draw that lands off-chart is resampled; misses are
measure zero over the large analysis primes.  Every capped redraw goes
through ``_resample_loop``, the one reader of the cap ``MAX_RESAMPLE``
(64).  Each kind builds its witnesses, drawn or enumerated, in one method
(``_witness_at``, ``_witness_on``, ``_witness_over``), which raises
``DegenerateWitness`` at a zero point.  A section finds the fiber scan's
points on a ruling (``_ruling_points``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import add
from typing import Callable, Optional, Sequence

from .algebra import (
    FieldSpec,
    Jet2,
    LinearSystem,
    Matrix,
    MultiPoly,
    PolyJets,
    _poly_gcd,
    dot,
    exact_rank,
    inverse,
    jet2_eval,
    normalize_point,
    restrict_univariate,
    uni_roots_mod_p,
)
from .errors import (
    CenterFillsAmbient,
    ConfigError,
    ConstructionError,
    DegenerateWitness,
    FieldMismatchError,
    SamplingExhausted,
)

__all__ = [
    "Witness",
    "ChartJet",
    "VarietyHandle",
    "ParametricHandle",
    "ImplicitPlaneCurveHandle",
    "MapImageHandle",
    "ConeHandle",
    "SectionHandle",
    "ProjectionHandle",
    "veronese",
    "rational_normal_curve",
    "implicit_plane_curve",
    "map_image",
    "cone",
    "hypersurface_section",
    "hyperplane_section",
    "generic_hyperplane_section",
    "sample_distinct",
    "CONSTRUCTORS",
    "check_tree",
    "build",
    "MAX_RESAMPLE",
    "AMBIENT_CAP",
]

MAX_RESAMPLE = 64
AMBIENT_CAP = 120

# integer range for construction-time random draws; below every analysis
# prime, so one drawn integer model reduces consistently into each field
_DRAW_RANGE = 2**30


@dataclass(frozen=True)
class Witness:
    """One sampled point: chart coordinates plus its ambient representative.

    ``params`` are the handle's own chart coordinates, including any solved
    ruling parameter.  ``raw``, the one ambient point, is what the chart map
    gives at ``params``, not rescaled; a caller that compares points
    normalizes it, as ``sample_distinct`` does.  ``base`` chains to the
    witness of the underlying handle for composite kinds.
    """

    params: tuple[int, ...]
    raw: tuple[int, ...]
    base: Optional["Witness"] = None


class ChartJet:
    """Exact 2-jet of a local parameterization at a witness.

    ``first[a]`` and ``second[a][b]`` are ambient vectors; ``second`` is
    symmetric in its two chart indices.  ``second`` is computed on first read
    by the closure the handle kind supplies, then kept.
    """

    def __init__(
        self,
        point: tuple[int, ...],
        first: tuple[tuple[int, ...], ...],
        second_fn: Callable[[], tuple[tuple[tuple[int, ...], ...], ...]],
    ) -> None:
        self.point = point
        self.first = first
        self._second_fn = second_fn

    @cached_property
    def second(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return self._second_fn()

    @property
    def dim(self) -> int:
        return len(self.first)

    def frame(self, field: FieldSpec) -> Matrix:
        """The tangent frame this chart gives: its point, then its first
        derivatives, as columns."""
        return Matrix.from_columns(field, [self.point, *self.first])


def _contract_hessian(gradient, hessian, chart: ChartJet, p: int) -> tuple[tuple[int, ...], ...]:
    """Chart Hessian of an ambient function with this gradient and Hessian at
    the chart's point (chain rule); a linear form passes the Hessian ()."""
    n = chart.dim
    hess = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            acc = dot(gradient, chart.second[a][b], p)
            da, db = chart.first[a], chart.first[b]
            for i, hrow in enumerate(hessian):
                if da[i]:
                    acc += da[i] * dot(hrow, db, p)
            hess[a][b] = hess[b][a] = acc % p
    return tuple(tuple(row) for row in hess)


def _pull_back(value: int, gradient, hessian, chart: ChartJet, p: int) -> Jet2:
    """Chart 2-jet of an ambient function with this value, gradient and
    Hessian at the chart's point."""
    grad = tuple(dot(gradient, v, p) for v in chart.first)
    return Jet2(value, grad, _contract_hessian(gradient, hessian, chart, p))


def _stack_hessians(hessians, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One Hessian per ambient coordinate, as a chart's ``second[a][b]``."""
    return tuple(tuple(tuple(h[a][b] for h in hessians) for b in range(n)) for a in range(n))


def _contract_linear_form(coeffs: Sequence[int], chart: ChartJet, p: int) -> Jet2:
    """Pull a linear form back through a chart 2-jet: one chart can serve
    every form drawn at its witness."""
    return _pull_back(dot(coeffs, chart.point, p), coeffs, (), chart, p)


class VarietyHandle:
    """Common capability surface; concrete kinds fill in the chart 2-jet.

    ``blueprint`` is the variety tree the handle was built from.  ``build``
    sets it at every level of the tree, and nothing else does: a handle made
    by a direct constructor call has none, and ``fiber_probe``, which
    rebuilds the tree over each enumeration prime, refuses such a handle.
    """

    kind = "abstract"
    blueprint: Optional[dict] = None
    base: Optional["VarietyHandle"] = None  # a composite kind's underlying handle

    def __init__(self, field: FieldSpec, ambient_r: int, label: str) -> None:
        self.field = field
        self.ambient_r = ambient_r
        self.label = label
        self._dim_cache: int | None = None

    # -- to be provided by concrete kinds --------------------------------

    @property
    def chart_dim(self) -> int:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Witness:
        raise NotImplementedError

    def chart_jet2(self, w: Witness) -> ChartJet:
        raise NotImplementedError

    @property
    def coord_support(self) -> frozenset[int]:
        return frozenset(range(self.ambient_r + 1))

    def span_dim(self) -> int:
        """Projective dimension of the linear span (declared or measured)."""
        return self.ambient_r

    def assumptions(self) -> tuple[str, ...]:
        """What the reports take on faith: a composite kind's are its base's."""
        return () if self.base is None else self.base.assumptions()

    # -- shared capabilities ----------------------------------------------

    def tangent_frame(self, w: Witness) -> Matrix:
        """Columns spanning the affine cone over the embedded tangent space.

        The witness point itself is always among the columns, so the frame
        has chart_dim + 1 columns.  Its rank is dim X + 1 at a general
        witness, which is full column rank only on a chart generically
        finite onto X: a map image of a larger base has dependent columns.
        """
        return self.chart_jet2(w).frame(self.field)

    def pullback_jet2(self, coeffs: Sequence[int], w: Witness) -> Jet2:
        """2-jet on the local chart of the linear form with these coefficients.

        For a form vanishing at the witness, the gradient vanishes exactly
        when the form's hyperplane contains the embedded tangent space.
        """
        if len(coeffs) != self.ambient_r + 1:
            raise ConstructionError("linear form arity mismatch")
        return _contract_linear_form(coeffs, self.chart_jet2(w), self.field.modulus)

    def pullback_poly_jet2(self, g: MultiPoly, w: Witness) -> Jet2:
        """Chart 2-jet of an arbitrary ambient polynomial at the witness."""
        if g.nvars != self.ambient_r + 1:
            raise ConstructionError("ambient polynomial arity mismatch")
        chart = self.chart_jet2(w)
        jet = jet2_eval(g, chart.point)
        return _pull_back(jet.value, jet.gradient, jet.hessian, chart, self.field.modulus)

    def intrinsic_dim(self, rng: random.Random) -> int:
        """Generic tangent-frame rank minus one: the max over three draws.

        A frame's rank drops only on a proper closed subset (where a
        projection ramifies, say), so a lower draw is a special witness, not
        an ill-formed handle.
        """
        if self._dim_cache is not None:
            return self._dim_cache
        dims = []
        for _ in range(3):
            w = self.sample(rng)
            dims.append(exact_rank(self.tangent_frame(w)) - 1)
        self._dim_cache = max(dims)
        return self._dim_cache

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r}, r={self.ambient_r})"


def _resample_loop(fn, what: str):
    """The first draw ``fn()`` that is not a miss (None, or a raised
    ``DegenerateWitness``); ``MAX_RESAMPLE`` misses raise ``SamplingExhausted``."""
    for _ in range(MAX_RESAMPLE):
        try:
            out = fn()
        except DegenerateWitness:
            continue
        if out is not None:
            return out
    raise SamplingExhausted(f"resample cap hit while sampling {what}")


def sample_distinct(handle: VarietyHandle, count: int, rng: random.Random) -> list[Witness]:
    """Draw witnesses with pairwise distinct points, keyed by normalized ``raw``."""
    p = handle.field.modulus
    seen: set[tuple] = set()
    out: list[Witness] = []

    def one():
        w = handle.sample(rng)
        key = normalize_point(w.raw, p)
        if key in seen:
            return None
        seen.add(key)
        return w

    for _ in range(count):
        out.append(_resample_loop(one, f"distinct witnesses on {handle.label}"))
    return out


def _random_root(terms: dict, line: Sequence[Sequence[int]], p: int, rng: random.Random) -> int | None:
    """A root s, drawn uniformly, of the term map restricted to the line
    (``restrict_univariate``), or None when the restriction is constant or
    has no root: the draw is then resampled."""
    restricted = restrict_univariate(terms, line, p)
    if len(restricted) < 2:
        return None
    roots = sorted(uni_roots_mod_p(restricted, p, rng))
    if not roots:
        return None
    return rng.choice(roots)


# ---------------------------------------------------------------------------
# parametric handles
# ---------------------------------------------------------------------------


class ParametricHandle(VarietyHandle):
    """Image of an affine chart K^n under a tuple of coordinate polynomials."""

    kind = "parametric"

    def __init__(self, field: FieldSpec, polys: Sequence[MultiPoly], n: int, label: str) -> None:
        if not polys:
            raise ConstructionError("parametric handle needs coordinates")
        for p in polys:
            if p.field != field:
                raise FieldMismatchError("coordinate polynomial field differs")
            if p.nvars != n:
                raise ConstructionError("coordinate polynomial arity differs")
        super().__init__(field, len(polys) - 1, label)
        self.polys = tuple(polys)
        self.n = n
        self.jets = PolyJets(self.polys, n)

    @property
    def chart_dim(self) -> int:
        return self.n

    @property
    def coord_support(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.polys) if not p.is_zero())

    def _eval_map(self, u: Sequence[int]) -> tuple[int, ...]:
        return self.jets.values(self.jets.powers(u))

    def sample(self, rng: random.Random) -> Witness:
        return _resample_loop(
            lambda: self._witness_at(tuple(self.field.random_scalar(rng) for _ in range(self.n))), self.label
        )

    def _witness_at(self, u: tuple[int, ...]) -> Witness:
        """The witness at the chart point u, for this handle's draws and its
        sections'; a u the map sends to zero is degenerate."""
        pt = self._eval_map(u)
        if not any(pt):
            raise DegenerateWitness("chart point maps to zero")
        return Witness(u, pt)

    def chart_jet2(self, w: Witness) -> ChartJet:
        powers = self.jets.powers(w.params)
        first = tuple(zip(*self.jets.gradients(powers)))
        return ChartJet(w.raw, first, lambda: _stack_hessians(self.jets.hessians(powers), self.n))


def _monomial_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= d in n variables, graded-lex."""
    out = [()]
    for _ in range(n):
        out = [e + (a,) for e in out for a in range(d + 1 - sum(e))]
    out.sort(key=lambda e: (sum(e), e))
    return out


def veronese(field: FieldSpec, n: int, d: int, label: str | None = None) -> ParametricHandle:
    """Degree-d embedding of P^n on an affine chart, one coordinate per
    dehomogenized monomial of degree at most d."""
    if n < 1 or d < 1:
        raise ConstructionError("veronese needs n >= 1 and d >= 1")
    # the ambient dimension C(n + d, d) - 1 is at least max(n, d), so a large
    # n or d exceeds the cap before comb, or the monomial list, is computed
    if max(n, d) > AMBIENT_CAP:
        raise ConstructionError(f"veronese({n},{d}) ambient dimension exceeds cap {AMBIENT_CAP}")
    r = comb(n + d, d) - 1
    if r > AMBIENT_CAP:
        raise ConstructionError(f"veronese({n},{d}) ambient dimension {r} exceeds cap {AMBIENT_CAP}")
    polys = [MultiPoly(field, n, {e: 1}) for e in _monomial_exponents(n, d)]
    return ParametricHandle(field, polys, n, label or f"veronese-{n}-{d}")


def rational_normal_curve(field: FieldSpec, d: int, label: str | None = None) -> ParametricHandle:
    # checked here, so that an error names the rnc it was asked for
    if d < 1:
        raise ConstructionError("rnc needs d >= 1")
    if d > AMBIENT_CAP:
        raise ConstructionError(f"rnc({d}) ambient dimension exceeds cap {AMBIENT_CAP}")
    return veronese(field, 1, d, label=label or f"rnc-{d}")


# ---------------------------------------------------------------------------
# implicit plane curves
# ---------------------------------------------------------------------------


class ImplicitPlaneCurveHandle(VarietyHandle):
    """Smooth points of a plane curve {f = 0} in P^2, sampled by cutting the
    curve with random lines and solving the restricted univariate."""

    kind = "implicit_plane_curve"

    def __init__(self, field: FieldSpec, f: MultiPoly, genus_hint: int, label: str) -> None:
        super().__init__(field, 2, label)
        self.f = f
        self.genus_hint = genus_hint
        # affine equation f(u, v, 1) on the chart {x2 = 1}
        self.f_affine = MultiPoly.from_int_terms(field, 2, [(c, e[:2]) for e, c in f.terms.items()])
        self.jets = PolyJets((self.f_affine,), 2)

    @property
    def chart_dim(self) -> int:
        return 1

    def span_dim(self) -> int:
        return 2

    def assumptions(self) -> tuple[str, ...]:
        return (f"curve {self.label}: genus_hint={self.genus_hint} asserted, not verified",)

    def sample(self, rng: random.Random) -> Witness:
        f, field = self.f, self.field
        p = field.modulus

        def one():
            a = [field.random_scalar(rng) for _ in range(3)]
            b = [field.random_scalar(rng) for _ in range(3)]
            if not any(b):
                return None
            s0 = _random_root(f.terms, list(zip(a, b)), p, rng)
            if s0 is None:
                return None
            return self._witness_at(tuple((ai + s0 * bi) % p for ai, bi in zip(a, b)))

        return _resample_loop(one, self.label)

    def _witness_at(self, pt: Sequence[int]) -> Witness:
        """The witness at the curve point pt, drawn or enumerated; a point off
        the working chart x2 = 1, or a singular one, is degenerate."""
        if pt[2] == 0:
            raise DegenerateWitness("curve point is off the working chart x2 = 1")
        pt = normalize_point(pt, self.field.modulus)
        params = pt[:2]
        if not any(self.jets.gradients(self.jets.powers(params))[0]):
            raise DegenerateWitness("singular curve point")
        return Witness(params, pt)

    def chart_jet2(self, w: Witness) -> ChartJet:
        p = self.field.modulus
        powers = self.jets.powers(w.params)
        if self.jets.values(powers)[0] != 0:
            raise DegenerateWitness("witness is not on the curve")
        (gu, gv), = self.jets.gradients(powers)
        if not (gu or gv):
            raise DegenerateWitness("singular curve point")
        t = (-gv % p, gu)
        first = ((t[0], t[1], 0),)

        def second():
            (h,) = self.jets.hessians(powers)
            tht = t[0] * t[0] * h[0][0] + 2 * t[0] * t[1] * h[0][1] + t[1] * t[1] * h[1][1]
            # second-order correction along a direction transverse to the curve
            if gu:
                corr = (-tht * inverse(gu, p) % p, 0)
            else:
                corr = (0, -tht * inverse(gv, p) % p)
            return (((corr[0], corr[1], 0),),)

        return ChartJet(w.raw, first, second)


def _squarefree_by_line_restriction(f: MultiPoly, field: FieldSpec, rng: random.Random) -> bool:
    """A non-squarefree form restricts non-squarefree to every line, so one
    squarefree line restriction certifies squarefreeness."""
    p = field.modulus
    for _ in range(6):
        a = [field.random_scalar(rng) for _ in range(3)]
        b = [field.random_scalar(rng) for _ in range(3)]
        coeffs = restrict_univariate(f.terms, list(zip(a, b)), p)
        if len(coeffs) != f.total_degree() + 1:
            continue
        deriv = [(i * coeffs[i]) % p for i in range(1, len(coeffs))]
        if _poly_gcd(coeffs, deriv, p) == [1]:
            return True
    return False


def implicit_plane_curve(
    field: FieldSpec, f: MultiPoly, genus_hint: int, rng: random.Random, label: str | None = None
) -> ImplicitPlaneCurveHandle:
    if f.field != field:
        raise FieldMismatchError("curve equation field differs")
    if f.nvars != 3 or not f.is_homogeneous() or f.total_degree() < 1:
        raise ConstructionError("curve equation must be homogeneous in 3 variables")
    if f.total_degree() < 2:
        raise ConstructionError("curve equation must have degree >= 2: a line spans only P^1")
    if not _squarefree_by_line_restriction(f, field, rng):
        raise ConstructionError("curve equation is not squarefree")
    return ImplicitPlaneCurveHandle(field, f, genus_hint, label or "plane-curve")


# ---------------------------------------------------------------------------
# polynomial images
# ---------------------------------------------------------------------------


class MapImageHandle(VarietyHandle):
    kind = "map_image"

    def __init__(self, base: VarietyHandle, polys: Sequence[MultiPoly], label: str, span_r: int) -> None:
        super().__init__(base.field, len(polys) - 1, label)
        self.base = base
        self.polys = tuple(polys)
        self._span_r = span_r
        self.jets = PolyJets(self.polys, base.ambient_r + 1)

    @property
    def chart_dim(self) -> int:
        return self.base.chart_dim

    @property
    def coord_support(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.polys) if not p.is_zero())

    def span_dim(self) -> int:
        return self._span_r

    def _apply(self, x: Sequence[int]) -> tuple[int, ...]:
        return self.jets.values(self.jets.powers(x))

    def sample(self, rng: random.Random) -> Witness:
        return _resample_loop(lambda: self._witness_over(self.base.sample(rng)), self.label)

    def _witness_over(self, bw: Witness) -> Witness:
        """The witness over the base witness bw, drawn or enumerated; a base
        point in the base locus of the map is degenerate."""
        pt = self._apply(bw.raw)
        if not any(pt):
            raise DegenerateWitness("base point is in the base locus of the map")
        return Witness(bw.params, pt, base=bw)

    def chart_jet2(self, w: Witness) -> ChartJet:
        p = self.field.modulus
        base_chart = self.base.chart_jet2(w.base)
        n = base_chart.dim
        powers = self.jets.powers(base_chart.point)
        grads = self.jets.gradients(powers)
        first = tuple(tuple(dot(grad, v, p) for grad in grads) for v in base_chart.first)

        def second():
            hesses = [
                _contract_hessian(grad, hess, base_chart, p)
                for grad, hess in zip(grads, self.jets.hessians(powers))
            ]
            return _stack_hessians(hesses, n)

        return ChartJet(w.raw, first, second)


def map_image(
    base: VarietyHandle, polys: Sequence[MultiPoly], rng: random.Random, label: str | None = None
) -> MapImageHandle:
    """Image of a handle under a homogeneous polynomial map.

    The linear span of the image is measured at construction, so downstream
    expected-dimension formulas see the span, not the raw coordinate count:
    from 20 samples, then one more at a time for as long as every sample
    drawn is independent of the others.
    """
    arity = base.ambient_r + 1
    degs = set()
    for p in polys:
        if p.field != base.field:
            raise FieldMismatchError("map component field differs")
        if p.nvars != arity:
            raise ConstructionError("map components must live on the base ambient coordinates")
        if not p.is_zero():
            if not p.is_homogeneous():
                raise ConstructionError("map components must be homogeneous")
            degs.add(p.total_degree())
    if len(degs) != 1:
        raise ConstructionError("map components must share one common degree")
    handle = MapImageHandle(base, polys, label or f"image-of-{base.label}", span_r=len(polys) - 1)
    # scaling a row keeps the rank, so the raw points serve
    pts = [handle.sample(rng).raw for _ in range(20)]
    rank = exact_rank(Matrix(base.field, pts))
    while rank == len(pts):
        pts.append(handle.sample(rng).raw)
        rank = exact_rank(Matrix(base.field, pts))
    if rank == 1:
        raise ConstructionError(f"{handle.label} spans one point: the map collapses its base")
    handle._span_r = rank - 1
    return handle


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


class ConeHandle(VarietyHandle):
    """Cone over a base handle with a block-disjoint linear vertex.

    Chart coordinates are the base chart followed by one ruling coefficient
    per vertex column; the chart map x = y(t) + V mu is affine in mu, so the
    second derivatives are the base block padded with zeros.
    """

    kind = "cone"

    def __init__(self, base: VarietyHandle, vertex: Matrix, label: str) -> None:
        super().__init__(base.field, base.ambient_r, label)
        self.base = base
        self.vertex = vertex
        self.m = vertex.cols

    @property
    def chart_dim(self) -> int:
        return self.base.chart_dim + self.m

    @property
    def coord_support(self) -> frozenset[int]:
        vsupp = frozenset(i for i in range(self.vertex.rows) if any(self.vertex.row(i)))
        return self.base.coord_support | vsupp

    def span_dim(self) -> int:
        return self.base.span_dim() + self.m

    def _point(self, y: Sequence[int], mu: Sequence[int]) -> tuple[int, ...]:
        p = self.field.modulus
        return tuple((a + b) % p for a, b in zip(y, self.vertex.matvec(mu)))

    def sample(self, rng: random.Random) -> Witness:
        bw = self.base.sample(rng)
        return self._witness_on(bw, tuple(self.field.random_scalar(rng) for _ in range(self.m)))

    def _witness_on(self, bw: Witness, mu: Sequence[int]) -> Witness:
        """The witness y + V mu over the base witness bw, whose point is y:
        never zero, as V is zero on y's coordinates (``cone`` checks)."""
        return Witness(bw.params + tuple(mu), self._point(bw.raw, mu), base=bw)

    def chart_jet2(self, w: Witness) -> ChartJet:
        base_chart = self.base.chart_jet2(w.base)
        nb = base_chart.dim
        first = tuple(base_chart.first) + tuple(self.vertex.column(j) for j in range(self.m))
        n = nb + self.m

        def second():
            zero_vec = (0,) * (self.ambient_r + 1)
            return tuple(
                tuple(
                    base_chart.second[a][b] if a < nb and b < nb else zero_vec
                    for b in range(n)
                )
                for a in range(n)
            )

        return ChartJet(w.raw, first, second)


def cone(base: VarietyHandle, vertex: Matrix, label: str | None = None) -> ConeHandle:
    if vertex.field != base.field:
        raise FieldMismatchError("vertex field differs")
    if vertex.rows != base.ambient_r + 1:
        raise ConstructionError("vertex lives in a different ambient space")
    if vertex.cols == 0:
        raise ConstructionError("cone needs at least one vertex column")
    if exact_rank(vertex) != vertex.cols:
        raise ConstructionError("vertex columns are dependent")
    for i in base.coord_support:
        if any(vertex.row(i)):
            raise ConstructionError(
                "vertex support overlaps the base coordinate block"
            )
    return ConeHandle(base, vertex, label or f"cone-over-{base.label}")


# ---------------------------------------------------------------------------
# sections (hypersurface and hyperplane cuts share one mechanism)
# ---------------------------------------------------------------------------


class SectionHandle(VarietyHandle):
    """Base handle cut by ambient homogeneous constraints.

    At most one constraint may be nonlinear on the base chart.  Sampling
    solves the linear constraints exactly, restricts the nonlinear one to a
    random line inside the solved subspace, and root-finds.

    Over a cone, the restriction to a ruling happens once per handle: the
    constructor expands each constraint as g(y + V mu), grouped into
    coefficient polynomials in y per mu-monomial and compiled into one
    kernel, and a draw only evaluates those at its base point y.  Every
    base point y is zero off the cone base's coordinate support (the cone
    base's own witnesses and the fiber scan's curve points are), so the
    expansion keeps y_i only on that support, and ``_restrict_to_ruling``
    refuses a y that is not.  The
    restriction to a random line (in mu over a cone, in the chart over a
    parametric base) depends on the draw and is made per draw, on
    coefficient lists (``restrict_univariate``).  This handle is the one
    owner of that geometry: it finds the fiber scan's points on a ruling
    (``_ruling_points``) and builds every witness on a ruling, drawn or
    enumerated (``_ruling_witness``).
    """

    kind = "section"

    def __init__(self, base: VarietyHandle, constraints: Sequence[MultiPoly], label: str) -> None:
        if not isinstance(base, (ParametricHandle, ConeHandle)):
            raise ConstructionError(
                f"sections are supported over parametric or cone handles, not {base.kind}"
            )
        super().__init__(base.field, base.ambient_r, label)
        self.base = base
        self.constraints = tuple(constraints)
        # the one dimension guard of both cuts: a section of dimension 0 is a
        # finite set of points, with no chart to sample on
        if self.chart_dim < 1:
            raise ConstructionError(f"{label} would have dimension {self.chart_dim}: a cut needs dimension >= 2")
        if isinstance(base, ParametricHandle):
            if len(self.constraints) != 1:
                raise ConstructionError(
                    "parametric bases support exactly one section constraint"
                )
        else:
            nonlinear = [g for g in self.constraints if g.total_degree() > 1]
            if len(nonlinear) > 1:
                raise ConstructionError(
                    "at most one constraint may be nonlinear on a cone ruling"
                )
        self.jets = PolyJets(self.constraints, base.ambient_r + 1)
        if isinstance(base, ConeHandle):
            support = base.base.coord_support
            self._off_support = [i for i in range(base.ambient_r + 1) if i not in support]
            self._ruling_keys, self._ruling_jets = _ruling_forms(self.constraints, base.vertex, support)

    @property
    def chart_dim(self) -> int:
        return self.base.chart_dim - len(self.constraints)

    @property
    def coord_support(self) -> frozenset[int]:
        return self.base.coord_support

    def span_dim(self) -> int:
        linear_cuts = sum(1 for g in self.constraints if g.total_degree() == 1)
        return self.base.span_dim() - linear_cuts

    def assumptions(self) -> tuple[str, ...]:
        extra = (
            f"section {self.label}: smoothness of the cutting hypersurface is taken on faith",
        )
        return self.base.assumptions() + extra

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: random.Random) -> Witness:
        if isinstance(self.base, ParametricHandle):
            return _resample_loop(lambda: self._sample_parametric(rng), self.label)
        return _resample_loop(lambda: self._sample_cone(rng), self.label)

    def _sample_parametric(self, rng: random.Random) -> Witness | None:
        base: ParametricHandle = self.base
        field = self.field
        p = field.modulus
        n = base.n
        a = [field.random_scalar(rng) for _ in range(n)]
        b = [field.random_scalar(rng) for _ in range(n)]
        if not any(b):
            return None
        line = list(zip(a, b))
        phi_line = [restrict_univariate(g.terms, line, p) for g in base.polys]
        s0 = _random_root(self.constraints[0].terms, phi_line, p, rng)
        if s0 is None:
            return None
        return self._witness_over(base._witness_at(tuple((ai + s0 * bi) % p for ai, bi in zip(a, b))))

    def _sample_cone(self, rng: random.Random) -> Witness | None:
        base: ConeHandle = self.base
        field = self.field
        p = field.modulus
        m = base.m
        bw = base.base.sample(rng)
        lin_rows, lin_rhs, nonlinear = [], [], []
        for terms in self._restrict_to_ruling(bw.raw):
            if max(map(sum, terms), default=-1) <= 1:
                lin_rows.append([terms.get(_unit(m, j), 0) for j in range(m)])
                lin_rhs.append(-terms.get((0,) * m, 0) % p)
            else:
                nonlinear.append(terms)
        system = LinearSystem(lin_rows, m, p)
        mu_part = system.solve(lin_rhs)
        if mu_part is None:
            return None
        basis = system.basis
        nfree = len(basis)
        if nonlinear:
            if nfree == 0:
                return None
            t0 = [field.random_scalar(rng) for _ in range(nfree)]
            d = [field.random_scalar(rng) for _ in range(nfree)]
            if not any(d):
                return None
            mu_line = list(zip(_linear_combo([mu_part, *basis], [1, *t0], p), _linear_combo(basis, d, p)))
            s0 = _random_root(nonlinear[0], mu_line, p, rng)
            if s0 is None:
                return None
            mu = tuple((start + s0 * slope) % p for start, slope in mu_line)
        else:
            t = [field.random_scalar(rng) for _ in range(nfree)]
            mu = _linear_combo([mu_part, *basis], [1, *t], p)
        return self._ruling_witness(bw, mu)

    def _witness_over(self, bw: Witness) -> Witness:
        """The witness over bw, a base witness on the section."""
        return Witness(bw.params, bw.raw, base=bw)

    def _ruling_witness(self, bw: Witness, mu: Sequence[int]) -> Witness:
        """The witness of the point y + V mu on the ruling of the cone over
        the base witness bw, whose representative is y: the one way a
        section-over-cone witness is built, whether drawn or enumerated."""
        cone_w = self.base._witness_on(bw, mu)
        if any(self.jets.values(self.jets.powers(cone_w.raw))):
            raise ConstructionError("internal: constraint not satisfied at sample")
        return self._witness_over(cone_w)

    def _restrict_to_ruling(self, y: Sequence[int]) -> list[dict[tuple[int, ...], int]]:
        """The nonzero terms, keyed by mu-exponent, of each constraint
        restricted to the ruling x = y + V mu: its mu-coefficients evaluated
        at y by one compiled kernel.  The kernel reads y only on the cone
        base's coordinate support, so a y with a nonzero coordinate off it
        raises ``ConstructionError``."""
        if any(y[i] for i in self._off_support):
            raise ConstructionError("ruling base point is nonzero off the cone base's coordinate support")
        jets = self._ruling_jets
        out: list[dict[tuple[int, ...], int]] = [{} for _ in self.constraints]
        for (g, mu_e), c in zip(self._ruling_keys, jets.values(jets.powers(y))):
            if c:
                out[g][mu_e] = c
        return out

    def _ruling_points(self, y: Sequence[int], part: list[int], basis: list[tuple[int, ...]]) -> list[list[int]]:
        """Vertex coefficients on the ruling over y that solve the fiber
        scan's proportionality system, ``part + span(basis)``, and lie on the
        section: ``part``, if the section's value kernel vanishes at
        y + V part, or the common roots of the constraints restricted to the
        ruling on the line of leftover freedom."""
        p = self.field.modulus
        if not basis:
            return [] if any(self.jets.values(self.jets.powers(self.base._point(y, part)))) else [part]
        if len(basis) > 1:
            # a plane of candidates inside one ruling only happens at special
            # probe points; declare the trial degenerate rather than guess
            raise DegenerateWitness("probe point has a positive-dimensional fiber")
        line = list(zip(part, basis[0]))
        restricted = self._restrict_to_ruling(y)
        roots = None
        for terms in restricted:
            on_line = restrict_univariate(terms, line, p)
            if not on_line:
                # the whole candidate line lies inside the section: the fiber
                # over this probe point is a curve, so the probe is no good
                raise DegenerateWitness("probe point has a positive-dimensional fiber")
            found = uni_roots_mod_p(on_line, p)
            roots = found if roots is None else roots & found
        out = [[(c + r * dc) % p for c, dc in line] for r in sorted(roots)]
        # one constraint lists its points by root, several by coordinates
        return out if len(restricted) == 1 else sorted(out)

    # -- jets ---------------------------------------------------------------

    def chart_jet2(self, w: Witness) -> ChartJet:
        base_chart = self.base.chart_jet2(w.base)
        nb = base_chart.dim
        p = self.field.modulus
        powers = self.jets.powers(base_chart.point)
        if any(self.jets.values(powers)):
            raise DegenerateWitness("witness is off the section")
        ambient_grads = self.jets.gradients(powers)
        grads = [[dot(grad, v, p) for v in base_chart.first] for grad in ambient_grads]
        # one reduction of the gradient matrix serves the rank check, the
        # kernel and every second-order correction
        system = LinearSystem(grads, nb, p)
        if system.rank != len(self.constraints):
            raise DegenerateWitness("constraint gradients are dependent at the witness")
        kcols = system.basis
        ns = len(kcols)
        first = tuple(_linear_combo(base_chart.first, kcols[a], p) for a in range(ns))

        def second():
            # independent gradient rows make every correction system solvable,
            # so ``solve`` never returns None here
            hesses = [
                _contract_hessian(grad, hess, base_chart, p)
                for grad, hess in zip(ambient_grads, self.jets.hessians(powers))
            ]
            base_second = [v for row in base_chart.second for v in row]
            out = [[None] * ns for _ in range(ns)]
            for a in range(ns):
                for b in range(a, ns):
                    rhs = [-dot(kcols[a], [dot(row, kcols[b], p) for row in h], p) % p for h in hesses]
                    corr = system.solve(rhs)
                    coeffs = [x * y % p for x in kcols[a] for y in kcols[b]] + corr
                    out[a][b] = out[b][a] = _linear_combo(
                        base_second + list(base_chart.first), coeffs, p
                    )
            return tuple(tuple(row) for row in out)

        return ChartJet(w.raw, first, second)


def _ruling_forms(constraints: Sequence[MultiPoly], vertex: Matrix, support: frozenset[int]):
    """Each constraint g as g(y + V mu), a polynomial in (y, mu), with its
    terms grouped by mu-monomial into coefficient polynomials in y: the
    (constraint index, mu-exponent) of each coefficient polynomial, and one
    kernel over them in the same order.

    Only points y that vanish off ``support`` are ever passed in, so
    coordinate i's linear form keeps y_i only for i in ``support``: it is
    y_i + sum_j V_ij mu_j there and sum_j V_ij mu_j elsewhere.  That drops
    every term a y-coordinate off the support would carry, and nothing else:
    the expansion is the general one, so a vertex with nonzero rows on the
    support expands correctly too.

    The expansion runs on {exponents over (y, mu): coefficient} dicts.  Each
    coordinate's linear form keeps one list of its powers, grown on demand
    and shared by every constraint, and each term of g is its coefficient
    times a product of cached powers."""
    field = vertex.field
    p = field.modulus
    r1, m = vertex.rows, vertex.cols
    zero = (0,) * (r1 + m)
    powers = []
    for i in range(r1):
        form = {_unit(r1 + m, i): 1} if i in support else {}
        for j in range(m):
            if vertex[i, j]:
                form[_unit(r1 + m, r1 + j)] = vertex[i, j]
        powers.append([{zero: 1}, form])
    keys, coeffs = [], []
    for k, g in enumerate(constraints):
        acc: dict[tuple[int, ...], int] = {}
        for expo, coef in g.terms.items():
            term = {zero: coef}
            for row, e in zip(powers, expo):
                if e:
                    while len(row) <= e:
                        row.append(_dict_mul(row[-1], row[1], p))
                    term = _dict_mul(term, row[e], p)
            for e2, c in term.items():
                acc[e2] = acc.get(e2, 0) + c
        grouped: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for expo, coef in acc.items():
            coef %= p
            if coef:
                grouped.setdefault(expo[r1:], {})[expo[:r1]] = coef
        for mu_e, ys in grouped.items():
            keys.append((k, mu_e))
            coeffs.append(MultiPoly(field, r1, ys))
    return tuple(keys), PolyJets(coeffs, r1)


def _dict_mul(a: dict, b: dict, p: int) -> dict:
    """The product of two {exponents: coefficient} polynomials mod p, with
    zero coefficients dropped; terms come in the order the pairs first meet."""
    acc: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expo = tuple(map(add, e1, e2))
            acc[expo] = acc.get(expo, 0) + c1 * c2
    return {e: c % p for e, c in acc.items() if c % p}


def _unit(m: int, j: int) -> tuple[int, ...]:
    e = [0] * m
    e[j] = 1
    return tuple(e)


def _linear_combo(vectors, coeffs, p: int) -> tuple[int, ...]:
    """sum_k coeffs[k] vectors[k] mod p; the vectors share one length."""
    out = [0] * len(vectors[0])
    for vec, c in zip(vectors, coeffs):
        if c:
            for i, x in enumerate(vec):
                out[i] += c * x
    return tuple(x % p for x in out)


def _check_not_identically_zero(x: VarietyHandle, cut: SectionHandle, rng: random.Random) -> None:
    """Refuse a cut whose newest constraint, the last of ``cut``'s, vanishes
    at five draws from x, the handle it cuts.  The values are read off the
    cut's own kernel, whose value table every later draw from the cut reads
    too.  All five draws are made even after a nonzero value, so the random
    stream does not depend on the values."""
    jets = cut.jets
    hit = False
    for _ in range(5):
        w = x.sample(rng)
        hit = hit or jets.values(jets.powers(w.raw))[-1] != 0
    if not hit:
        raise ConstructionError("constraint vanishes identically on the base (5 samples)")


def hypersurface_section(
    base: VarietyHandle, h: MultiPoly, rng: random.Random, label: str | None = None
) -> SectionHandle:
    """Cut a parametric or cone handle by one homogeneous hypersurface."""
    if h.field != base.field:
        raise FieldMismatchError("hypersurface field differs")
    if h.nvars != base.ambient_r + 1 or not h.is_homogeneous() or h.total_degree() < 1:
        raise ConstructionError("hypersurface must be homogeneous on the ambient coordinates")
    cut = SectionHandle(base, [h], label or f"section-of-{base.label}")
    _check_not_identically_zero(base, cut, rng)
    return cut


def hyperplane_section(
    x: VarietyHandle, coeffs: list[int], rng: random.Random, label: str | None = None
) -> SectionHandle:
    """Cut by the hyperplane with these integer coefficients, one per ambient
    coordinate: the one cut of a tree's ``hyperplane_section`` node and of
    ``generic_hyperplane_section``.  A cut of a section extends its constraint
    list, keeping the one-nonlinear-constraint sampling discipline intact;
    anything else becomes the base of a one-cut section.
    """
    n = x.ambient_r + 1
    if not isinstance(coeffs, list) or len(coeffs) != n:
        raise ConstructionError(f"a hyperplane needs a list of {n} coefficients, got {coeffs!r}")
    lam = MultiPoly.from_int_terms(x.field, n, [(c, _unit(n, i)) for i, c in enumerate(coeffs)])
    base, constraints = (x.base, [*x.constraints, lam]) if isinstance(x, SectionHandle) else (x, [lam])
    cut = SectionHandle(base, constraints, label or f"hyperplane-cut-{x.label}")
    _check_not_identically_zero(x, cut, rng)
    return cut


def generic_hyperplane_section(
    x: VarietyHandle, rng: random.Random, label: str | None = None
) -> SectionHandle:
    """Cut by a fresh random hyperplane; dimension drops by exactly one."""
    coeffs = [rng.randrange(1, _DRAW_RANGE) for _ in range(x.ambient_r + 1)]
    return hyperplane_section(x, coeffs, rng, label)


# ---------------------------------------------------------------------------
# linear projections
# ---------------------------------------------------------------------------


class ProjectionHandle(VarietyHandle):
    """Image of a handle under an explicit linear map (chart jets compose
    linearly, so frames and pullbacks stay exact through the projection)."""

    kind = "projection"

    def __init__(self, base: VarietyHandle, proj: Matrix, label: str, span_r: int) -> None:
        if proj.field != base.field:
            raise FieldMismatchError("projection field differs")
        if proj.cols != base.ambient_r + 1:
            raise ConstructionError("projection domain mismatch")
        super().__init__(base.field, proj.rows - 1, label)
        self.base = base
        self.proj = proj
        self._span_r = span_r

    @property
    def chart_dim(self) -> int:
        return self.base.chart_dim

    def span_dim(self) -> int:
        return self._span_r

    def sample(self, rng: random.Random) -> Witness:
        return _resample_loop(lambda: self._witness_over(self.base.sample(rng)), self.label)

    def _witness_over(self, bw: Witness) -> Witness:
        """The witness over the base witness bw, off the projection center."""
        img = self.proj.matvec(bw.raw)
        if not any(img):
            raise DegenerateWitness("witness is in the projection center")
        return Witness(bw.params, img, base=bw)

    def generically_finite(self, rng: random.Random) -> bool:
        """Whether the projection keeps the dimension of its base, so that its
        general fiber is finite: the one rule behind the tower identities and
        the fiber test of birationality.  Both dimensions are cached on their
        handles, so asking once they are known draws nothing."""
        return self.intrinsic_dim(rng) == self.base.intrinsic_dim(rng)

    def chart_jet2(self, w: Witness) -> ChartJet:
        base_chart = self.base.chart_jet2(w.base)
        n = base_chart.dim
        first = tuple(self.proj.matvec(v) for v in base_chart.first)
        return ChartJet(w.raw, first, lambda: tuple(
            tuple(self.proj.matvec(base_chart.second[a][b]) for b in range(n)) for a in range(n)
        ))


# ---------------------------------------------------------------------------
# the tree interpreter
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _list_of(ok: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda x: isinstance(x, list) and all(map(ok, x))


_is_int_list = _list_of(_is_int)
# a term's degree sizes the power tables of every kernel that reads it, so it
# has the cap of veronese's d
_is_poly = _list_of(
    lambda t: isinstance(t, list) and len(t) == 2 and _is_int(t[0]) and _is_int_list(t[1])
    and min(t[1], default=0) >= 0 and sum(t[1]) <= AMBIENT_CAP
)
_INT = (_is_int, "an integer")
_POLY = (_is_poly, f"a list of [coefficient, [exponents]] pairs of total degree at most {AMBIENT_CAP}")
BASE = None  # a nested constructor node, checked recursively


def _tangential_projection(t: dict, base: VarietyHandle, field, rng, label) -> VarietyHandle:
    from .secant import tangential_projection  # secant imports this module

    try:
        return tangential_projection(base, t["points"], rng)[0]
    except CenterFillsAmbient as exc:
        # the tree asks for a projection its base cannot have
        raise ConstructionError(str(exc)) from exc


# Every constructor a variety tree may name: its keys with their type rules,
# which ``check_tree`` reads, and ``make(node, base, field, rng, label)``,
# which ``build`` calls with the node's base already built (None without one).
CONSTRUCTORS: dict[str, tuple[dict, Callable[..., VarietyHandle]]] = {
    "veronese": ({"n": _INT, "d": _INT}, lambda t, base, field, rng, label: veronese(field, t["n"], t["d"], label)),
    "rnc": ({"d": _INT}, lambda t, base, field, rng, label: rational_normal_curve(field, t["d"], label)),
    "implicit_plane_curve": (
        {"terms": _POLY, "genus_hint": _INT},
        lambda t, base, field, rng, label: implicit_plane_curve(
            field, MultiPoly.from_int_terms(field, 3, t["terms"]), t["genus_hint"], rng, label
        ),
    ),
    "map_image": (
        {"base": BASE, "components": (_list_of(_is_poly), f"a list of polynomials, each {_POLY[1]}"), "arity": _INT},
        lambda t, base, field, rng, label: map_image(
            base, [MultiPoly.from_int_terms(field, t["arity"], c) for c in t["components"]], rng, label
        ),
    ),
    "cone": (
        {"base": BASE, "vertex": (_list_of(_is_int_list), "a list of integer columns")},
        lambda t, base, field, rng, label: cone(
            base, Matrix.from_columns(field, [[field.scalar(x) for x in col] for col in t["vertex"]]), label
        ),
    ),
    "hypersurface_section": (
        {"base": BASE, "h": _POLY},
        lambda t, base, field, rng, label: hypersurface_section(
            base, MultiPoly.from_int_terms(field, base.ambient_r + 1, t["h"]), rng, label
        ),
    ),
    "hyperplane_section": (
        {"base": BASE, "hyperplane": (_is_int_list, "a list of integers")},
        lambda t, base, field, rng, label: hyperplane_section(base, t["hyperplane"], rng, label),
    ),
    # AMBIENT_CAP + 1 general points already span the linear span of any
    # buildable variety, so more points only draw more witnesses
    "tangential_projection": (
        {
            "base": BASE,
            "points": (lambda x: _is_int(x) and 1 <= x <= AMBIENT_CAP, f"a positive integer at most {AMBIENT_CAP}"),
        },
        _tangential_projection,
    ),
}
# built around the whole tree below it, so allowed only at the root
ROOT_ONLY = ("tangential_projection",)


def check_tree(node, depth: int = 1) -> None:
    """Check a variety tree against ``CONSTRUCTORS`` before anything is
    built: every node names a constructor, has exactly its keys, every key
    has its type, a ``ROOT_ONLY`` constructor stands only at the root, and
    no chain of bases is more than ``AMBIENT_CAP`` nodes deep, so that
    neither this check nor ``build`` runs out of stack.  ``depth`` counts
    the node itself, 1 at the root.  Raises ``ConfigError``."""
    if depth > AMBIENT_CAP:
        raise ConfigError(f"a variety tree may be at most {AMBIENT_CAP} constructors deep")
    if not isinstance(node, dict):
        raise ConfigError(f"constructor node must be an object, got {type(node).__name__}")
    kind = node.get("constructor")
    if not isinstance(kind, str) or kind not in CONSTRUCTORS:
        raise ConfigError(f"unknown constructor {kind!r}")
    keys, _ = CONSTRUCTORS[kind]
    if kind in ROOT_ONLY and depth > 1:
        raise ConfigError(f"constructor {kind!r} is allowed only at the root of a variety tree")
    missing = [k for k in keys if k not in node]
    if missing:
        raise ConfigError(f"constructor {kind!r} is missing keys {missing}")
    unknown = sorted(set(node) - {"constructor", *keys})
    if unknown:
        raise ConfigError(f"constructor {kind!r} has unknown keys {unknown}")
    for key, rule in keys.items():
        if rule is BASE:
            check_tree(node[key], depth + 1)
        elif not rule[0](node[key]):
            raise ConfigError(f"constructor {kind!r}: {key!r} must be {rule[1]}, got {node[key]!r}")


def build(blueprint: dict, field: FieldSpec, rng: random.Random, label: str | None = None) -> VarietyHandle:
    """Instantiate a handle over a field from its integer-model blueprint.

    The tree's integers are the model: each node is reduced into the field
    from the tree itself, and every handle returned, at every level, keeps
    the subtree it was built from as its ``blueprint``.  So the same tree
    reduces consistently into every working prime, which is what makes
    small-prime enumeration and cross-prime dimension checks talk about the
    same variety.  ``CONSTRUCTORS`` and this function are the only code that
    knows the tree format: no constructor writes a tree, and no handle gets
    a ``blueprint`` any other way.  The whole tree is checked
    (``check_tree``) before anything is built or drawn; a tree that fails
    raises ``ConstructionError`` with its message.
    """
    try:
        check_tree(blueprint)
    except ConfigError as exc:
        raise ConstructionError(str(exc)) from exc
    return _build(blueprint, field, rng, label)


def _build(node: dict, field: FieldSpec, rng: random.Random, label: str | None = None) -> VarietyHandle:
    """``build`` on a checked tree: the node's base first, then the node."""
    keys, make = CONSTRUCTORS[node["constructor"]]
    base = _build(node["base"], field, rng) if "base" in keys else None
    handle = make(node, base, field, rng, label)
    handle.blueprint = node
    return handle
