"""Birationality evidence: exhaustive fiber counts over small primes.

The tangential projection of a non-defective handle is generically finite;
whether it is birational is decided here empirically, by rebuilding the
variety over enumeration primes, projecting, and literally counting the
preimages of generic image points.  Counts that agree across trials and
across at least two primes upgrade to verdicts; everything else stays
Inconclusive on purpose.

Two enumeration strategies cover every built-in shape:

* parametric charts with at most two parameters scan the full grid F_p^n
  (vectorized, chunk-free since rows are only p long);
* cone sections scan the base curve exhaustively and solve the linear
  proportionality conditions ruling by ruling, so only candidate rulings ever
  see the cutting polynomial.

Points mapping into the projection center are excluded from counts and
tallied separately.  The cone scan covers the smooth ruling stratum; vertex
points are singular and never sampled, so they are not counted as preimages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    FieldSpec,
    Matrix,
    MultiPoly,
    _affine_solve,
    _gauss_jordan,
    exact_rank,
    normalize_point,
    uni_roots_mod_p,
)
from .errors import BudgetExhausted, ConfigError, DegenerateWitness
from .secant import tangential_projection
from .seeding import derive_rng
from .varieties import (
    ConeHandle,
    ImplicitPlaneCurveHandle,
    MapImageHandle,
    ParametricHandle,
    ProjectionHandle,
    SectionHandle,
    VarietyHandle,
    Witness,
    build,
)

__all__ = [
    "ENUM_BUDGET",
    "DEFAULT_FIBER_TRIALS",
    "DEFAULT_FIBER_PRIMES",
    "FiberReport",
    "FunctorialityReport",
    "fiber_probe",
    "tangent_functoriality_check",
]

ENUM_BUDGET = 10_000_000
DEFAULT_FIBER_TRIALS = 5
DEFAULT_FIBER_PRIMES = (1009, 2003, 3001)
MAX_PROBE_RETRIES = 64
# any positive-dimensional fiber over F_p carries on the order of p points,
# while honest finite fibers stay tiny; counts past this floor mark a probe
# point as non-generic
DEGENERATE_COUNT_FLOOR = 64

VERDICT_BIRATIONAL = "BirationalEvidence"
VERDICT_NON_BIRATIONAL = "NonBirationalEvidence"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_NOT_FINITE = "NotGenericallyFinite"


@dataclass(frozen=True)
class FiberReport:
    k: int
    primes: tuple[int, ...]
    trials: int
    cardinalities: dict[int, tuple[int, ...]]
    consensus_d: Optional[int]
    verdict: str
    center_hits: dict[int, int]
    tangent_agreement: Optional[bool]


@dataclass(frozen=True)
class FunctorialityReport:
    k: int
    generically_finite: bool
    witnesses: int
    frame_ranks: tuple[int, ...]
    span_consistent: bool


def _last_nonzero(vals: Sequence[int]) -> int:
    for i in range(len(vals) - 1, -1, -1):
        if vals[i] != 0:
            return i
    raise DegenerateWitness("projected probe point is zero")


# ---------------------------------------------------------------------------
# parametric grid scan
# ---------------------------------------------------------------------------


def _compose_projection_int(xp: ParametricHandle, proj: Matrix) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Integer term lists of proj . chart map, one list per output row."""
    p = xp.field.modulus
    out = []
    for i in range(proj.rows):
        acc: dict[tuple[int, ...], int] = {}
        for j, poly in enumerate(xp.polys):
            pij = proj[i, j]
            if pij == 0:
                continue
            for e, c in poly.terms.items():
                acc[e] = (acc.get(e, 0) + pij * c) % p
        out.append(sorted((c, e) for e, c in acc.items() if c))
    return out


def _power_tables(p: int, max_e: int) -> list[np.ndarray]:
    base = np.arange(p, dtype=np.int64)
    tables = [np.ones(p, dtype=np.int64)]
    for _ in range(max_e):
        tables.append(tables[-1] * base % p)
    return tables


def _scan_parametric(
    xp: ParametricHandle, proj: Matrix, qs: list[list[int]], budget: int
) -> tuple[list[int], int]:
    p = xp.field.modulus
    n = xp.n
    if n > 2 or p**n > budget:
        raise BudgetExhausted(
            f"parametric grid {p}^{n} exceeds the enumeration budget {budget}"
        )
    rows_terms = _compose_projection_int(xp, proj)
    nrows = len(rows_terms)
    max_e = max((max(e) for terms in rows_terms for _, e in terms if terms), default=0)
    tables = _power_tables(p, max_e)
    jqs = [_last_nonzero(q) for q in qs]
    counts = [0] * len(qs)
    center_hits = 0

    def handle_block(row_vals: np.ndarray) -> None:
        nonlocal center_hits
        zero = (row_vals == 0).all(axis=0)
        center_hits += int(zero.sum())
        live = ~zero
        for t, q in enumerate(qs):
            jq = jqs[t]
            ok = live.copy()
            for i in range(nrows):
                if i == jq:
                    continue
                diff = (row_vals[i] * q[jq] - row_vals[jq] * q[i]) % p
                ok &= diff == 0
            counts[t] += int(ok.sum())

    if n == 1:
        vals = np.stack(
            [
                sum((c * tables[e[0]] for c, e in terms), np.zeros(p, dtype=np.int64)) % p
                for terms in rows_terms
            ]
        )
        handle_block(vals)
    else:
        for u in range(p):
            block = []
            for terms in rows_terms:
                acc = np.zeros(p, dtype=np.int64)
                for c, e in terms:
                    cu = c * pow(u, e[0], p) % p
                    if cu:
                        acc += cu * tables[e[1]] % p
                block.append(acc % p)
            handle_block(np.stack(block))
    return counts, center_hits


# ---------------------------------------------------------------------------
# cone-section ruling scan
# ---------------------------------------------------------------------------


def _unpack_cone_section(x: SectionHandle):
    k = x.base
    if not isinstance(k, ConeHandle):
        raise ConfigError(f"no enumeration strategy for sections over {k.kind}")
    emb = k.base
    if not isinstance(emb, MapImageHandle) or not isinstance(
        emb.base, ImplicitPlaneCurveHandle
    ):
        raise ConfigError("cone enumeration expects an embedded plane curve base")
    return k, emb, emb.base


def _curve_points_int(curve: ImplicitPlaneCurveHandle, budget: int) -> list[tuple[int, int, int]]:
    """Every projective point of the plane curve over its prime field."""
    p = curve.field.modulus
    if p * p > budget:
        raise BudgetExhausted(f"curve grid {p}^2 exceeds the enumeration budget {budget}")
    terms = [(c, e) for e, c in curve.f_affine.terms.items()]
    max_e = max((max(e) for _, e in terms), default=0)
    tables = _power_tables(p, max_e)
    pts: list[tuple[int, int, int]] = []
    for u in range(p):
        acc = np.zeros(p, dtype=np.int64)
        for c, e in terms:
            cu = c * pow(u, e[0], p) % p
            if cu:
                acc += cu * tables[e[1]] % p
        for v in np.nonzero(acc % p == 0)[0]:
            pts.append((u, int(v), 1))
    # the line at infinity: z = 0, y = 1, then the lone corner point
    f = curve.f
    for u in range(p):
        if f.evaluate((u, 1, 0)) == 0:
            pts.append((u, 1, 0))
    if f.evaluate((1, 0, 0)) == 0:
        pts.append((1, 0, 0))
    return pts


def _square_solver(b_rows: list[list[int]], m: int, p: int):
    """Pick m independent rows of the constant matrix and invert them.

    The rows are the pivot columns of the transpose's reduced form: the
    greedy basis, which is also the lexicographically first invertible
    choice of m rows.  None when the rows have rank below m.
    """
    sel = _gauss_jordan([list(col) for col in zip(*b_rows)], p)
    if len(sel) < m:
        return None
    aug = [b_rows[i] + [int(a == j) for j in range(m)] for a, i in enumerate(sel)]
    _gauss_jordan(aug, p)
    return sel, [row[m:] for row in aug]


class _RulingScan:
    """Per-prime scan state for one cone-section handle."""

    def __init__(self, x: SectionHandle, proj: Matrix, budget: int) -> None:
        self.x = x
        self.fp = x.field
        self.p = x.field.modulus
        kone, emb, curve = _unpack_cone_section(x)
        self.kone, self.emb, self.curve = kone, emb, curve
        self.m = kone.m
        self.proj = proj
        self.points = _curve_points_int(curve, budget)
        # projection composed with the vertex: constant across rulings
        self.pv = proj.matmul(kone.vertex).entries
        self.ruling_cache: list[tuple[tuple[int, int, int], tuple[int, ...], tuple[int, ...]]] = []
        for c in self.points:
            y = emb._apply(c)
            if not any(y):
                continue  # base locus of the embedding
            self.ruling_cache.append((c, y, proj.matvec(y)))

    def preimages(self, q: list[int]) -> tuple[set[tuple[int, ...]], int, list[tuple]]:
        """Distinct preimage points of [q], excluded-center tally, details."""
        p = self.p
        jq = _last_nonzero(q)
        nrows = self.proj.rows
        b_rows = []
        keep = [i for i in range(nrows) if i != jq]
        for i in keep:
            b_rows.append([(q[jq] * self.pv[i][j] - q[i] * self.pv[jq][j]) % p for j in range(self.m)])
        found: set[tuple[int, ...]] = set()
        details: list[tuple] = []
        center_hits = 0
        square = _square_solver(b_rows, self.m, p)
        for c, y, py in self.ruling_cache:
            rhs = [(-(q[jq] * py[i] - q[i] * py[jq])) % p for i in keep]
            if square is not None:
                sel, inv = square
                mus = [
                    sum(inv[a][b] * rhs[sel[b]] for b in range(self.m)) % p
                    for a in range(self.m)
                ]
                if any(
                    sum(b_rows[i][j] * mus[j] for j in range(self.m)) % p != rhs[i]
                    for i in range(len(b_rows))
                    if i not in set(sel)
                ):
                    continue
                solutions = [mus]
            else:
                solutions = self._solve_underdetermined(b_rows, rhs, y)
            for mu in solutions:
                xpt = self.kone._point(y, mu)
                if any(g.evaluate(xpt) != 0 for g in self.x.constraints):
                    continue
                if not any(self.proj.matvec(xpt)):
                    center_hits += 1
                    continue
                key = normalize_point(xpt, p)
                if key not in found:
                    found.add(key)
                    details.append((c, mu))
        return found, center_hits, details

    def _solve_underdetermined(self, b_rows, rhs, y) -> list[list[int]]:
        """Rank-deficient proportionality system: solve exactly, then push the
        leftover freedom through the cutting polynomial on the ruling over y."""
        fp = self.fp
        solved = _affine_solve(fp, b_rows, rhs, self.m)
        if solved is None:
            return []
        part, basis = solved
        if not basis:
            return [part]
        if len(basis) > 1:
            # a plane of candidates inside one ruling only happens at special
            # probe points; declare the trial degenerate rather than guess
            raise DegenerateWitness("probe point has a positive-dimensional fiber")
        s = MultiPoly.variable(fp, 1, 0)
        mu_line = [MultiPoly.constant(fp, 1, part[j]) + s * basis[0][j] for j in range(self.m)]
        coords = []
        for a in range(len(y)):
            poly = MultiPoly.constant(fp, 1, y[a])
            for j in range(self.m):
                poly = poly + mu_line[j] * self.kone.vertex[a, j]
            coords.append(poly)
        out = []
        for g in self.x.constraints:
            restricted = g.compose(coords)
            if restricted.is_zero():
                # the whole candidate line lies inside the section: the fiber
                # over this probe point is a curve, so the probe is no good
                raise DegenerateWitness("probe point has a positive-dimensional fiber")
            roots = sorted(uni_roots_mod_p(restricted, fp))
            if not out:
                out = [[ml.evaluate((r,)) for ml in mu_line] for r in roots]
            else:
                keep = {tuple(o) for o in out} & {
                    tuple(ml.evaluate((r,)) for ml in mu_line) for r in roots
                }
                out = [list(t) for t in sorted(keep)]
        return out

    def witness_for(self, c, mu) -> Witness:
        """Rebuild a full witness chain for an enumerated preimage."""
        if c[2] != 1:
            raise DegenerateWitness("preimage ruling is off the affine curve chart")
        p = self.p
        curve_w = Witness(c[:2], c)
        y = self.emb._apply(c)
        emb_w = Witness(curve_w.params, normalize_point(y, p), base=curve_w)
        mu = tuple(mu)
        pt = self.kone._point(y, mu)
        cone_w = Witness(emb_w.params + mu, normalize_point(pt, p), base=emb_w)
        return Witness(cone_w.params, cone_w.point, base=cone_w)


# ---------------------------------------------------------------------------
# the probe
# ---------------------------------------------------------------------------


def _probe_q(xp: VarietyHandle, proj: Matrix, rng: random.Random) -> list[int]:
    for _ in range(64):
        w = xp.sample(rng)
        img = proj.matvec(xp.reevaluate(w))
        if any(img):
            return list(img)
    raise DegenerateWitness("probe witnesses keep landing in the center")


def _one_prime(
    blueprint: dict, k: int, prime: int, trials: int, seed_tag: int
) -> tuple[tuple[int, ...], int, Optional[bool]]:
    fp = FieldSpec.prime(prime)
    rng = derive_rng(seed_tag, "fiber", prime)
    xp = build(blueprint, fp, rng)
    n = xp.intrinsic_dim(rng)
    projected, _ = tangential_projection(xp, k, rng)
    if projected.intrinsic_dim(rng) != n:
        raise DegenerateWitness(f"projection collapses over F_{prime}")
    proj = projected.proj

    if isinstance(xp, ParametricHandle):
        qs = [_probe_q(xp, proj, rng) for _ in range(trials)]
        counts, hits = _scan_parametric(xp, proj, qs, ENUM_BUDGET)
        for _ in range(MAX_PROBE_RETRIES):
            bad = [t for t, c in enumerate(counts) if c >= DEGENERATE_COUNT_FLOOR]
            if not bad:
                break
            redraw = [_probe_q(xp, proj, rng) for _ in bad]
            fresh, _ = _scan_parametric(xp, proj, redraw, ENUM_BUDGET)
            for t, c in zip(bad, fresh):
                counts[t] = c
        else:
            raise DegenerateWitness("every probe point had a degenerate fiber")
        return tuple(counts), hits, None

    if isinstance(xp, SectionHandle):
        scan = _RulingScan(xp, proj, ENUM_BUDGET)
        counts = []
        hits = 0
        agreement: Optional[bool] = None
        for _ in range(trials):
            for _ in range(MAX_PROBE_RETRIES):
                q = _probe_q(xp, proj, rng)
                try:
                    found, center_hits, details = scan.preimages(q)
                except DegenerateWitness:
                    continue
                if len(found) < DEGENERATE_COUNT_FLOOR:
                    break
            else:
                raise DegenerateWitness("every probe point had a degenerate fiber")
            counts.append(len(found))
            hits += center_hits
            if len(details) >= 2 and agreement is None:
                agreement = _fiber_span_agreement(xp, proj, scan, details, n)
        return tuple(counts), hits, agreement

    raise ConfigError(f"no enumeration strategy for {xp.kind} handles")


def _fiber_span_agreement(
    xp: SectionHandle, proj: Matrix, scan: _RulingScan, details: list[tuple], n: int
) -> Optional[bool]:
    """Two preimages of one image point must project to the same tangent
    space of the image; comparing their pushed frames tests exactly that."""
    pushed = []
    for c, mu in details:
        try:
            frame = xp.tangent_frame(scan.witness_for(c, mu))
        except DegenerateWitness:
            continue
        pushed.append(proj.matmul(frame))
        if len(pushed) == 2:
            break
    if len(pushed) < 2:
        return None
    r0, r1 = exact_rank(pushed[0]), exact_rank(pushed[1])
    rcat = exact_rank(Matrix.hstack(pushed))
    return r0 == r1 == rcat == n + 1


def _grade(cardinalities: dict[int, tuple[int, ...]]) -> tuple[Optional[int], str]:
    """Turn per-prime preimage counts into a consensus degree and a verdict.

    Rational counts bound the geometric degree from below; some trials hit
    fibers whose extra preimages are conjugate over F_p, so the per-prime
    maximum is the stable statistic.  A prime whose trials all landed on
    conjugate-deficient fibers simply failed to resolve the degree, hence
    agreement of two primes suffices.  Birationality is stricter: every
    single trial at every prime must find exactly one preimage.
    """
    maxima = sorted(max(counts) for counts in cardinalities.values())
    corroborated = {m for m in maxima if maxima.count(m) >= 2}
    enough = len(cardinalities) >= 2
    all_ones = all(c == 1 for counts in cardinalities.values() for c in counts)
    if all_ones and enough:
        return 1, VERDICT_BIRATIONAL
    if corroborated and max(corroborated) >= 2:
        return max(corroborated), VERDICT_NON_BIRATIONAL
    consensus = maxima[0] if len(set(maxima)) == 1 else None
    return consensus, VERDICT_INCONCLUSIVE


def fiber_probe(
    x: VarietyHandle,
    k: int,
    rng: random.Random,
    primes: Sequence[int] = DEFAULT_FIBER_PRIMES,
    trials: int = DEFAULT_FIBER_TRIALS,
) -> FiberReport:
    """Count preimages of generic image points of the k-tangential projection
    over each enumeration prime and grade the evidence."""
    if trials < 1:
        raise ConfigError("trials must be positive")
    if len(primes) < 1:
        raise ConfigError("need at least one enumeration prime")

    # one draw from the caller, children for everything else: the amount of
    # sampling done here must not depend on which handle caches are warm
    seed_tag = rng.randrange(2**63)
    pre_rng = derive_rng(seed_tag, "fiber", "precheck")
    n = x.intrinsic_dim(pre_rng)
    projected, _ = tangential_projection(x, k, pre_rng)
    if projected.intrinsic_dim(pre_rng) != n:
        return FiberReport(
            k=k,
            primes=tuple(primes),
            trials=trials,
            cardinalities={},
            consensus_d=None,
            verdict=VERDICT_NOT_FINITE,
            center_hits={},
            tangent_agreement=None,
        )

    cardinalities: dict[int, tuple[int, ...]] = {}
    center_hits: dict[int, int] = {}
    agreements: list[bool] = []

    results = {p: _one_prime(x.blueprint, k, p, trials, seed_tag) for p in primes}
    for prime in sorted(results):
        counts, hits, agreement = results[prime]
        if any(c < 1 for c in counts):
            raise DegenerateWitness(
                f"a probe point lost its own witness over F_{prime}"
            )
        cardinalities[prime] = counts
        center_hits[prime] = hits
        if agreement is not None:
            agreements.append(agreement)

    consensus, verdict = _grade(cardinalities)
    return FiberReport(
        k=k,
        primes=tuple(primes),
        trials=trials,
        cardinalities=cardinalities,
        consensus_d=consensus,
        verdict=verdict,
        center_hits=center_hits,
        tangent_agreement=(all(agreements) if agreements else None),
    )


def tangent_functoriality_check(
    x: VarietyHandle, k: int, rng: random.Random, witnesses: int = 3
) -> FunctorialityReport:
    """Push source tangent frames through the k-tangential projection and
    compare them with the image handle's own frames at the image witnesses."""
    child = derive_rng(rng.randrange(2**63), "functoriality", k)
    n = x.intrinsic_dim(child)
    projected, _ = tangential_projection(x, k, child)
    if projected.intrinsic_dim(child) != n:
        return FunctorialityReport(
            k=k,
            generically_finite=False,
            witnesses=0,
            frame_ranks=(),
            span_consistent=False,
        )
    ranks = []
    consistent = True
    for _ in range(witnesses):
        pw = projected.sample(child)
        pushed = projected.proj.matmul(x.tangent_frame(pw.base))
        image_frame = projected.tangent_frame(pw)
        r_push = exact_rank(pushed)
        r_img = exact_rank(image_frame)
        r_cat = exact_rank(Matrix.hstack([pushed, image_frame]))
        ranks.append(r_push)
        if not (r_push == r_img == r_cat == n + 1):
            consistent = False
    return FunctorialityReport(
        k=k,
        generically_finite=True,
        witnesses=witnesses,
        frame_ranks=tuple(ranks),
        span_consistent=consistent,
    )
