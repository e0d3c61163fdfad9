"""Birationality evidence: exhaustive fiber counts over small primes.

The tangential projection of a non-defective handle is generically finite;
whether it is birational is decided here empirically, by rebuilding the
variety over enumeration primes, projecting, and literally counting the
preimages of generic image points.  Counts that agree across trials and
across at least two primes upgrade to verdicts; everything else stays
Inconclusive on purpose.

Two enumeration strategies cover every built-in shape:

* parametric charts with at most two parameters scan the full grid F_p^n,
  once per prime for all probe points together.  A grid point lies over a
  probe point [q] when its projected coordinates R are nonzero and
  proportional to q, so it satisfies the minor ``R_i q_j = R_j q_i`` of the
  probes' pivot ``R_j`` and one more coordinate ``R_i``.  Blocks of grid
  cells are evaluated as products of power tables and coefficient arrays,
  in one of two passes.  The product pass evaluates one polynomial, the
  product of ``R_i - k R_j`` over the probes' keys ``k = q_i / q_j``; a
  product over a field vanishes only where a factor does, so its zero cells
  hold every preimage and every center point.  The keyed pass, for many
  keys on a chart of high degree (``KEY_PRODUCT_DEGREE``), evaluates
  ``R_i`` and ``R_j`` and keys every cell by their ratio.  Every product
  and key is float64 arithmetic on exact integers: one helper,
  ``_matmul``, forms every matrix product through BLAS and sums each
  contraction in stretches that stay below 2^53.  The product pass only
  asks which cells are zero, so one finder, ``_zero_cells``, takes each
  block's values as their exact sum of one stretch, unreduced, and
  ``_divisible`` tests them with no division; the keyed pass reads
  residues.  Only the candidate cells either pass finds are checked,
  exactly, against the other coordinates, in batches: a batch forms its
  cells' powers once and evaluates many coordinates in each product, so a
  few products check it however many coordinates there are.  Every grid
  point is still visited and a candidate is only a necessary condition,
  so the counts are exhaustive and exact;
* cone sections enumerate the base curve's points with the product
  pass's zero-cell finder, and embed them all in one product of the map's
  coefficients and the monomials' values at every point.  One matrix
  product per probe point picks the rulings on which the linear
  proportionality conditions are solvable; only those are solved, and the
  section finds the solutions that lie on it.  The handles build the
  witnesses of enumerated preimages as they build drawn ones, and probe
  points are drawn by the projection handle.

Points mapping into the projection center are excluded from counts and
tallied separately.  The cone scan covers the smooth ruling stratum; vertex
points are singular and never sampled, so they are not counted as preimages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import (
    FieldSpec,
    LinearSystem,
    Matrix,
    exact_rank,
    inverse,
    normalize_point,
)
from .errors import BudgetExhausted, ConfigError, DegenerateWitness
from .instances import ENUM_PRIMES
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
    _resample_loop,
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
DEFAULT_FIBER_PRIMES = ENUM_PRIMES
# image witnesses at which the functoriality check compares tangent frames
FUNCTORIALITY_WITNESSES = 3
# grid cells the grid kernel evaluates at once: a block's values fill at most
# this many cells, at least one per polynomial, and the coefficient rows of a
# band of blocks, count x rows x nb, at most a quarter of it (or one block's,
# if they fill more).  That bounds the values, not the one power table each
# call builds, max(na, nb) x max(rows, width) for na row and nb column terms:
# on a one-parameter chart, whose rows are cut, the nb x width table holds
# about nb / count blocks of count polynomials
GRID_BLOCK_CELLS = 1 << 14
# any positive-dimensional fiber over F_p carries on the order of p points,
# while honest finite fibers stay tiny; counts past this floor mark a probe
# point as non-generic
DEGENERATE_COUNT_FLOOR = 64
# a pivot group of the grid scan whose distinct keys, times the chart's
# degree, exceed this scans through the ratio key instead of the key product.
# The product's contraction grows with that figure, the key pipeline's cost
# per cell does not.  Measured on 2 vCPUs, with the product pass testing its
# cells for zero unreduced, it took 0.45-0.94 of the keyed time up to 81-92
# on v_3 and v_4(P^2) at p = 3001, and 1.1-1.3 of it at 90-120, as when it
# reduced every block; on rational normal curves the two broke even near
# 150 at p = 1000003 and near 180-200 at p = 9999991, where the keyed pass
# also builds its O(p) inverse table
KEY_PRODUCT_DEGREE = 64

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


def _coefficients(term_maps: Sequence[dict], n: int) -> np.ndarray:
    """Coefficient arrays ``C[k, a, b]`` of ``u^a v^b``, in float64, of term
    maps ``{exponents: coefficient}`` in n <= 2 variables.  A one-parameter
    chart is the line ``u = 0`` of the same grid, its parameter being ``v``."""
    terms = [[((0,) * (2 - n) + e, c) for e, c in tm.items()] for tm in term_maps]
    na = 1 + max((e[0] for ts in terms for e, _ in ts), default=0)
    nb = 1 + max((e[1] for ts in terms for e, _ in ts), default=0)
    out = np.zeros((len(term_maps), na, nb))
    for k, ts in enumerate(terms):
        for (a, b), c in ts:
            out[k, a, b] = c
    return out


def _reduce(values: np.ndarray, p: int) -> np.ndarray:
    """Reduce non-negative float64 integers below 2^53 mod p in place, and
    return them.

    This is ``v - floor(v / p) p``.  Below 2^53 the rounded quotient never
    reaches the next integer, so its floor is the true quotient and every
    step is exact.  Multiplying by a rounded ``1 / p`` instead can be off by
    one."""
    # a float modulus spares each ufunc call a conversion of the int
    p = float(p)
    quotient = np.divide(values, p)
    np.floor(quotient, out=quotient)
    quotient *= p
    values -= quotient
    return values


def _stretch(p: int) -> int:
    """How many products of two residues mod p a float64 sum holds exactly:
    at most ``(p - 1)^2`` each, they stay below 2^53."""
    return (2**53 - 1) // (p - 1) ** 2


def _zero_stretch(p: int) -> int:
    """How many products of two residues mod p a sum may hold for
    ``_divisible`` to test it unreduced: one stretch, kept within ``p 2^50``.
    From p = 8 on that is all of ``_stretch(p)``."""
    return min(_stretch(p), (p << 50) // (p - 1) ** 2)


def _divisible(values: np.ndarray, p: int) -> np.ndarray:
    """Where p divides the float64 integers ``|v| <= min(p 2^50, 2^53 - 1)``,
    with no division: p divides v exactly when ``q p == v`` for
    ``q = rint(v fl(1/p))``.

    No non-multiple passes: q is an integer, and ``q p`` is exact up to 2^53
    in magnitude and rounds to at least 2^53 past it, so it equals v only
    when p divides v.  No multiple fails: for ``v = m p`` with
    ``|m| <= 2^50``, ``fl(1/p)`` is ``(1 + d) / p`` with ``|d| <= 2^-53``, so
    ``v fl(1/p) = m (1 + d)`` lies within ``|m| 2^-53 <= 1/8`` of m.  It is
    below 2^51 in magnitude, where float64 spacing is at most 1/4, so
    rounding the product moves it by at most 1/8 more.  The product lies
    within 1/4 of m, q = m, and ``m p`` is exact.  Rounding is symmetric,
    so negative v test as their magnitudes do."""
    quotient = values * (1.0 / p)
    np.rint(quotient, out=quotient)
    quotient *= p
    return quotient == values


def _matmul(a: np.ndarray, b: np.ndarray, p: int, reduced: bool = True) -> np.ndarray:
    """``a @ b mod p`` through BLAS, for float64 arrays whose entries multiply
    pairwise to at most ``(p - 1)^2``, as residues do.  The contraction is
    summed in stretches of at most ``_stretch(p)`` products, each reduced
    before it is added to a running sum kept in ``[0, p)``, so every value
    is an exact integer.

    With ``reduced`` false, a contraction of at most ``_zero_stretch(p)``
    products comes back as its exact sum, unreduced, for ``_divisible`` to
    test; a longer one comes back as residues, which ``_divisible`` tests
    as well."""
    step = _stretch(p)
    if not reduced and a.shape[-1] <= _zero_stretch(p):
        return a @ b
    out = _reduce(a[..., :step] @ b[..., :step, :], p)
    for s in range(step, a.shape[-1], step):
        out += _reduce(a[..., s : s + step] @ b[..., s : s + step, :], p)
        np.subtract(out, p, out=out, where=out >= p)
    return out


def _powers(xs: np.ndarray, count: int, p: int) -> np.ndarray:
    """Power table ``T[e, ...] = xs^e mod p`` for ``e < count``, in float64,
    for xs in ``[0, p)``: each power is the one before it times x, one
    product of two residues, reduced."""
    out = np.empty((count, *xs.shape))
    out[:1] = 1
    out[1:2] = xs
    for e in range(2, count):
        _reduce(np.multiply(out[e - 1], out[1], out=out[e]), p)
    return out


def _shift(s: int, count: int, p: int) -> np.ndarray:
    """Step matrix ``B[e, k] = C(e, k) s^(e-k) mod p`` for ``k <= e < count``,
    in float64.  Since ``(v + s)^e = sum_k B[e, k] v^k``, rows of coefficients
    of ``v^e`` times B are the same polynomials translated by s: evaluated at
    v, the product gives the rows' values at ``v + s``."""
    out = np.zeros((count, count))
    for e in range(count):
        out[e, : e + 1] = [comb(e, k) * pow(s, e - k, p) % p for k in range(e + 1)]
    return out


def _grid_blocks(
    coeffs: np.ndarray, p: int, n: int, reduced: bool = True
) -> Iterator[tuple[int, np.ndarray]]:
    """Values of the polynomials ``coeffs[k]`` on the chart grid F_p^n, one
    block of cells at a time: the one grid kernel of this module.

    Grid point ``(u, v)`` is cell ``u p + v``.  A block is a run of cells
    (whole grid rows, or part of one row when a whole row is too wide) sized
    so that all polynomials together fill at most ``GRID_BLOCK_CELLS`` cells,
    at least one each.  Yields ``(start, vals)`` in cell order, where
    ``vals[k].flat[c]`` is polynomial k at cell ``start + c``: a residue, or
    with ``reduced`` false, for ``_zero_cells``, an integer congruent to it
    that ``_divisible`` tests exactly.

    Each call builds one power table, of ``x^e`` for the first
    ``max(rows, width)`` residues x and ``e < max(na, nb)``, once.  A block
    is ``(U @ C) @ V`` for the table's slices U, over its rows, and V, over
    the first columns.  ``U @ C``, the polynomials' coefficients in v at
    each row, is formed once for a band of whole blocks whose coefficient
    rows fill at most a quarter of ``GRID_BLOCK_CELLS`` (or for one block,
    if its own fill more), and sliced for each block.  For each later part
    of a cut row, a row's coefficients are translated by one part's width
    through the step matrix of ``_shift``, so V serves every part.  Every
    product is formed by ``_matmul``, so the values are exact: the last,
    with ``reduced`` false, is the unreduced sum of one stretch, and a
    longer contraction falls back to residues.
    """
    count, na, nb = coeffs.shape
    width = min(p, max(1, GRID_BLOCK_CELLS // count))
    height = max(1, GRID_BLOCK_CELLS // (count * width))
    band = height * max(1, GRID_BLOCK_CELLS // (4 * count * nb * height))
    u_count = p if n == 2 else 1
    pows = _powers(np.arange(max(u_count, width)), max(na, nb), p)
    step = _shift(width, nb, p)
    for b0 in range(0, u_count, band):
        lefts = _matmul(pows[:na, b0 : min(b0 + band, u_count)].T, coeffs, p)
        for u0 in range(0, lefts.shape[1], height):
            # every polynomial's rows stacked, so each block is one matrix product
            left = lefts[:, u0 : u0 + height].reshape(-1, nb)
            for v0 in range(0, p, width):
                if v0:
                    left = _matmul(left, step, p)
                vals = _matmul(left, pows[:nb, : min(width, p - v0)], p, reduced)
                yield (b0 + u0) * p + v0, vals.reshape(count, -1, vals.shape[-1])


def _zero_cells(coeffs: np.ndarray, p: int, n: int) -> Iterator[np.ndarray]:
    """The zero cells of the polynomial with coefficients ``C[a, b]`` of
    ``u^a v^b`` on the chart grid F_p^n, one block of ``_grid_blocks`` at a
    time, in cell order: each block's values are taken unreduced and
    tested with ``_divisible``."""
    for start, vals in _grid_blocks(coeffs[None], p, n, reduced=False):
        # the flat view's nonzero: np.flatnonzero's wrappers cost about as
        # much as the search itself on one block
        yield start + _divisible(vals, p).ravel().nonzero()[0]


def _monomials(xs: np.ndarray, exps: np.ndarray, p: int) -> np.ndarray:
    """Values mod p of the monomials with exponent rows ``exps`` at the
    points whose coordinates, residues, are the columns of ``xs``, one row
    per variable: row m, one column per point.  The powers of every
    coordinate come from one table, and each further variable is one
    product of two residues, reduced."""
    pows = _powers(xs, int(exps.max(initial=0)) + 1, p)
    out = pows[exps[:, 0], 0]
    for var in range(1, len(xs)):
        out *= pows[exps[:, var], var]
        _reduce(out, p)
    return out


def _cell_powers(cells: np.ndarray, shape: tuple[int, int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """Powers ``u^a`` and ``v^b`` at each grid cell ``u p + v``, one column
    per cell, for polynomials of coefficient shape ``(na, nb)``: slices of
    one table."""
    pows = _powers(np.stack(np.divmod(cells, p)), max(shape), p)
    return pows[: shape[0], 0], pows[: shape[1], 1]


def _cell_values(polys: np.ndarray, u_pows: np.ndarray, v_pows: np.ndarray, p: int) -> np.ndarray:
    """The polynomials ``polys[k]`` at the cells whose power columns these
    are, one row per polynomial.  One product takes every polynomial's
    coefficient of each ``v^b`` at every cell, and one more sums them
    against the powers of v."""
    count, na, nb = polys.shape
    inner = _matmul(polys.transpose(0, 2, 1).reshape(count * nb, na), u_pows, p).reshape(count, nb, -1)
    inner *= v_pows
    # sums of products of two residues, in stretches like any other
    # contraction
    return _matmul(np.ones((1, nb)), inner, p)[:, 0]


def _claims(matches: np.ndarray, ri: np.ndarray, rj: np.ndarray) -> np.ndarray:
    """Which candidate cells each key claims, one row per key, and one more
    row of the center candidates.  ``matches[k]`` marks the cells with
    ``R_i = k R_j`` for the k-th key; a claim also needs ``R_j != 0``, and
    the last row marks the cells with ``R_i = R_j = 0``."""
    on = rj != 0
    return np.vstack([matches & on, ~on & (ri == 0)])


def _agree(vals: np.ndarray, rj: np.ndarray, w0: np.ndarray, wk: np.ndarray, p: int) -> np.ndarray:
    """Which cells satisfy ``R_k w0 = R_j w_k`` mod p for every row ``R_k``
    of ``vals``, with ``w_k`` the same column of ``wk``: one entry of w0
    and one row of wk per cell.  The difference of two products of
    residues is tested for zero unreduced."""
    return _divisible(vals * w0 - rj * wk.T, p).all(axis=0)


def _count_over(
    cells: np.ndarray,
    rj: Optional[np.ndarray],
    claims: Optional[np.ndarray],
    claimed: list[int],
    weights: np.ndarray,
    keys: np.ndarray,
    pair: np.ndarray,
    rest: np.ndarray,
    p: int,
) -> np.ndarray:
    """For each owner t, how many of one batch of candidate cells lie over
    its point: the exact check behind every candidate.

    The batch's power columns are formed once, and each ``_cell_values``
    below evaluates all its rows at every cell it needs in two products.
    Owner t checks the cells that row ``claimed[t]`` of the keys'
    ``_claims`` marks.  The product pass hands in no claims and no
    ``R_j``: one evaluation of ``pair`` gives ``R_i`` and ``R_j``, and the
    claims are read off them.  A claimed cell lies over owner t when
    ``R_k w_t0 = R_j w_tk`` for every row ``R_k`` of ``rest``, with
    ``w_t = weights[t]``.  One evaluation checks the first row on every
    cell, and one more all the other rows together on the claims it
    leaves, so a batch takes at most six products however many rows there
    are."""
    u_pows, v_pows = _cell_powers(cells, pair.shape[1:], p)
    if claims is None:
        ri, rj = _cell_values(pair, u_pows, v_pows, p)
        claims = _claims(_reduce(np.multiply.outer(keys, rj), p) == ri, ri, rj)
    owners, picked = np.nonzero(claims[claimed])
    lj = rj[picked]
    if len(rest) and len(picked):
        first = _cell_values(rest[:1], u_pows, v_pows, p)[:, picked]
        ok = _agree(first, lj, weights[owners, 0], weights[owners, 1:2], p)
        owners, picked, lj = owners[ok], picked[ok], lj[ok]
    if len(rest) > 1 and len(picked):
        w = weights[owners]
        vals = _cell_values(rest[1:], u_pows[:, picked], v_pows[:, picked], p)
        owners = owners[_agree(vals, lj, w[:, 0], w[:, 2:], p)]
    return np.bincount(owners, minlength=len(weights))


def _gathered(pieces: Iterator[tuple[np.ndarray, ...]], chunk: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Join the pieces, tuples of arrays of equal length, and cut them into
    batches of ``chunk`` entries; the last batch may hold fewer."""
    held: list[tuple[np.ndarray, ...]] = []
    size = 0
    for piece in pieces:
        if len(piece[0]):
            held.append(piece)
            size += len(piece[0])
        if size >= chunk:
            joined = [np.concatenate(part) for part in zip(*held)]
            cut = size - size % chunk
            for s in range(0, cut, chunk):
                yield tuple(a[s : s + chunk] for a in joined)
            held = [tuple(a[cut:] for a in joined)] if cut < size else []
            size -= cut
    if held:
        yield tuple(np.concatenate(part) for part in zip(*held))


def _primitive_root(p: int) -> int:
    """The least generator of the units mod the prime p."""
    n, q, factors = p - 1, 2, []
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _inverse_table(p: int) -> np.ndarray:
    """``T[x]`` is the inverse of x mod p, in float64, for every nonzero x,
    and ``T[0] = 0``; O(p) steps.  With g a primitive root, the powers
    ``g^k`` for k < p - 1 are built in int64 in doubling blocks, each block
    the one before it times a power of g, and the inverse of ``g^k`` is
    ``g^(p-1-k)``: the same powers, reversed.  They are written straight
    into the float64 table, so no more than two tables of p entries exist
    at once."""
    g = _primitive_root(p)
    powers = np.empty(p - 1, dtype=np.int64)
    powers[0] = 1
    size = 1
    while size < p - 1:
        step = min(size, p - 1 - size)
        block = powers[size : size + step]
        np.multiply(powers[:step], pow(g, size, p), out=block)
        block %= p
        size += step
    table = np.zeros(p)
    table[1] = 1
    table[powers[1:]] = powers[:0:-1]
    return table


def _key_product(pair: np.ndarray, keys: Sequence[int], p: int) -> np.ndarray:
    """Coefficients of ``prod_k (R_i - k R_j)`` mod p over the keys k, for
    ``pair = [R_i, R_j]``, coefficient arrays in u and v.  Each factor is one
    reduced product added to ``R_i``, and each step of the product adds
    shifted copies of reduced products, one per term of the factor, into a
    running sum kept in ``[0, p)``."""
    ri, rj = pair
    out = np.ones((1, 1))
    for key in keys:
        factor = _reduce(rj * float(-key % p), p)
        factor += ri
        np.subtract(factor, p, out=factor, where=factor >= p)
        grown = np.zeros((out.shape[0] + factor.shape[0] - 1, out.shape[1] + factor.shape[1] - 1))
        for a, b in zip(*np.nonzero(factor)):
            part = grown[a : a + out.shape[0], b : b + out.shape[1]]
            part += _reduce(out * factor[a, b], p)
            np.subtract(part, p, out=part, where=part >= p)
        out = grown
    return out


def _keyed_candidates(
    pair: np.ndarray, keys: np.ndarray, p: int, n: int, table: np.ndarray, chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The cells that some key claims or that may lie in the center, at
    most ``chunk`` at a time, with their values of ``R_j`` and the keys'
    ``_claims`` on them.  A block yields the cells whose ratio key
    ``R_i / R_j``, read through one inverse table, is one of the keys or 0;
    the zero entry of the table gives cells with ``R_j = 0`` the key 0.
    Those wait for a batch, where the claims are read off the keys."""
    wanted = np.zeros(p, dtype=bool)
    wanted[keys.astype(np.intp)] = True
    wanted[0] = True

    def pieces():
        for start, (ri, rj) in _grid_blocks(pair, p, n):
            ri, rj = ri.ravel(), rj.ravel()
            # a key is one product of two residues, an exact float64 integer
            key = table[rj.astype(np.intp, copy=False)]
            key *= ri
            key = _reduce(key, p).astype(np.intp, copy=False)
            cells = wanted[key].nonzero()[0]
            yield start + cells, ri[cells], rj[cells], key[cells]

    for cells, ri, rj, key in _gathered(pieces(), chunk):
        claims = _claims(key == keys[:, None], ri, rj)
        kept = claims.any(axis=0)
        yield cells[kept], rj[kept], claims[:, kept]


def _scan_parametric(xp: ParametricHandle, proj: Matrix, qs: list[list[int]]) -> tuple[list[int], int]:
    """Preimage count of each probe point [q] over the chart grid, and the
    number of grid points mapped into the projection center.

    With R the projected coordinates, a grid point lies over [q] when R is
    nonzero and proportional to q.  Probe points are grouped by their last
    nonzero coordinate j (generically one group), and each group takes one
    pass over the grid that yields candidate cells, with their values of
    ``R_j`` and one more coordinate ``R_i``.  A point over [q] has
    ``R_j != 0`` and satisfies the minor ``R_i q_j = R_j q_i``; a center
    point has ``R_i = R_j = 0``.  Each candidate with ``R_j != 0`` is routed
    to every probe whose minor it satisfies and checked there, exactly,
    against the rest of the family ``q_j R_k - q_k R_j``; in the first
    group, candidates with ``R_i = R_j = 0`` are checked against the other
    coordinates for the center.  Candidates wait and are checked in
    batches, for every probe at once (``_count_over``): each batch forms its
    cells' power columns once, and evaluates the rows it needs in at most
    three passes of two products each, however many rows there are.

    With K the group's distinct keys ``q_i / q_j``, a pass yields either

    * the zeros of one polynomial, ``P = prod_{k in K} (R_i - k R_j)``,
      built once mod p and evaluated over the grid.  Over a field a product
      vanishes only where a factor does: a point over [q] zeroes the factor
      of its key, and a center point zeroes all of them.  A factor that is
      identically zero makes every cell a candidate; or
    * the cells whose ratio key ``R_i / R_j``, read through one inverse
      table, is in K or is 0, the key of every cell with ``R_j = 0``.

    Either way every point a count or the center tally reads is a candidate,
    and every candidate is checked exactly, so every count is exhaustive and
    exact.  The product costs one value per cell but grows with ``|K|``
    times the chart's degree; past ``KEY_PRODUCT_DEGREE`` the group is keyed.
    """
    p = xp.field.modulus
    n = xp.n
    if n > 2 or p**n > ENUM_BUDGET:
        raise BudgetExhausted(f"parametric grid {p}^{n} exceeds the enumeration budget {ENUM_BUDGET}")
    comps = _coefficients([g.terms for g in xp.polys], n)
    degree = max((a + b for a, b in zip(*np.nonzero(comps.any(axis=0)))), default=0)
    rows = _matmul(np.array(proj.entries, dtype=np.float64), comps.reshape(len(comps), -1), p)
    rows = rows.reshape(-1, *comps.shape[1:])
    table = None
    # the exact check's power columns and products stay within one block
    chunk = max(1, GRID_BLOCK_CELLS // (2 * (rows.shape[1] + rows.shape[2])))
    groups: dict[int, list[int]] = {}
    for t, q in enumerate(qs):
        groups.setdefault(_last_nonzero(q), []).append(t)
    counts = [0] * len(qs)
    center_hits = 0
    for first, (j, members) in enumerate(groups.items()):
        # a zero row would make every cell a candidate
        i = max((k for k in range(len(rows)) if k != j and rows[k].any()), default=j)
        others = [k for k in range(len(rows)) if k not in (i, j)]
        rest = rows[others]
        pair = rows[[i, j]]
        # owner t < len(members) is probe members[t]: R_k q_j = R_j q_k.  The
        # last owner is the center, R_k = 0, for cells with R_i = R_j = 0
        weights = np.zeros((len(members) + 1, 1 + len(others)))
        weights[-1, 0] = 1
        owned = []
        for t, member in enumerate(members):
            q = np.array(qs[member], dtype=np.float64)
            weights[t] = q[[j] + others]
            owned.append(int(q[i]) * inverse(int(q[j]), p) % p)
        keys = np.array(sorted(set(owned)), dtype=np.float64)
        # the row of the claims each owner reads: its key's, and the center's last
        claimed = np.searchsorted(keys, owned).tolist() + ([len(keys)] if first == 0 else [])
        if len(keys) * degree > KEY_PRODUCT_DEGREE:
            if table is None:
                table = _inverse_table(p)
            batches = _keyed_candidates(pair, keys, p, n, table, chunk)
        else:
            zeros = _zero_cells(_key_product(pair, keys.tolist(), p), p, n)
            # 1-tuples of cells for _gathered; the check reads their R_j and claims
            batches = ((cells, None, None) for (cells,) in _gathered(zip(zeros), chunk))
        for cells, rj, claims in batches:
            total = _count_over(cells, rj, claims, claimed, weights, keys, pair, rest, p)
            for t, member in enumerate(members):
                counts[member] += int(total[t])
            center_hits += int(total[-1])
    return counts, center_hits


# ---------------------------------------------------------------------------
# cone-section ruling scan
# ---------------------------------------------------------------------------


def _curve_points_int(curve: ImplicitPlaneCurveHandle) -> list[tuple[int, int, int]]:
    """Every projective point of the plane curve over its prime field, in
    the order (u, v, 1) by grid cell, (u, 1, 0) by u, then (1, 0, 0)."""
    p = curve.field.modulus
    if p * p > ENUM_BUDGET:
        raise BudgetExhausted(f"curve grid {p}^2 exceeds the enumeration budget {ENUM_BUDGET}")
    pts = []
    terms = curve.f.terms
    for cells in _zero_cells(_coefficients([curve.f_affine.terms], 2)[0], p, 2):
        us, vs = np.divmod(cells, p)
        pts += [(u, v, 1) for u, v in zip(us.tolist(), vs.tolist())]
    # the line at infinity: x2 = 0, x1 = 1, where only the terms without x2
    # are left, then the lone corner point, where the homogeneous f of
    # degree d is its x0^d coefficient
    at_infinity = {e[:1]: c for e, c in terms.items() if not e[2]}
    for cells in _zero_cells(_coefficients([at_infinity], 1)[0], p, 1):
        pts += [(u, 1, 0) for u in cells.tolist()]
    if not terms.get((curve.f.total_degree(), 0, 0)):
        pts.append((1, 0, 0))
    return pts


class _RulingScan:
    """Per-prime scan state for one cone-section handle: the rulings over
    the curve points, in curve order, and their points y as the columns of
    Y.  A point y + V mu lies over [q] when ``A mu = -N y``, for the probe's
    minors ``N = q_j P_i - q_i P_j`` (i != j, j its pivot) and ``A = N V``.
    That has a solution exactly when ``w N y = 0`` for every cokernel row w
    of A, so one product ``W N Y`` picks the solvable rulings; the section
    finds the solutions on it (``SectionHandle._ruling_points``)."""

    def __init__(self, x: SectionHandle, proj: Matrix) -> None:
        self.x = x
        self.kone, self.emb = x.base, x.base.base
        self.proj = proj
        self.vertex = np.array(self.kone.vertex.entries, dtype=float)
        p = x.field.modulus
        curve = _curve_points_int(self.emb.base)
        forms = [g.terms for g in self.emb.polys]
        exps = sorted({e for terms in forms for e in terms})
        coeffs = np.array([[terms.get(e, 0) for e in exps] for terms in forms], dtype=np.float64)
        # every curve point's embedding, as a column: one product of the
        # forms' coefficients and the monomials' values at every point
        values = _monomials(np.array(curve, dtype=np.float64).reshape(-1, 3).T, np.array(exps).reshape(-1, 3), p)
        ys = _matmul(coeffs, values, p)
        kept = ys.any(axis=0)  # else the point is in the base locus of the embedding
        self.points = ys[:, kept]
        self.rulings: list[tuple[tuple[int, int, int], tuple[int, ...]]] = list(
            zip(compress(curve, kept.tolist()), map(tuple, self.points.T.astype(np.int64).tolist()))
        )

    def preimages(self, q: list[int]) -> tuple[set[tuple[int, ...]], int, list[tuple]]:
        """Distinct preimage points of [q], excluded-center tally, (c, mu)s."""
        p = self.x.field.modulus
        jq = _last_nonzero(q)
        rows = self.proj.entries
        minors = [
            [(q[jq] * a - q[i] * b) % p for a, b in zip(rows[i], rows[jq])] for i in range(len(rows)) if i != jq
        ]
        n = np.array(minors, dtype=float).reshape(-1, self.proj.cols)
        system = LinearSystem(_matmul(n, self.vertex, p).astype(np.int64).tolist(), self.kone.m, p)
        w = np.array(system.cokernel, dtype=float).reshape(-1, len(minors))
        solvable = ~_matmul(_matmul(w, n, p), self.points, p).any(axis=0)
        found: set[tuple[int, ...]] = set()
        details: list[tuple] = []
        center_hits = 0
        for t in np.flatnonzero(solvable).tolist():
            c, y = self.rulings[t]
            part = system.solve([-sum(a * b for a, b in zip(row, y)) % p for row in minors])
            for mu in self.x._ruling_points(y, part, system.basis):
                xpt = self.kone._point(y, mu)
                if not any(self.proj.matvec(xpt)):
                    center_hits += 1
                    continue
                key = normalize_point(xpt, p)
                if key not in found:
                    found.add(key)
                    details.append((c, mu))
        return found, center_hits, details


# ---------------------------------------------------------------------------
# the probe
# ---------------------------------------------------------------------------


def _enumerator(x: VarietyHandle):
    """The one choice of how to enumerate fibers of x's projections, made
    from x's shape before anything is rebuilt: the grid scan for a
    parametric chart, the ruling scan for a section of a cone over an
    embedded plane curve.  Any other shape is a config error."""
    if isinstance(x, ParametricHandle):
        return _grid_counts
    if not isinstance(x, SectionHandle):
        raise ConfigError(f"no enumeration strategy for {x.kind} handles")
    if not isinstance(x.base, ConeHandle):
        raise ConfigError(f"no enumeration strategy for sections over {x.base.kind}")
    emb = x.base.base
    if not isinstance(emb, MapImageHandle) or not isinstance(emb.base, ImplicitPlaneCurveHandle):
        raise ConfigError("cone enumeration expects an embedded plane curve base")
    return _ruling_counts


def _one_prime(
    blueprint: dict, count, k: int, prime: int, trials: int, seed_tag: int
) -> tuple[tuple[int, ...], int, Optional[bool]]:
    """Rebuild the tree over F_prime, project it and ``count`` the fibers:
    the per-trial counts, the center hits and the tangent agreement."""
    fp = FieldSpec.prime(prime)
    rng = derive_rng(seed_tag, "fiber", prime)
    xp = build(blueprint, fp, rng)
    n = xp.intrinsic_dim(rng)
    projected, _ = tangential_projection(xp, k, rng)
    if not projected.generically_finite(rng):
        raise DegenerateWitness(f"projection collapses over F_{prime}")
    return count(projected, n, trials, rng)


def _grid_counts(projected: ProjectionHandle, n: int, trials: int, rng: random.Random):
    """Scan fresh probe points for the trials whose count is still at or
    above ``DEGENERATE_COUNT_FLOOR``, one scan per ``_resample_loop`` draw,
    so the cap bounds the scans in all.  The center points do not depend on
    the probes, so every scan counts the same center hits."""
    xp, proj = projected.base, projected.proj
    counts = [0] * trials
    bad = list(range(trials))

    def scan():
        nonlocal bad
        fresh, hits = _scan_parametric(xp, proj, [projected.sample(rng).raw for _ in bad])
        for t, c in zip(bad, fresh):
            counts[t] = c
        bad = [t for t in bad if counts[t] >= DEGENERATE_COUNT_FLOOR]
        return None if bad else (tuple(counts), hits, None)

    return _resample_loop(scan, "probe points with finite fibers")


def _ruling_counts(projected: ProjectionHandle, n: int, trials: int, rng: random.Random):
    scan = _RulingScan(projected.base, projected.proj)
    counts = []
    hits = 0
    agreement: Optional[bool] = None

    def probe():
        found, center_hits, details = scan.preimages(projected.sample(rng).raw)
        return (found, center_hits, details) if len(found) < DEGENERATE_COUNT_FLOOR else None

    for _ in range(trials):
        found, center_hits, details = _resample_loop(probe, "probe points with finite fibers")
        counts.append(len(found))
        hits += center_hits
        if len(details) >= 2 and agreement is None:
            agreement = _fiber_span_agreement(scan, details, n)
    return tuple(counts), hits, agreement


def _same_span(a: Matrix, b: Matrix, n: int) -> tuple[int, bool]:
    """The rank of frame a, and whether frames a and b both have rank n + 1
    and span the same space, which holds when stacking them adds no rank."""
    ra, rb = exact_rank(a), exact_rank(b)
    rcat = exact_rank(Matrix.hstack([a, b]))
    return ra, ra == rb == rcat == n + 1


def _fiber_span_agreement(scan: _RulingScan, details: list[tuple], n: int) -> Optional[bool]:
    """Two preimages of one image point must project to the same tangent
    space of the image; comparing their pushed frames tests exactly that."""
    x, emb = scan.x, scan.emb
    pushed = []
    for c, mu in details:
        try:
            frame = x.tangent_frame(x._ruling_witness(emb._witness_over(emb.base._witness_at(c)), mu))
        except DegenerateWitness:
            continue
        pushed.append(scan.proj.matmul(frame))
        if len(pushed) == 2:
            break
    if len(pushed) < 2:
        return None
    return _same_span(pushed[0], pushed[1], n)[1]


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
    over each enumeration prime and grade the evidence.

    Each prime rebuilds x from its tree, so x must come from ``build`` or
    ``builtin``: a handle made by a constructor call has no tree.
    """
    if x.blueprint is None:
        raise ConfigError(
            f"{x.label} has no variety tree to rebuild over the enumeration primes; "
            "make it with build or builtin"
        )
    if trials < 1:
        raise ConfigError("trials must be positive")
    if len(primes) < 1:
        raise ConfigError("need at least one enumeration prime")
    if len(set(primes)) < len(primes):
        raise ConfigError(f"enumeration primes list a prime twice: {tuple(primes)}")

    # one draw from the caller, children for everything else: the amount of
    # sampling done here must not depend on which handle caches are warm
    seed_tag = rng.randrange(2**63)
    pre_rng = derive_rng(seed_tag, "fiber", "precheck")
    projected, _ = tangential_projection(x, k, pre_rng)
    if not projected.generically_finite(pre_rng):
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

    count = _enumerator(x)
    cardinalities: dict[int, tuple[int, ...]] = {}
    center_hits: dict[int, int] = {}
    agreements: list[bool] = []

    for prime in sorted(primes):
        counts, hits, agreement = _one_prime(x.blueprint, count, k, prime, trials, seed_tag)
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


def tangent_functoriality_check(x: VarietyHandle, k: int, rng: random.Random) -> FunctorialityReport:
    """Push source tangent frames through the k-tangential projection and
    compare them with the image handle's own frames at the image witnesses.

    The comparison is not independent: ``ProjectionHandle.chart_jet2``
    pushes its base's chart jet through ``proj``, so the image frame at pw
    is ``proj`` times x's frame at ``pw.base``, the very matrix pushed here.
    The two are equal entry for entry (all 30 comparisons of criterion 10
    at seed 0), and ``span_consistent`` reduces to both having rank n + 1.
    """
    child = derive_rng(rng.randrange(2**63), "functoriality", k)
    n = x.intrinsic_dim(child)
    projected, _ = tangential_projection(x, k, child)
    if not projected.generically_finite(child):
        return FunctorialityReport(
            k=k,
            generically_finite=False,
            witnesses=0,
            frame_ranks=(),
            span_consistent=False,
        )
    ranks = []
    consistent = True
    for _ in range(FUNCTORIALITY_WITNESSES):
        pw = projected.sample(child)
        pushed = projected.proj.matmul(x.tangent_frame(pw.base))
        r_push, same = _same_span(pushed, projected.tangent_frame(pw), n)
        ranks.append(r_push)
        consistent = consistent and same
    return FunctorialityReport(
        k=k,
        generically_finite=True,
        witnesses=FUNCTORIALITY_WITNESSES,
        frame_ranks=tuple(ranks),
        span_consistent=consistent,
    )
