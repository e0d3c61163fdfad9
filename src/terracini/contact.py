"""Contact loci: tangent hyperplanes and their degeneracy at the tangency points.

A hyperplane through the tangent spaces at k+1 general points pulls back to
each local chart with vanishing value and gradient; what is left is an exact
quadratic form whose corank measures the dimension of the contact locus
through that point.  The generic corank over random draws is the weak-defect
number nu_k, and nu_k >= 1 is exactly k-weak-defectivity.

Coranks only inflate on special draws, so the estimate is a min over
hyperplane draws and witness tuples of a max over the tangency points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import FieldSpec, Jet2, Matrix, exact_rank
from .errors import ConfigError, DegenerateWitness, NoTangentHyperplane
from .secant import DEFAULT_TRIALS, _TowerStep, _nondegenerate_tuple, _tower, defect, min_defective_k
from .varieties import MAX_RESAMPLE, VarietyHandle, Witness, _contract_linear_form

__all__ = [
    "DEFAULT_HYPERPLANE_DRAWS",
    "DEFAULT_WITNESS_TUPLES",
    "NuEstimate",
    "NuTowerReport",
    "ContactComparison",
    "tangent_hyperplane_space",
    "tangent_hyperplane",
    "contact_corank",
    "nu_estimate",
    "check_nu_tower",
    "check_nu_ge_delta",
]

DEFAULT_HYPERPLANE_DRAWS = 5
DEFAULT_WITNESS_TUPLES = 3


def _hyperplanes_through(frames: Sequence[Matrix]) -> Matrix:
    return Matrix.hstack(frames).transpose().null_space()


def tangent_hyperplane_space(x: VarietyHandle, ws: Sequence[Witness]) -> Matrix:
    """Basis (as columns) of the hyperplanes containing every tangent space
    at the given witnesses.  Zero columns means the span fills the ambient."""
    return _hyperplanes_through([x.tangent_frame(w) for w in ws])


def _draw_hyperplane(x: VarietyHandle, space: Matrix, rng: random.Random) -> tuple[int, ...]:
    for _ in range(MAX_RESAMPLE):
        cs = [x.field.random_scalar(rng) for _ in range(space.cols)]
        if any(cs):
            return space.matvec(cs)
    raise NoTangentHyperplane("could not draw a nonzero combination")


def tangent_hyperplane(
    x: VarietyHandle, ws: Sequence[Witness], rng: random.Random
) -> tuple[int, ...]:
    """One uniformly drawn hyperplane through all the tangent spaces."""
    space = tangent_hyperplane_space(x, ws)
    if space.cols == 0:
        raise NoTangentHyperplane(
            f"tangent spaces at {len(ws)} points of {x.label} span the ambient space"
        )
    return _draw_hyperplane(x, space, rng)


def contact_corank(x: VarietyHandle, coeffs: Sequence[int], w: Witness) -> int:
    """Corank of the chart Hessian of a hyperplane tangent at the witness."""
    return _tangent_corank(x.pullback_jet2(coeffs, w), x.field)


def _tangent_corank(jet: Jet2, field: FieldSpec) -> int:
    if jet.value != 0 or not jet.gradient_is_zero():
        raise DegenerateWitness("hyperplane is not tangent at the witness")
    return len(jet.gradient) - exact_rank(jet.hessian_matrix(field))


@dataclass(frozen=True)
class NuEstimate:
    k: int
    nu: Optional[int]
    hyperplane_space_dim: int

    @property
    def weakly_defective(self) -> bool:
        return self.nu is not None and self.nu >= 1


def nu_estimate(
    x: VarietyHandle,
    k: int,
    rng: random.Random,
    hyperplane_draws: int = DEFAULT_HYPERPLANE_DRAWS,
    witness_tuples: int = DEFAULT_WITNESS_TUPLES,
) -> NuEstimate:
    """Generic contact corank at k+1 general points.

    nu is None when no tangent hyperplane exists, which happens exactly when
    the k-th secant variety fills the ambient space.
    """
    if k < 0:
        raise ConfigError("secant index must be nonnegative")
    if hyperplane_draws < 1 or witness_tuples < 1:
        raise ConfigError("draw counts must be positive")
    n = x.intrinsic_dim(rng)
    best: Optional[int] = None
    space_dim: Optional[int] = None
    for _ in range(witness_tuples):
        ws, frames = _nondegenerate_tuple(x, k + 1, n, rng)
        space = _hyperplanes_through(frames)
        if space.cols == 0:
            return NuEstimate(k=k, nu=None, hyperplane_space_dim=0)
        space_dim = space.cols if space_dim is None else min(space_dim, space.cols)
        # chart jets draw no randomness; each is built once and its second
        # order, on first read, serves every drawn hyperplane
        charts = [x.chart_jet2(w) for w in ws]
        p = x.field.modulus
        for _ in range(hyperplane_draws):
            coeffs = _draw_hyperplane(x, space, rng)
            corank = max(
                _tangent_corank(_contract_linear_form(coeffs, chart, p), x.field) for chart in charts
            )
            best = corank if best is None else min(best, corank)
    return NuEstimate(k=k, nu=best, hyperplane_space_dim=space_dim)


@dataclass(frozen=True)
class NuTowerReport(_TowerStep):
    nu_k: Optional[int]
    nu_one_projected: Optional[int]

    @property
    def consistent(self) -> bool:
        return self.nu_k == self.nu_one_projected


def check_nu_tower(
    x: VarietyHandle,
    k: int,
    rng: random.Random,
    hyperplane_draws: int = DEFAULT_HYPERPLANE_DRAWS,
    witness_tuples: int = DEFAULT_WITNESS_TUPLES,
) -> NuTowerReport:
    """Compare nu_k of x with nu_1 of its (k-1)-st tangential projection; the
    two agree when that projection is generically finite."""
    top, low, step = _tower(
        x, k, rng, lambda h, j: nu_estimate(h, j, rng, hyperplane_draws, witness_tuples)
    )
    return NuTowerReport(**vars(step), nu_k=top.nu, nu_one_projected=low.nu)


@dataclass(frozen=True)
class ContactComparison:
    """nu against delta at the smallest defective secant index."""

    min_defective_k: Optional[int]
    delta: Optional[int]
    nu: Optional[int]

    @property
    def applicable(self) -> bool:
        return self.min_defective_k is not None

    @property
    def holds(self) -> bool:
        if not self.applicable:
            return True  # nothing to check on a nowhere-defective handle
        return self.nu is not None and self.delta is not None and self.nu >= self.delta >= 1


def check_nu_ge_delta(
    x: VarietyHandle,
    kmax: int,
    rng: random.Random,
    trials: int | None = None,
) -> ContactComparison:
    """At the smallest defective k, the contact corank bounds the defect from
    above: defectivity forces weak defectivity, never the reverse."""
    t = DEFAULT_TRIALS if trials is None else trials
    m = min_defective_k(x, kmax, rng, trials=t)
    if m is None:
        return ContactComparison(min_defective_k=None, delta=None, nu=None)
    profile = defect(x, m, rng, trials=t)
    est = nu_estimate(x, m, rng)
    return ContactComparison(min_defective_k=m, delta=profile.delta, nu=est.nu)
