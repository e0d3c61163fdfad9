"""Contact loci: tangent hyperplanes and their degeneracy at the tangency points.

A hyperplane through the tangent spaces at k+1 general points pulls back to
each local chart with vanishing value and gradient; what is left is an exact
quadratic form whose corank on the tangent space measures the dimension of
the contact locus through that point.  The generic corank over random draws
is the weak-defect number nu_k, and nu_k >= 1 is exactly k-weak-defectivity.

Coranks only inflate on special draws, so the estimate is a min over
hyperplane draws and witness tuples of a max over the tangency points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .algebra import FieldSpec, Jet2, Matrix, exact_rank
from .errors import ConfigError, DegenerateWitness
from .secant import _TowerStep, _hyperplanes_through, _nondegenerate_tuple, _tower, defect, min_defective_k
from .varieties import VarietyHandle, _contract_linear_form, _resample_loop

__all__ = [
    "DEFAULT_HYPERPLANE_DRAWS",
    "WITNESS_TUPLES",
    "NuEstimate",
    "NuTowerReport",
    "ContactComparison",
    "nu_estimate",
    "check_nu_tower",
    "check_nu_ge_delta",
]

DEFAULT_HYPERPLANE_DRAWS = 5
# witness tuples nu_estimate draws, each with its own hyperplane draws
WITNESS_TUPLES = 3


def _draw_hyperplane(x: VarietyHandle, space: Matrix, rng: random.Random) -> tuple[int, ...]:
    """A random nonzero combination of the columns of ``space``."""

    def one():
        cs = [x.field.random_scalar(rng) for _ in range(space.cols)]
        return space.matvec(cs) if any(cs) else None

    return _resample_loop(one, f"a tangent hyperplane on {x.label}")


def _tangent_corank(jet: Jet2, field: FieldSpec, n: int) -> int:
    """Corank, on the n-dimensional tangent space, of the quadric a hyperplane
    tangent at the jet's point cuts there, given the hyperplane's
    pulled-back 2-jet.

    The chart Hessian is that quadric pulled back through the chart's
    differential, which has rank n at a witness whose frame has rank n + 1,
    so both have the same rank.  A chart with more than n parameters adds
    its fibre directions to the Hessian's kernel but not to the corank."""
    if jet.value != 0 or not jet.gradient_is_zero():
        raise DegenerateWitness("hyperplane is not tangent at the witness")
    return n - exact_rank(jet.hessian_matrix(field))


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
) -> NuEstimate:
    """Generic contact corank at k+1 general points.

    nu is None when no tangent hyperplane exists, which happens exactly when
    the k-th secant variety fills the ambient space.
    """
    if k < 0:
        raise ConfigError("secant index must be nonnegative")
    if hyperplane_draws < 1:
        raise ConfigError("draw counts must be positive")
    n = x.intrinsic_dim(rng)
    best: Optional[int] = None
    space_dim: Optional[int] = None
    for _ in range(WITNESS_TUPLES):
        _, charts, frames = _nondegenerate_tuple(x, k + 1, n, rng)
        space = _hyperplanes_through(frames)
        if space.cols == 0:
            return NuEstimate(k=k, nu=None, hyperplane_space_dim=0)
        space_dim = space.cols if space_dim is None else min(space_dim, space.cols)
        # each chart's second order, computed on first read, serves every
        # drawn hyperplane
        p = x.field.modulus
        for _ in range(hyperplane_draws):
            coeffs = _draw_hyperplane(x, space, rng)
            corank = max(
                _tangent_corank(_contract_linear_form(coeffs, chart, p), x.field, n) for chart in charts
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
) -> NuTowerReport:
    """Compare nu_k of x with nu_1 of its (k-1)-st tangential projection; the
    two agree when that projection is generically finite."""
    top, low, step = _tower(
        x, k, rng, lambda h, j: nu_estimate(h, j, rng, hyperplane_draws)
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


def check_nu_ge_delta(x: VarietyHandle, kmax: int, rng: random.Random) -> ContactComparison:
    """At the smallest defective k, the contact corank bounds the defect from
    above: defectivity forces weak defectivity, never the reverse."""
    m = min_defective_k(x, kmax, rng)
    if m is None:
        return ContactComparison(min_defective_k=None, delta=None, nu=None)
    profile = defect(x, m, rng)
    est = nu_estimate(x, m, rng)
    return ContactComparison(min_defective_k=m, delta=profile.delta, nu=est.nu)
