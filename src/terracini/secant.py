"""Secant variety dimensions, defects, and tangential projections.

The workhorse identity: the affine cone over the span of tangent spaces at
k+1 general points has the dimension of the k-th secant variety plus one, so
stacking exact tangent frames and taking a rank settles dim S^k.  Ranks can
only drop on special draws, hence every dimension here is a max over a few
independent trials and degenerate witness tuples are redrawn.  No trial can
read more than the parameter count min(r, n(k+1) + k), so once one reaches
it the later trials draw their witnesses, keeping the caller's stream, but
form no stacked rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import Matrix, exact_rank
from .errors import CenterFillsAmbient, ConfigError, DegenerateWitness
from .varieties import (
    MAX_RESAMPLE,
    ChartJet,
    ProjectionHandle,
    VarietyHandle,
    Witness,
    sample_distinct,
)

__all__ = [
    "DEFAULT_TRIALS",
    "DefectProfile",
    "TowerReport",
    "expected_secant_dim",
    "terracini_dim",
    "defect",
    "min_defective_k",
    "tangential_projection",
    "check_delta_tower",
]

DEFAULT_TRIALS = 3


def _check_k_and_trials(k: int, trials: int) -> None:
    """Refuse a bad index or trial count before anything is drawn."""
    if k < 0:
        raise ConfigError("secant index must be nonnegative")
    if trials < 1:
        raise ConfigError("trials must be positive")


def expected_secant_dim(x: VarietyHandle, k: int, rng: random.Random) -> int:
    """Parameter-count bound min(span, n(k+1) + k) with the measured span."""
    if k < 0:
        raise ConfigError("secant index must be nonnegative")
    n = x.intrinsic_dim(rng)
    return min(x.span_dim(), n * (k + 1) + k)


def _nondegenerate_tuple(
    x: VarietyHandle, count: int, n: int, rng: random.Random
) -> tuple[list[Witness], list[ChartJet], list[Matrix]]:
    """Distinct witnesses whose tangent frames all have full rank n + 1,
    returned with the chart jets those frames were read from and the frames
    themselves, so callers never rebuild either.  A chart jet has read only
    its first order; its second is computed on the caller's first read."""
    for _ in range(MAX_RESAMPLE):
        ws = sample_distinct(x, count, rng)
        charts, frames = [], []
        for w in ws:
            chart = x.chart_jet2(w)
            frame = chart.frame(x.field)
            if exact_rank(frame) != n + 1:
                break
            charts.append(chart)
            frames.append(frame)
        else:
            return ws, charts, frames
    raise DegenerateWitness(
        f"could not draw {count} witnesses with full frames on {x.label}"
    )


def terracini_dim(
    x: VarietyHandle, k: int, rng: random.Random, trials: int = DEFAULT_TRIALS
) -> tuple[int, tuple[Witness, ...]]:
    """dim S^k as the max over trials of a stacked-frame rank minus one.

    The k + 1 frames have rank n + 1 each and r + 1 rows, so no trial reads
    more than min(r, n(k+1) + k).  Once one does, the later trials still draw
    their witnesses, so the caller's generator ends where it would, but skip
    the stacked rank: a tie never replaces the first witnesses."""
    _check_k_and_trials(k, trials)
    n = x.intrinsic_dim(rng)
    ceiling = min(x.ambient_r, n * (k + 1) + k)
    best, best_ws = -1, ()
    for _ in range(trials):
        ws, _, frames = _nondegenerate_tuple(x, k + 1, n, rng)
        if best == ceiling:
            continue
        dim = exact_rank(Matrix.hstack(frames)) - 1
        if dim > best:
            best, best_ws = dim, tuple(ws)
    return best, best_ws


@dataclass(frozen=True)
class DefectProfile:
    k: int
    dim_x: int
    expected: int
    actual: int
    delta: int

    @property
    def defective(self) -> bool:
        return self.delta > 0


def defect(
    x: VarietyHandle, k: int, rng: random.Random, trials: int = DEFAULT_TRIALS
) -> DefectProfile:
    _check_k_and_trials(k, trials)
    n = x.intrinsic_dim(rng)
    expected = expected_secant_dim(x, k, rng)
    actual, _ = terracini_dim(x, k, rng, trials=trials)
    if actual > expected:
        raise DegenerateWitness(
            f"measured dim {actual} above the parameter count {expected}; "
            "the handle is lying about its span or dimension"
        )
    return DefectProfile(k=k, dim_x=n, expected=expected, actual=actual, delta=expected - actual)


def min_defective_k(
    x: VarietyHandle, kmax: int, rng: random.Random, trials: int = DEFAULT_TRIALS
) -> Optional[int]:
    """Smallest defective k in 1..kmax, or None.

    Stops early once a secant fills the span: every later secant fills too,
    so no later defect can appear.
    """
    for k in range(1, kmax + 1):
        profile = defect(x, k, rng, trials=trials)
        if profile.defective:
            return k
        if profile.actual == x.span_dim():
            return None
    return None


def _hyperplanes_through(frames: Sequence[Matrix]) -> Matrix:
    """Basis, as columns, of the hyperplanes containing every frame's column
    space; zero columns when the frames span the ambient space."""
    return Matrix.hstack(frames).transpose().null_space()


def tangential_projection(
    x: VarietyHandle, h: int, rng: random.Random
) -> tuple[ProjectionHandle, tuple[Witness, ...]]:
    """Project from the span of tangent spaces at h general points.

    The rows of the projection matrix are a basis of the hyperplanes through
    the center, so the matrix annihilates the center exactly and
    rank(proj . frame) equals rank([center | frame]) - rank(center) on the
    nose, no genericity needed.
    """
    if h < 1:
        raise ConfigError("need at least one tangent space to project from")
    n = x.intrinsic_dim(rng)
    ws, _, frames = _nondegenerate_tuple(x, h, n, rng)
    hyperplanes = _hyperplanes_through(frames)
    if hyperplanes.cols == 0:
        raise CenterFillsAmbient(
            f"{h} tangent spaces of {x.label} already span the ambient space"
        )
    center_rank = x.ambient_r + 1 - hyperplanes.cols
    handle = ProjectionHandle(
        x,
        hyperplanes.transpose(),
        label=f"tangential-{h}-{x.label}",
        span_r=x.span_dim() - center_rank,
    )
    return handle, tuple(ws)


@dataclass(frozen=True)
class _TowerStep:
    """What a tower check records about the (k-1)-st tangential projection:
    the rank of its center and its dimension against that of x.  A tower
    identity holds only where the projection is generically finite."""

    k: int
    center_rank: int
    dim_x: int
    dim_projected: int
    generically_finite: bool


@dataclass(frozen=True)
class TowerReport(_TowerStep):
    delta_k: int
    delta_one_projected: int

    @property
    def consistent(self) -> bool:
        return self.delta_k == self.delta_one_projected


def _tower(x: VarietyHandle, k: int, rng: random.Random, measure: Callable) -> tuple:
    """The one tower body: ``measure(x, k)`` against ``measure(projected, 1)``
    on the (k-1)-st tangential projection, returned with the ``_TowerStep``
    fields.  At k = 1 nothing is projected and both sides are one
    measurement.  The finiteness check reads the projection's dimension,
    which its measurement would read first anyway, so it draws nothing new."""
    if k < 1:
        raise ConfigError("tower check needs k >= 1")
    top = measure(x, k)
    dim_x = x.intrinsic_dim(rng)
    if k == 1:
        return top, top, _TowerStep(1, 0, dim_x, dim_x, True)
    projected, _ = tangential_projection(x, k - 1, rng)
    finite = projected.generically_finite(rng)
    low = measure(projected, 1)
    step = _TowerStep(
        k, x.span_dim() - projected.span_dim(), dim_x, projected.intrinsic_dim(rng), finite
    )
    return top, low, step


def check_delta_tower(
    x: VarietyHandle, k: int, rng: random.Random, trials: int = DEFAULT_TRIALS
) -> TowerReport:
    """Compare the k-defect of x against the 1-defect of its (k-1)-st
    tangential projection; the two agree when that projection is generically
    finite."""
    top, low, step = _tower(x, k, rng, lambda h, j: defect(h, j, rng, trials=trials))
    return TowerReport(**vars(step), delta_k=top.delta, delta_one_projected=low.delta)
