"""Secant defects, contact loci, and tangential projections over prime fields.

The package measures higher secant varieties of parametrically or implicitly
given projective varieties by exact rank computations at sampled witnesses,
estimates contact-locus dimensions through constrained Hessian coranks, and
probes tangential projections for birationality by exhaustive fiber counts
over small primes.  Everything is seeded and reproducible.
"""

from .algebra import (
    FieldSpec,
    Matrix,
    MultiPoly,
    exact_rank,
    normalize_point,
    subspace_intersect,
)
from .contact import (
    ContactComparison,
    NuEstimate,
    NuTowerReport,
    check_nu_ge_delta,
    check_nu_tower,
    nu_estimate,
)
from .errors import (
    BudgetExhausted,
    CenterFillsAmbient,
    ConfigError,
    ConstructionError,
    DegenerateWitness,
    FieldMismatchError,
    SamplingExhausted,
    TerraciniError,
)
from .fiber import (
    FiberReport,
    FunctorialityReport,
    fiber_probe,
    tangent_functoriality_check,
)
from .instances import (
    ANALYSIS_PRIME,
    ANALYSIS_PRIME_ALT,
    ENUM_PRIMES,
    SUITE_MEMBERS,
    analysis_field,
    builtin,
    builtin_blueprint,
)
from .secant import (
    DefectProfile,
    TowerReport,
    check_delta_tower,
    defect,
    expected_secant_dim,
    min_defective_k,
    tangential_projection,
    terracini_dim,
)
from .seeding import derive_rng, derive_seed
from .suite import CriterionResult, SuiteResult, run_paper_suite
from .varieties import (
    VarietyHandle,
    Witness,
    build,
    cone,
    generic_hyperplane_section,
    hypersurface_section,
    implicit_plane_curve,
    map_image,
    rational_normal_curve,
    sample_distinct,
    veronese,
)

__all__ = [
    "ANALYSIS_PRIME",
    "ANALYSIS_PRIME_ALT",
    "ENUM_PRIMES",
    "SUITE_MEMBERS",
    "BudgetExhausted",
    "CenterFillsAmbient",
    "ConfigError",
    "ConstructionError",
    "ContactComparison",
    "CriterionResult",
    "DefectProfile",
    "DegenerateWitness",
    "FiberReport",
    "FieldMismatchError",
    "FieldSpec",
    "FunctorialityReport",
    "Matrix",
    "MultiPoly",
    "NuEstimate",
    "NuTowerReport",
    "SamplingExhausted",
    "SuiteResult",
    "TerraciniError",
    "TowerReport",
    "VarietyHandle",
    "Witness",
    "analysis_field",
    "build",
    "builtin",
    "builtin_blueprint",
    "check_delta_tower",
    "check_nu_ge_delta",
    "check_nu_tower",
    "cone",
    "defect",
    "derive_rng",
    "derive_seed",
    "exact_rank",
    "expected_secant_dim",
    "fiber_probe",
    "generic_hyperplane_section",
    "hypersurface_section",
    "implicit_plane_curve",
    "map_image",
    "min_defective_k",
    "normalize_point",
    "nu_estimate",
    "rational_normal_curve",
    "run_paper_suite",
    "sample_distinct",
    "subspace_intersect",
    "tangent_functoriality_check",
    "tangential_projection",
    "terracini_dim",
    "veronese",
]
