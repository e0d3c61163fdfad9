"""The pinned cone instances and their defect/contact profiles.

These are the values the whole package exists to exhibit: cones are weakly
defective without being defective, until the vertex gets big enough to create
honest defects, and hyperplane sections walk both numbers down by one.
"""

import random

import pytest

from terracini.contact import check_nu_ge_delta, check_nu_tower, nu_estimate
from terracini.errors import ConfigError
from terracini.instances import (
    ANALYSIS_PRIME,
    ANALYSIS_PRIME_ALT,
    analysis_field,
    builtin,
    builtin_blueprint,
)
from terracini.secant import check_delta_tower, defect, min_defective_k
from terracini.varieties import generic_hyperplane_section

from oracles import rank_by_reverse_echelon

F = analysis_field()


def test_builtin_names_resolve_and_unknown_names_do_not():
    rng = random.Random(1)
    ver = builtin("veronese-2-2", F, rng)
    assert ver.ambient_r == 5
    rnc = builtin("rnc-7", F, rng)
    assert rnc.ambient_r == 7
    with pytest.raises(ConfigError):
        builtin_blueprint("counter9")
    with pytest.raises(ConfigError):
        builtin_blueprint("veronese-two-3")


def test_counter1_is_weakly_defective_but_not_defective():
    rng = random.Random(11)
    x = builtin("counter1", F, rng)
    assert (x.ambient_r, x.intrinsic_dim(rng), x.span_dim()) == (7, 2, 7)

    profile = defect(x, 1, rng)
    assert (profile.expected, profile.actual, profile.delta) == (5, 5, 0)

    est = nu_estimate(x, 1, rng)
    assert est.nu == 1
    assert est.weakly_defective
    # the second secant fills P^7, so nothing further can be defective
    assert min_defective_k(x, 4, rng) is None


def test_counter2_defect_appears_at_k2_with_matching_nu():
    rng = random.Random(22)
    x = builtin("counter2", F, rng)
    assert (x.ambient_r, x.intrinsic_dim(rng), x.span_dim()) == (8, 2, 8)

    p1 = defect(x, 1, rng)
    assert (p1.actual, p1.delta) == (5, 0)
    assert nu_estimate(x, 1, rng).nu == 1  # weakly defective already at k=1

    p2 = defect(x, 2, rng)
    assert (p2.expected, p2.actual, p2.delta) == (8, 7, 1)
    est2 = nu_estimate(x, 2, rng)
    assert est2.nu == 1
    assert est2.hyperplane_space_dim == 1  # the tangent hyperplane is forced

    assert min_defective_k(x, 4, rng) == 2


def test_counter2_towers_agree_both_ways():
    rng = random.Random(23)
    x = builtin("counter2", F, rng)
    dt = check_delta_tower(x, 2, rng)
    assert (dt.delta_k, dt.delta_one_projected, dt.center_rank) == (1, 1, 3)
    assert dt.consistent
    nt = check_nu_tower(x, 2, rng)
    assert (nt.nu_k, nt.nu_one_projected) == (1, 1)
    assert nt.consistent


def test_counter3_has_strict_nu_over_delta():
    rng = random.Random(33)
    x = builtin("counter3-n3", F, rng)
    assert (x.ambient_r, x.intrinsic_dim(rng), x.span_dim()) == (7, 3, 7)

    profile = defect(x, 1, rng)
    assert (profile.expected, profile.actual, profile.delta) == (7, 6, 1)
    est = nu_estimate(x, 1, rng)
    assert est.nu == 2
    assert est.nu > profile.delta

    cmp = check_nu_ge_delta(x, 4, rng)
    assert cmp.min_defective_k == 1
    assert (cmp.delta, cmp.nu) == (1, 2)
    assert cmp.holds


def test_counter3_hyperplane_section_decrements_both_numbers():
    rng = random.Random(34)
    x = builtin("counter3-n3", F, rng)
    cut = generic_hyperplane_section(x, rng)
    assert cut.intrinsic_dim(rng) == 2
    assert cut.span_dim() == 6

    profile = defect(cut, 1, rng)
    assert profile.delta == 0  # was 1 upstairs
    est = nu_estimate(cut, 1, rng)
    assert est.nu == 1  # was 2 upstairs


def test_counter_profiles_agree_across_the_twin_analysis_primes():
    for prime in (ANALYSIS_PRIME, ANALYSIS_PRIME_ALT):
        field = analysis_field(alt=(prime == ANALYSIS_PRIME_ALT))
        rng = random.Random(55)
        x = builtin("counter1", field, rng)
        assert defect(x, 1, rng).delta == 0
        assert nu_estimate(x, 1, rng).nu == 1


def test_counter1_terracini_matrix_rank_by_independent_elimination():
    rng = random.Random(66)
    x = builtin("counter1", F, rng)
    from terracini.algebra import Matrix
    from terracini.secant import terracini_dim

    dim, ws = terracini_dim(x, 1, rng)
    stacked = Matrix.hstack([x.tangent_frame(w) for w in ws])
    assert rank_by_reverse_echelon([list(row) for row in stacked.entries], F.modulus) == dim + 1 == 6
