"""Fiber probes: exhaustive preimage counts of tangential projections."""

import random

import pytest

from terracini.algebra import FieldSpec, exact_rank
from terracini.errors import BudgetExhausted
from terracini.fiber import (
    FiberReport,
    _grade,
    fiber_probe,
    tangent_functoriality_check,
)
from terracini.instances import ANALYSIS_PRIME, builtin, builtin_blueprint
from terracini.secant import tangential_projection
from terracini.seeding import derive_rng
from terracini.varieties import build, veronese

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
    x = veronese(FIELD, 3, 3)
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
