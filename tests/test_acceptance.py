"""Acceptance gate: the full built-in verification suite, one test per criterion.

The suite runs once (seed 0) for the whole module; each test then checks its
criterion's verdict against the frozen expectations and the stated time budget.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from terracini.suite import run_paper_suite

TIME_BUDGETS = {
    1: 1.0,
    2: 5.0,
    3: 180.0,
    4: 10.0,
    5: 300.0,
    6: 300.0,
    7: 300.0,
    9: 300.0,
}


@pytest.fixture(scope="module")
def suite():
    return run_paper_suite(seed=0)


def check(suite, cid):
    crit = next(c for c in suite.criteria if c.cid == cid)
    verdict = "PASS" if crit.passed else "FAIL"
    print(f"criterion {cid:2d} [{verdict}] {crit.elapsed:7.2f}s  {crit.title}")
    assert crit.passed, f"criterion {cid} failed: {crit.details}"
    budget = TIME_BUDGETS.get(cid)
    if budget is not None:
        assert crit.elapsed < budget, (
            f"criterion {cid} took {crit.elapsed:.2f}s, budget {budget:.0f}s"
        )
    return crit


def test_criterion_01_veronese_defect(suite):
    crit = check(suite, 1)
    assert crit.details == {"secant_dim": 4, "expected_dim": 5, "delta": 1}


def test_criterion_02_veronese_contact(suite):
    crit = check(suite, 2)
    assert crit.details["nu"] == 1 == crit.details["delta"]
    assert crit.details["projection"] == "NotGenericallyFinite"


def test_criterion_03_nondefective_control(suite):
    crit = check(suite, 3)
    assert (crit.details["delta_1"], crit.details["delta_2"]) == (0, 0)
    assert crit.details["nu_1"] == 0
    assert crit.details["fiber_verdict"] == "BirationalEvidence"
    cards = crit.details["cardinalities"]
    assert len(cards) >= 2
    assert all(d == 1 for counts in cards.values() for d in counts)


def test_criterion_04_rational_normal_curves(suite):
    crit = check(suite, 4)
    curves = crit.details["curves"]
    assert sorted(curves) == sorted(f"rnc-{d}" for d in range(3, 10))
    for name, rows in curves.items():
        d = int(name.split("-")[1])
        assert sorted(int(k) for k in rows) == list(range(1, (d - 1) // 2 + 1))
        for row in rows.values():
            assert row["delta"] == 0
            assert row["dim"] == row["dim_alt_prime"]


def test_criterion_05_weakly_defective_cone(suite):
    crit = check(suite, 5)
    assert crit.details["delta_1"] == 0
    assert crit.details["nu_1"] >= 1
    assert crit.details["consensus_d"] >= 2
    assert crit.details["fiber_verdict"] == "NonBirationalEvidence"
    assert len(crit.details["cardinalities"]) >= 2


def test_criterion_06_second_secant_towers(suite):
    crit = check(suite, 6)
    d = crit.details
    assert (d["delta_1"], d["delta_2"]) == (0, 1)
    assert d["nu_2"] == 1
    assert d["weakly_defective_1"]
    assert d["delta_tower"]["delta_k"] == d["delta_tower"]["projected"]
    assert d["nu_tower"]["nu_k"] == d["nu_tower"]["projected"]


def test_criterion_07_strict_gap(suite):
    crit = check(suite, 7)
    assert crit.details == {"delta_1": 1, "nu_1": 2}


def test_criterion_08_nu_dominates_delta(suite):
    crit = check(suite, 8)
    members = crit.details["members"]
    for name, row in members.items():
        assert row["holds"], f"{name}: {row}"
        if row["min_defective_k"] is not None:
            assert row["nu"] >= row["delta"] >= 1


def test_criterion_09_hyperplane_decrement(suite):
    crit = check(suite, 9)
    d = crit.details
    assert d["delta_before"] - d["delta_after"] == 1
    assert d["nu_before"] - d["nu_after"] == 1
    assert (d["delta_before"], d["nu_before"]) == (1, 2)


def test_criterion_10_tangent_functoriality(suite):
    crit = check(suite, 10)
    assert crit.details["count"] >= 3
    assert all(row["span_consistent"] for row in crit.details["checks"])


def test_criterion_11_determinism_and_primes(suite):
    crit = check(suite, 11)
    assert crit.details["rerun_byte_identical"]
    assert crit.details["cross_prime_dims_agree"]


# The report digests ``perfbench/check.py`` prints, by workload and seed.  A
# change that keeps every report byte leaves them alone; only a change that
# means to change reports may update them, and says so.
BENCHMARK_DIGESTS = {
    ("veronese-sweep", 1): "6f31a5433cc3cf2b",
    ("veronese-sweep", 7): "6f31a5433cc3cf2b",
    ("fiber-enum", 1): "19487fde5e705fdd",
    ("fiber-enum", 7): "2c26cb6054ba5d8c",
    ("paper-suite", 1): "8045ffc2f5d8ef7f",
    ("paper-suite", 7): "8045ffc2f5d8ef7f",
}


@pytest.mark.slow
def test_benchmark_check_keeps_its_report_digests():
    """``perfbench/check.py`` passes: every workload is deterministic and
    correct, and prints the pinned digest at each seed."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "perfbench/check.py"], cwd=root, capture_output=True, text=True, timeout=900
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed = {}
    for line in done.stdout.splitlines():
        fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
        if "digest" in fields:
            printed.setdefault((line.split()[0], int(fields["seed"])), set()).add(fields["digest"])
    assert printed == {key: {digest} for key, digest in BENCHMARK_DIGESTS.items()}
