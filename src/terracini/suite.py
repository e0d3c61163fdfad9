"""The built-in reproduction suite: eleven numbered checks.

Each criterion builds its own handles from pinned blueprints with a child
rng derived from (seed, criterion id), so criteria are independent of each
other and of execution order.  Results carry a JSON-safe ``details`` dict;
wall-clock lives outside the deterministic payload on purpose, since byte
identity of reports is itself one of the checks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

from .algebra import FieldSpec
from .contact import check_nu_ge_delta, check_nu_tower, nu_estimate
from .errors import CenterFillsAmbient
from .fiber import fiber_probe, tangent_functoriality_check
from .instances import (
    ANALYSIS_PRIME,
    ANALYSIS_PRIME_ALT,
    SUITE_MEMBERS,
    builtin_blueprint,
)
from .secant import check_delta_tower, defect
from .seeding import derive_rng
from .varieties import build, generic_hyperplane_section

__all__ = [
    "KMAX",
    "CriterionResult",
    "SuiteResult",
    "criterion_payload",
    "suite_payload",
    "canonical_json",
    "run_paper_suite",
]

KMAX = 4
FUNCTORIALITY_KMAX = 3
FUNCTORIALITY_MIN_CHECKS = 5


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict
    elapsed: float


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    criteria: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)


def criterion_payload(c: CriterionResult) -> dict:
    return {"id": c.cid, "title": c.title, "passed": c.passed, "details": c.details}


def suite_payload(s: SuiteResult) -> dict:
    return {
        "seed": s.seed,
        "passed": s.passed,
        "criteria": [criterion_payload(c) for c in s.criteria],
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _rng(seed: int, cid: int, *tags):
    return derive_rng(seed, "criterion", cid, *tags)


def _corrupt_blueprint(bp: dict) -> dict:
    """Rotate one exponent in the base curve equation: a one-symbol typo."""
    out = json.loads(json.dumps(bp))
    node = out
    while node.get("constructor") != "implicit_plane_curve":
        node = node["base"]
    expo = node["terms"][0][1]
    node["terms"][0][1] = expo[1:] + expo[:1]
    return out


def _member(name: str, seed: int, cid: int, prime: int = ANALYSIS_PRIME, corrupt: bool = False):
    bp = builtin_blueprint(name)
    if corrupt and name == "counter1":
        bp = _corrupt_blueprint(bp)
    field = FieldSpec.prime(prime)
    return build(bp, field, _rng(seed, cid, "build", name, prime), label=name)


# ---------------------------------------------------------------------------
# criteria 1..10
# ---------------------------------------------------------------------------


def _crit_1(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("veronese-2-2", seed, 1)
    prof = defect(x, 1, _rng(seed, 1, "defect"))
    details = {
        "secant_dim": prof.actual,
        "expected_dim": prof.expected,
        "delta": prof.delta,
    }
    return (prof.actual, prof.expected, prof.delta) == (4, 5, 1), details


def _crit_2(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("veronese-2-2", seed, 2)
    prof = defect(x, 1, _rng(seed, 2, "defect"))
    est = nu_estimate(x, 1, _rng(seed, 2, "contact"))
    fib = fiber_probe(x, 1, _rng(seed, 2, "fiber"))
    details = {
        "nu": est.nu,
        "delta": prof.delta,
        "projection": fib.verdict,
    }
    ok = est.nu == 1 == prof.delta and fib.verdict == "NotGenericallyFinite"
    return ok, details


def _crit_3(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("veronese-2-3", seed, 3)
    d1 = defect(x, 1, _rng(seed, 3, "defect", 1))
    d2 = defect(x, 2, _rng(seed, 3, "defect", 2))
    est = nu_estimate(x, 1, _rng(seed, 3, "contact"))
    fib = fiber_probe(x, 1, _rng(seed, 3, "fiber"))
    details = {
        "delta_1": d1.delta,
        "delta_2": d2.delta,
        "nu_1": est.nu,
        "fiber_verdict": fib.verdict,
        "cardinalities": {str(p): list(c) for p, c in fib.cardinalities.items()},
    }
    ok = (
        d1.delta == 0
        and d2.delta == 0
        and est.nu == 0
        and fib.verdict == "BirationalEvidence"
        and len(fib.cardinalities) >= 2
    )
    return ok, details


def _crit_4(seed: int, corrupt: bool) -> tuple[bool, dict]:
    per_curve: dict[str, dict] = {}
    ok = True
    for d in range(3, 10):
        name = f"rnc-{d}"
        x = _member(name, seed, 4)
        x_alt = _member(name, seed, 4, prime=ANALYSIS_PRIME_ALT)
        rows = {}
        k = 1
        while 2 * k + 1 <= d:
            prof = defect(x, k, _rng(seed, 4, "defect", d, k))
            prof_alt = defect(x_alt, k, _rng(seed, 4, "alt", d, k))
            rows[str(k)] = {
                "delta": prof.delta,
                "dim": prof.actual,
                "dim_alt_prime": prof_alt.actual,
            }
            ok = ok and prof.delta == 0 and prof.actual == prof_alt.actual
            k += 1
        per_curve[name] = rows
    return ok, {"curves": per_curve}


def _crit_5(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("counter1", seed, 5, corrupt=corrupt)
    prof = defect(x, 1, _rng(seed, 5, "defect"))
    est = nu_estimate(x, 1, _rng(seed, 5, "contact"))
    fib = fiber_probe(x, 1, _rng(seed, 5, "fiber"))
    details = {
        "delta_1": prof.delta,
        "nu_1": est.nu,
        "fiber_verdict": fib.verdict,
        "consensus_d": fib.consensus_d,
        "cardinalities": {str(p): list(c) for p, c in fib.cardinalities.items()},
    }
    ok = (
        prof.delta == 0
        and est.nu is not None
        and est.nu >= 1
        and fib.verdict == "NonBirationalEvidence"
        and fib.consensus_d is not None
        and fib.consensus_d >= 2
        and len(fib.cardinalities) >= 2
    )
    return ok, details


def _crit_6(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("counter2", seed, 6)
    d1 = defect(x, 1, _rng(seed, 6, "defect", 1))
    d2 = defect(x, 2, _rng(seed, 6, "defect", 2))
    e1 = nu_estimate(x, 1, _rng(seed, 6, "contact", 1))
    e2 = nu_estimate(x, 2, _rng(seed, 6, "contact", 2))
    dt = check_delta_tower(x, 2, _rng(seed, 6, "delta-tower"))
    nt = check_nu_tower(x, 2, _rng(seed, 6, "nu-tower"))
    details = {
        "delta_1": d1.delta,
        "delta_2": d2.delta,
        "nu_1": e1.nu,
        "nu_2": e2.nu,
        "weakly_defective_1": e1.weakly_defective,
        "delta_tower": {"delta_k": dt.delta_k, "projected": dt.delta_one_projected},
        "nu_tower": {"nu_k": nt.nu_k, "projected": nt.nu_one_projected},
    }
    ok = (
        d1.delta == 0
        and d2.delta == 1
        and e2.nu == 1
        and e1.weakly_defective
        and dt.consistent
        and nt.consistent
    )
    return ok, details


def _crit_7(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("counter3-n3", seed, 7)
    prof = defect(x, 1, _rng(seed, 7, "defect"))
    est = nu_estimate(x, 1, _rng(seed, 7, "contact"))
    details = {"delta_1": prof.delta, "nu_1": est.nu}
    ok = prof.delta == 1 and est.nu == 2 and est.nu > prof.delta
    return ok, details


def _crit_8(seed: int, corrupt: bool) -> tuple[bool, dict]:
    rows = {}
    ok = True
    for name in SUITE_MEMBERS:
        x = _member(name, seed, 8, corrupt=corrupt)
        cmp = check_nu_ge_delta(x, KMAX, _rng(seed, 8, "compare", name))
        rows[name] = {
            "min_defective_k": cmp.min_defective_k,
            "delta": cmp.delta,
            "nu": cmp.nu,
            "holds": cmp.holds,
        }
        ok = ok and cmp.holds
    return ok, {"members": rows}


def _crit_9(seed: int, corrupt: bool) -> tuple[bool, dict]:
    x = _member("counter3-n3", seed, 9)
    before_d = defect(x, 1, _rng(seed, 9, "before", "defect"))
    before_n = nu_estimate(x, 1, _rng(seed, 9, "before", "contact"))
    cut = generic_hyperplane_section(x, _rng(seed, 9, "cut"))
    after_d = defect(cut, 1, _rng(seed, 9, "after", "defect"))
    after_n = nu_estimate(cut, 1, _rng(seed, 9, "after", "contact"))
    details = {
        "delta_before": before_d.delta,
        "delta_after": after_d.delta,
        "nu_before": before_n.nu,
        "nu_after": after_n.nu,
    }
    ok = (
        before_d.delta == 1
        and after_d.delta == 0
        and before_n.nu == 2
        and after_n.nu == 1
    )
    return ok, details


def _crit_10(seed: int, corrupt: bool) -> tuple[bool, dict]:
    rows = []
    ok = True
    for name in SUITE_MEMBERS:
        x = _member(name, seed, 10, corrupt=corrupt)
        for k in range(1, FUNCTORIALITY_KMAX + 1):
            try:
                rep = tangent_functoriality_check(x, k, _rng(seed, 10, name, k))
            except CenterFillsAmbient:
                break
            if not rep.generically_finite:
                continue
            rows.append(
                {
                    "member": name,
                    "k": k,
                    "span_consistent": rep.span_consistent,
                    "frame_ranks": list(rep.frame_ranks),
                }
            )
            ok = ok and rep.span_consistent
    ok = ok and len(rows) >= FUNCTORIALITY_MIN_CHECKS
    return ok, {"checks": rows, "count": len(rows)}


_CRITERIA: tuple[tuple[int, str, Callable], ...] = (
    (1, "quadratic Veronese surface: first secant falls one short", _crit_1),
    (2, "quadratic Veronese surface: contact excess matches, projection collapses", _crit_2),
    (3, "cubic Veronese surface: no defects, projection birational", _crit_3),
    (4, "rational normal curves: defect-free ladder, two-prime ranks", _crit_4),
    (5, "cone over sextic curve: flat defect, contact excess, triple fibers", _crit_5),
    (6, "boundary surface: second secant defect with tower equalities", _crit_6),
    (7, "threefold cone: contact excess strictly beyond defect", _crit_7),
    (8, "contact excess bounds the defect at the first defective index", _crit_8),
    (9, "hyperplane cut decrements defect and contact excess together", _crit_9),
    (10, "pushed tangent frames span the image tangent frames", _crit_10),
)


def _run_one(cid: int, title: str, fn: Callable, seed: int, corrupt: bool) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, details = fn(seed, corrupt)
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    return CriterionResult(
        cid=cid,
        title=title,
        passed=passed,
        details=details,
        elapsed=time.perf_counter() - t0,
    )


def _first_ten(seed: int, corrupt: bool) -> list[CriterionResult]:
    return [_run_one(cid, title, fn, seed, corrupt) for cid, title, fn in _CRITERIA]


def _cross_prime_dims(seed: int, corrupt: bool) -> tuple[bool, dict]:
    rows = {}
    agree = True
    for name in SUITE_MEMBERS:
        entry = {}
        for prime in (ANALYSIS_PRIME, ANALYSIS_PRIME_ALT):
            x = _member(name, seed, 11, prime=prime, corrupt=corrupt)
            rng = _rng(seed, 11, "dims", name, prime)
            dims = [x.intrinsic_dim(rng)]
            for k in (1, 2):
                dims.append(defect(x, k, rng).actual)
            entry[str(prime)] = dims
        vals = list(entry.values())
        agree = agree and vals[0] == vals[1]
        rows[name] = entry
    return agree, rows


def _crit_11(seed: int, corrupt: bool, first_pass: list[CriterionResult]) -> CriterionResult:
    def body(seed_: int, corrupt_: bool) -> tuple[bool, dict]:
        second_pass = _first_ten(seed_, corrupt_)
        bytes_a = canonical_json([criterion_payload(c) for c in first_pass])
        bytes_b = canonical_json([criterion_payload(c) for c in second_pass])
        identical = bytes_a == bytes_b
        agree, dim_rows = _cross_prime_dims(seed_, corrupt_)
        details = {
            "rerun_byte_identical": identical,
            "cross_prime_dims_agree": agree,
            "dims": dim_rows,
        }
        return identical and agree, details

    return _run_one(
        11,
        "rerun is byte-identical, dimensions agree across analysis primes",
        body,
        seed,
        corrupt,
    )


def run_paper_suite(seed: int = 0, corrupt: bool = False) -> SuiteResult:
    """Run all eleven checks; ``corrupt`` feeds one mistyped pinned instance
    through the same pipeline as a negative control."""
    first = _first_ten(seed, corrupt)
    crit11 = _crit_11(seed, corrupt, first)
    return SuiteResult(seed=seed, criteria=tuple(first + [crit11]))
