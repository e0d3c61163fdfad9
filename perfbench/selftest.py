#!/usr/bin/env python3
"""Self-test of the benchmark's own checks: each must accept a correct
result and reject a doctored one.

    python3 perfbench/selftest.py

The fixtures are written out by hand from the mathematics (and, for the
criteria, from the shape of a real report), not computed by ``oracles.py``,
so a wrong oracle fails here too.  Needs no package import; runs in about a
second.  Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402

# (n, d, k): (actual, expected, delta)
SWEEP = {
    (2, 2, 1): (4, 5, 1),
    (7, 2, 6): (34, 35, 1),
    (14, 2, 6): (83, 104, 21),
    (14, 2, 14): (119, 119, 0),
    (2, 4, 4): (13, 14, 1),
    (3, 4, 8): (33, 34, 1),
    (4, 3, 6): (33, 34, 1),
    (4, 4, 13): (68, 69, 1),
    (2, 4, 5): (14, 14, 0),
    (2, 3, 3): (9, 9, 0),
    (1, 9, 4): (9, 9, 0),
}


def _fiber_report(name: str, dim: int, verdict: str, consensus, cards: dict) -> dict:
    row = {"k": 1, "verdict": verdict, "consensus_d": consensus}
    if verdict != oracles.VERDICT_NOT_FINITE:
        row["cardinalities"] = cards
        row["functoriality"] = {"generically_finite": True, "span_consistent": True, "frame_ranks": [dim + 1] * 3}
    return {"variety": {"label": name, "dim": dim}, "per_k": [row]}


FIBER = {
    "counter1": _fiber_report(
        "counter1", 2, "NonBirationalEvidence", 3,
        {"1009": [1, 1, 1, 3, 1], "2003": [3, 1, 3, 1, 3], "3001": [3, 1, 3, 3, 3]},
    ),
    "veronese-2-4": _fiber_report(
        "veronese-2-4", 2, "BirationalEvidence", 1,
        {"1009": [1] * 5, "2003": [1] * 5, "3001": [1] * 5},
    ),
    "veronese-2-2": _fiber_report("veronese-2-2", 2, "NotGenericallyFinite", None, {}),
}


def _rnc_rows(d: int) -> dict:
    return {str(k): {"delta": 0, "dim": 2 * k + 1, "dim_alt_prime": 2 * k + 1} for k in range(1, (d - 1) // 2 + 1)}


def _member(mdk, delta, nu):
    return {"min_defective_k": mdk, "delta": delta, "nu": nu, "holds": True}


CRITERIA = {
    1: {"secant_dim": 4, "expected_dim": 5, "delta": 1},
    2: {"nu": 1, "delta": 1, "projection": "NotGenericallyFinite"},
    3: {"delta_1": 0, "delta_2": 0, "nu_1": 0, "fiber_verdict": "BirationalEvidence",
        "cardinalities": {"1009": [1] * 5, "2003": [1] * 5, "3001": [1] * 5}},
    4: {"curves": {f"rnc-{d}": _rnc_rows(d) for d in range(3, 10)}},
    5: {"delta_1": 0, "nu_1": 1, "fiber_verdict": "NonBirationalEvidence", "consensus_d": 3,
        "cardinalities": {"1009": [1, 1, 1, 3, 1], "2003": [3, 1, 3, 1, 3], "3001": [3, 1, 3, 3, 3]}},
    6: {"delta_1": 0, "delta_2": 1, "nu_1": 1, "nu_2": 1, "weakly_defective_1": True,
        "delta_tower": {"delta_k": 1, "projected": 1}, "nu_tower": {"nu_k": 1, "projected": 1}},
    7: {"delta_1": 1, "nu_1": 2},
    8: {"members": {
        "veronese-2-2": _member(1, 1, 1), "veronese-2-3": _member(None, None, None),
        "veronese-2-4": _member(4, 1, 1), "rnc-4": _member(None, None, None),
        "rnc-5": _member(None, None, None), "counter1": _member(None, None, None),
        "counter2": _member(2, 1, 1), "counter3-n3": _member(1, 1, 2)}},
    9: {"delta_before": 1, "delta_after": 0, "nu_before": 2, "nu_after": 1},
    10: {"checks": [{"member": m, "k": k, "span_consistent": True, "frame_ranks": [r] * 3}
                    for m, k, r in (("veronese-2-3", 1, 3), ("veronese-2-4", 2, 3), ("rnc-4", 1, 2),
                                    ("rnc-5", 2, 2), ("counter1", 1, 3), ("counter2", 1, 3))],
         "count": 6},
    11: {"cross_prime_dims_agree": True, "dims": {
        name: {"2147483647": dims, "2147483629": list(dims)}
        for name, dims in (("veronese-2-2", [2, 4, 5]), ("veronese-2-3", [2, 5, 8]), ("veronese-2-4", [2, 5, 8]),
                           ("rnc-4", [1, 3, 4]), ("rnc-5", [1, 3, 5]), ("counter1", [2, 5, 7]),
                           ("counter2", [2, 5, 7]), ("counter3-n3", [3, 6, 7]))}},
}


def _set(obj, path: str, value):
    """Copy of ``obj`` with the value at a dotted path replaced."""
    out = copy.deepcopy(obj)
    node = out
    keys = path.split(".")
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
    return out


# doctored results, each of which some check must reject
CRITERION_DOCTORED = [
    (1, "delta", 0), (1, "secant_dim", 5), (2, "nu", 0), (2, "projection", "BirationalEvidence"),
    (3, "delta_2", 1), (3, "cardinalities.2003.1", 2), (3, "fiber_verdict", "Inconclusive"),
    (4, "curves.rnc-7.2.dim", 4), (4, "curves.rnc-9.4.dim_alt_prime", 8),
    (5, "consensus_d", 2), (5, "cardinalities.3001.0", 4), (5, "nu_1", 0), (5, "delta_1", 1),
    (6, "delta_2", 0), (6, "nu_2", 2), (6, "delta_tower.projected", 0),
    (7, "nu_1", 1), (7, "delta_1", 0),
    (8, "members.veronese-2-4.min_defective_k", 3), (8, "members.counter2.delta", 2),
    (8, "members.counter3-n3.nu", 1), (8, "members.counter1.min_defective_k", 1),
    (8, "members.rnc-5.holds", False),
    (9, "delta_after", 1), (9, "nu_after", 2),
    (10, "checks.2.frame_ranks", [2, 3, 2]), (10, "checks.0.span_consistent", False), (10, "count", 7),
    (11, "dims.veronese-2-2.2147483647.1", 5), (11, "dims.counter2.2147483629.2", 8),
    (11, "dims.counter1.2147483629.2", 6), (11, "dims.rnc-5.2147483647.0", 2),
    (11, "cross_prime_dims_agree", False), (11, "dims.counter1.2147483647", [2, 5]),
]
FIBER_DOCTORED = [
    ("counter1", "per_k.0.cardinalities.2003.0", 4),
    ("counter1", "per_k.0.cardinalities.1009.2", 0),
    ("counter1", "per_k.0.consensus_d", 2),
    ("counter1", "per_k.0.verdict", "NotGenericallyFinite"),
    ("counter1", "per_k.0.functoriality.span_consistent", False),
    ("veronese-2-4", "per_k.0.cardinalities.3001.4", 2),
    ("veronese-2-4", "per_k.0.verdict", "Inconclusive"),
    ("veronese-2-4", "variety.dim", 3),
    ("veronese-2-2", "per_k.0.verdict", "BirationalEvidence"),
]


def main() -> int:
    bad: list[str] = []
    checked = 0

    def expect(accepted: bool, problems: list[str], what: str) -> None:
        nonlocal checked
        checked += 1
        if accepted == bool(problems):
            verb = "rejected a correct" if accepted else "accepted a doctored"
            bad.append(f"{verb} {what}: {problems}")

    for (n, d, k), (actual, expected, delta) in SWEEP.items():
        row = {"actual": actual, "expected": expected, "delta": delta}
        expect(True, oracles.check_sweep_case(n, d, k, row), f"sweep case {(n, d, k)}")
        for key in row:
            for step in (-1, 1):
                doctored = dict(row, **{key: row[key] + step})
                expect(False, oracles.check_sweep_case(n, d, k, doctored), f"sweep {(n, d, k)} {key}{step:+d}")

    for name, report in FIBER.items():
        expect(True, oracles.check_fiber_report(name, 1, report), f"fiber report {name}")
    for name, path, value in FIBER_DOCTORED:
        doctored = _set(FIBER[name], path, value)
        expect(False, oracles.check_fiber_report(name, 1, doctored), f"fiber {name} {path}={value}")

    for cid, details in CRITERIA.items():
        expect(True, oracles.check_criterion(cid, True, details), f"criterion {cid}")
        expect(False, oracles.check_criterion(cid, False, details), f"criterion {cid} passed=False")
    for cid, path, value in CRITERION_DOCTORED:
        doctored = _set(CRITERIA[cid], path, value)
        expect(False, oracles.check_criterion(cid, True, doctored), f"criterion {cid} {path}={value}")

    text = json.dumps(FIBER["counter1"], sort_keys=True, indent=2)
    same, again = run.Round(), run.Round()
    same.results = again.results = [{"exit": 0, "report": text}]
    flipped = run.Round()
    flipped.results = [{"exit": 0, "report": text.replace('"consensus_d": 3', '"consensus_d": 2')}]
    expect(True, run.consistency_problems([same, again]), "pair of identical rounds")
    expect(False, run.consistency_problems([same, flipped]), "rounds one report byte apart")

    # the slowest operation, run a second time, must give the same result
    for second, accepted in (("slow", True), ("slow!", False)):
        answers = iter([second])
        ops = [("fast", None, None), ("slow", lambda: next(answers), lambda result: [])]
        first = run.Round()
        first.times, first.results = [0.1, 0.2], ["fast", "slow"]
        _, extra = run.slowest_twice(ops, [first])
        expect(accepted, extra[0].problems, f"slowest operation rerun giving {second!r}")

    for line in bad:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {checked - len(bad)} of {checked} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
