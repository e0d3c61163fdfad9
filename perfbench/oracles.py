"""Reference values from mathematics, and the checks that compare against them.

Nothing here imports the package.  Every expected number comes from one of:

* Alexander-Hirschowitz (J. Algebraic Geom. 4, 1995): among Veronese
  varieties v_d(P^n), d >= 2, exactly v_2(P^n) for 1 <= k <= n-1 and four
  sporadic cases, each of defect 1, have a defective k-th secant variety;
  every other secant has the parameter-count dimension
  ``min(C(n+d,d) - 1, n(k+1) + k)``.
* the rank of symmetric matrices: ``dim S^k(v_2(P^n)) =
  (k+1)(n+1) - k(k+1)/2 - 1`` for ``k + 1 <= n``;
* rational normal curves are never defective: ``dim S^k = min(d, 2k+1)``;
* the values the paper pins for its cone instances.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
from math import comb

# (n, d, k) of the sporadic defective Veronese secants
AH_SPORADIC = frozenset({(2, 4, 4), (3, 4, 8), (4, 3, 6), (4, 4, 13)})

FIBER_PRIMES = (1009, 2003, 3001)
VERDICT_BIRATIONAL = "BirationalEvidence"
VERDICT_NON_BIRATIONAL = "NonBirationalEvidence"
VERDICT_NOT_FINITE = "NotGenericallyFinite"

# dimension, span and the paper's invariants of the three cone instances
PINNED = {
    "counter1": {"dim": 2, "span": 7, "delta": {1: 0}, "nu_min": {1: 1}, "degree": 3},
    "counter2": {"dim": 2, "span": 8, "delta": {1: 0, 2: 1}, "nu": {2: 1}},
    "counter3-n3": {"dim": 3, "span": 7, "delta": {1: 1}, "nu": {1: 2}},
}

# criterion 8 looks for the first defective k up to this index
SUITE_KMAX = 4
# criterion 11 compares dim X, dim S^1 and dim S^2 of these at both primes
SUITE_MEMBERS = ("veronese-2-2", "veronese-2-3", "veronese-2-4", "rnc-4", "rnc-5",
                 "counter1", "counter2", "counter3-n3")
ANALYSIS_PRIMES = (2147483647, 2147483629)


def veronese_span(n: int, d: int) -> int:
    return comb(n + d, d) - 1


def parameter_count(n: int, d: int, k: int) -> int:
    """Expected dim S^k(v_d(P^n)) by counting parameters."""
    return min(veronese_span(n, d), n * (k + 1) + k)


def ah_defective(n: int, d: int, k: int) -> bool:
    return (d == 2 and 1 <= k <= n - 1) or (n, d, k) in AH_SPORADIC


def symmetric_rank_dim(n: int, k: int) -> int:
    """dim S^k(v_2(P^n)): symmetric (n+1)x(n+1) matrices of rank <= k+1."""
    if k + 1 > n:
        raise ValueError("the closed form holds for k + 1 <= n")
    return (k + 1) * (n + 1) - k * (k + 1) // 2 - 1


def ah_secant_dim(n: int, d: int, k: int) -> int:
    """dim S^k(v_d(P^n)) from the classification alone."""
    if d == 2 and 1 <= k <= n - 1:
        return symmetric_rank_dim(n, k)
    expected = parameter_count(n, d, k)
    return expected - 1 if (n, d, k) in AH_SPORADIC else expected


def member_dim(name: str) -> int:
    if name in PINNED:
        return PINNED[name]["dim"]
    parts = name.split("-")
    return 1 if parts[0] == "rnc" else int(parts[1])


def member_secant_dim(name: str, k: int) -> int | None:
    """dim S^k of a built-in, or None where the mathematics does not pin it."""
    parts = name.split("-")
    if parts[0] == "veronese":
        return ah_secant_dim(int(parts[1]), int(parts[2]), k)
    if parts[0] == "rnc":
        return min(int(parts[1]), 2 * k + 1)
    pin = PINNED[name]
    if k == 0:
        return pin["dim"]
    if k in pin["delta"]:
        return min(pin["span"], pin["dim"] * (k + 1) + k) - pin["delta"][k]
    return None


def projection_finite(name: str, k: int) -> bool | None:
    """Whether the k-tangential projection is generically finite: the image
    keeps dimension dim X exactly when dim S^k - dim S^(k-1) - 1 >= dim X."""
    hi, lo = member_secant_dim(name, k), member_secant_dim(name, k - 1)
    if hi is None or lo is None:
        return None
    return hi - lo - 1 >= member_dim(name)


# ---------------------------------------------------------------------------
# veronese-sweep
# ---------------------------------------------------------------------------


def check_sweep_case(n: int, d: int, k: int, row: dict) -> list[str]:
    tag = f"v_{d}(P^{n}) k={k}"
    out = []
    want_expected = parameter_count(n, d, k)
    want_actual = ah_secant_dim(n, d, k)
    if row.get("expected") != want_expected:
        out.append(f"{tag}: expected {row.get('expected')} != parameter count {want_expected}")
    if row.get("actual") != want_actual:
        out.append(f"{tag}: actual {row.get('actual')} != Alexander-Hirschowitz {want_actual}")
    if row.get("delta") != want_expected - want_actual:
        out.append(f"{tag}: delta {row.get('delta')} != {want_expected - want_actual}")
    if (row.get("delta", 0) > 0) != ah_defective(n, d, k):
        out.append(f"{tag}: defectivity disagrees with the classification")
    if d == 2 and k + 1 <= n and row.get("actual") != symmetric_rank_dim(n, k):
        out.append(f"{tag}: actual {row.get('actual')} != symmetric rank {symmetric_rank_dim(n, k)}")
    return out


# ---------------------------------------------------------------------------
# fiber-enum
# ---------------------------------------------------------------------------


def check_fiber_report(name: str, k: int, report: dict) -> list[str]:
    """A ``terracini fiber-probe`` report for one built-in at one k."""
    tag = f"fiber-probe {name} k={k}"
    out = []
    variety = report.get("variety", {})
    if variety.get("dim") != member_dim(name):
        out.append(f"{tag}: dim {variety.get('dim')} != {member_dim(name)}")
    rows = [r for r in report.get("per_k", []) if r.get("k") == k]
    if len(rows) != 1:
        return out + [f"{tag}: expected one per_k row, got {len(rows)}"]
    row = rows[0]
    finite = projection_finite(name, k)
    verdict = row.get("verdict")
    if finite is not None and (verdict == VERDICT_NOT_FINITE) == finite:
        out.append(f"{tag}: verdict {verdict} but generically finite is {finite}")
    if verdict == VERDICT_NOT_FINITE:
        return out
    fun = row.get("functoriality", {})
    if finite is not None and fun.get("generically_finite") != finite:
        out.append(f"{tag}: functoriality says generically_finite={fun.get('generically_finite')}")
    if not fun.get("span_consistent"):
        out.append(f"{tag}: pushed tangent frames do not span the image frames")
    if any(r != member_dim(name) + 1 for r in fun.get("frame_ranks", [])) or not fun.get("frame_ranks"):
        out.append(f"{tag}: frame ranks {fun.get('frame_ranks')} != dim + 1")
    cards = row.get("cardinalities", {})
    if sorted(cards) != sorted(str(p) for p in FIBER_PRIMES):
        out.append(f"{tag}: primes probed {sorted(cards)}")
    counts = [c for cs in cards.values() for c in cs]
    if not counts:
        return out + [f"{tag}: no fiber counts"]
    if name == "counter1":
        degree = PINNED["counter1"]["degree"]
        if not all(1 <= c <= degree for c in counts):
            out.append(f"{tag}: counts {counts} outside [1, {degree}]")
        if row.get("consensus_d") is not None and row.get("consensus_d") != degree:
            out.append(f"{tag}: consensus_d {row.get('consensus_d')} != {degree}")
        if verdict == VERDICT_BIRATIONAL:
            out.append(f"{tag}: a degree-{degree} projection graded birational")
    elif name.startswith("veronese"):
        if any(c != 1 for c in counts):
            out.append(f"{tag}: counts {counts} on a birational projection")
        if verdict != VERDICT_BIRATIONAL or row.get("consensus_d") != 1:
            out.append(f"{tag}: verdict {verdict}, consensus {row.get('consensus_d')}")
    return out


# ---------------------------------------------------------------------------
# paper-suite criteria
# ---------------------------------------------------------------------------


def _first_defective(name: str) -> tuple[int | None, int | None]:
    """(first defective k <= SUITE_KMAX, its delta), stopping once the secant
    fills the span; (None, None) for a nowhere-defective member."""
    for k in range(1, SUITE_KMAX + 1):
        parts = name.split("-")
        if parts[0] == "veronese":
            n, d = int(parts[1]), int(parts[2])
            span, actual = veronese_span(n, d), ah_secant_dim(n, d, k)
            expected = parameter_count(n, d, k)
        else:
            d = int(parts[1])
            span, actual, expected = d, min(d, 2 * k + 1), min(d, 2 * k + 1)
        if actual < expected:
            return k, expected - actual
        if actual == span:
            return None, None
    return None, None


def check_criterion(cid: int, passed: bool, details: dict) -> list[str]:
    out: list[str] = []
    if not passed:
        out.append(f"criterion {cid}: did not pass: {details}")

    def e(what: str, got, want) -> None:
        if got != want:
            out.append(f"criterion {cid}: {what} {got!r} != {want!r}")

    if cid == 1:
        e("secant_dim", details.get("secant_dim"), ah_secant_dim(2, 2, 1))
        e("expected_dim", details.get("expected_dim"), parameter_count(2, 2, 1))
        e("delta", details.get("delta"), parameter_count(2, 2, 1) - ah_secant_dim(2, 2, 1))
    elif cid == 2:
        # the contact locus of v_2(P^2) at two points is the conic through them
        e("nu", details.get("nu"), 1)
        e("delta", details.get("delta"), 1)
        finite = projection_finite("veronese-2-2", 1)
        e("projection finite", details.get("projection") != VERDICT_NOT_FINITE, finite)
    elif cid == 3:
        e("delta_1", details.get("delta_1"), parameter_count(2, 3, 1) - ah_secant_dim(2, 3, 1))
        e("delta_2", details.get("delta_2"), parameter_count(2, 3, 2) - ah_secant_dim(2, 3, 2))
        e("nu_1", details.get("nu_1"), 0)
        e("fiber_verdict", details.get("fiber_verdict"), VERDICT_BIRATIONAL)
        counts = [c for cs in details.get("cardinalities", {}).values() for c in cs]
        e("fiber counts all one", bool(counts) and all(c == 1 for c in counts), True)
    elif cid == 4:
        curves = details.get("curves", {})
        e("curves", sorted(curves), sorted(f"rnc-{d}" for d in range(3, 10)))
        for name, rows in curves.items():
            d = int(name.split("-")[1])
            e(f"{name} k range", sorted(rows, key=int), [str(k) for k in range(1, (d - 1) // 2 + 1)])
            for k, row in rows.items():
                want = min(d, 2 * int(k) + 1)
                e(f"{name} k={k} dim", row.get("dim"), want)
                e(f"{name} k={k} dim_alt_prime", row.get("dim_alt_prime"), want)
                e(f"{name} k={k} delta", row.get("delta"), 0)
    elif cid == 5:
        pin = PINNED["counter1"]
        e("delta_1", details.get("delta_1"), pin["delta"][1])
        nu = details.get("nu_1")
        e("nu_1 >= 1", isinstance(nu, int) and nu >= pin["nu_min"][1], True)
        e("fiber_verdict", details.get("fiber_verdict"), VERDICT_NON_BIRATIONAL)
        e("consensus_d", details.get("consensus_d"), pin["degree"])
        counts = [c for cs in details.get("cardinalities", {}).values() for c in cs]
        e("counts in [1, 3]", bool(counts) and all(1 <= c <= pin["degree"] for c in counts), True)
    elif cid == 6:
        pin = PINNED["counter2"]
        e("delta_1", details.get("delta_1"), pin["delta"][1])
        e("delta_2", details.get("delta_2"), pin["delta"][2])
        e("nu_2", details.get("nu_2"), pin["nu"][2])
        e("delta tower", details.get("delta_tower"), {"delta_k": pin["delta"][2], "projected": pin["delta"][2]})
        e("nu tower", details.get("nu_tower"), {"nu_k": pin["nu"][2], "projected": pin["nu"][2]})
    elif cid == 7:
        pin = PINNED["counter3-n3"]
        e("delta_1", details.get("delta_1"), pin["delta"][1])
        e("nu_1", details.get("nu_1"), pin["nu"][1])
    elif cid == 8:
        members = details.get("members", {})
        for name, row in members.items():
            if not row.get("holds"):
                out.append(f"criterion 8: nu >= delta fails on {name}")
            if name in PINNED:
                pin = PINNED[name]
                first = min((k for k, v in pin["delta"].items() if v > 0), default=None)
                if first is None:
                    e(f"{name} not defective at k=1", row.get("min_defective_k") != 1, True)
                    continue
                e(f"{name} min_defective_k", row.get("min_defective_k"), first)
                e(f"{name} delta", row.get("delta"), pin["delta"][first])
                if first in pin.get("nu", {}):
                    e(f"{name} nu", row.get("nu"), pin["nu"][first])
            else:
                k, delta = _first_defective(name)
                e(f"{name} min_defective_k", row.get("min_defective_k"), k)
                e(f"{name} delta", row.get("delta"), delta)
        e("members", len(members), 8)
    elif cid == 9:
        pin = PINNED["counter3-n3"]
        e("delta_before", details.get("delta_before"), pin["delta"][1])
        e("nu_before", details.get("nu_before"), pin["nu"][1])
        # a general hyperplane cut lowers both by one
        e("delta_after", details.get("delta_after"), pin["delta"][1] - 1)
        e("nu_after", details.get("nu_after"), pin["nu"][1] - 1)
    elif cid == 10:
        checks = details.get("checks", [])
        e("count", details.get("count"), len(checks))
        e("at least five checks", len(checks) >= 5, True)
        for row in checks:
            name = row.get("member")
            e(f"{name} k={row.get('k')} span_consistent", row.get("span_consistent"), True)
            want = member_dim(name) + 1
            e(f"{name} k={row.get('k')} frame ranks", set(row.get("frame_ranks", [])), {want})
    elif cid == 11:
        dims = details.get("dims", {})
        e("agree", details.get("cross_prime_dims_agree"), True)
        e("members", sorted(dims), sorted(SUITE_MEMBERS))
        for name, by_prime in dims.items():
            e(f"{name} primes", sorted(by_prime), sorted(str(p) for p in ANALYSIS_PRIMES))
            for prime, got in by_prime.items():
                want = [member_secant_dim(name, k) for k in range(3)]
                # entries the mathematics leaves open must still agree across primes
                if len(got) == len(want):
                    want = [g if w is None else w for w, g in zip(want, got)]
                e(f"{name} at {prime}", got, want)
            e(f"{name} primes agree", len({json.dumps(v) for v in by_prime.values()}), 1)
    else:
        out.append(f"criterion {cid}: no oracle")
    return out
