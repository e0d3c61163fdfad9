#!/usr/bin/env python3
"""Benchmark for the terracini package: three workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there and is never modified.  Workloads (see README.md):

* ``paper-suite``     criteria 1-4 and 6-10 of ``terracini paper-suite --seed N``,
                      and the cross-prime dimensions of criterion 11;
* ``veronese-sweep``  ``defect(veronese(n, d), k)`` over Alexander-Hirschowitz cases;
* ``fiber-enum``      ``terracini fiber-probe`` at k=1 on two built-ins.

A run sets the workload up, then repeats whole rounds of its operations
while the next round should end within ``--seconds`` (at least one round),
checking every output against ``oracles.py``.  After a single round it runs
that round's slowest operation once more, so that ``max_case_s`` always
rests on two timings.  Every end-to-end time is corrected for the
machine's speed while it was taken (see ``SpeedProbe``).  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it runs one untraced
and one traced round, checks that their report bytes agree, and reports the
per-layer metrics, uncorrected.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 correct, 1 a check failed, 2 the package cannot be imported
from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

WORKLOADS = ("veronese-sweep", "fiber-enum", "paper-suite")
SETUP_SAMPLES = 7

# (n, d, k).  Defective: v_2(P^n) at every 1 <= k <= n-1 for n <= 7, its
# edge k = n-1 at n = 10, and the four sporadic cases.  Controls: their
# non-defective neighbours, curves, and v_2(P^14) at k = 14, the widest rank
# under AMBIENT_CAP (a 120 x 225 matrix).
SWEEP_CASES = (
    [(n, 2, k) for n in range(2, 8) for k in range(1, n)]
    + [(10, 2, 9)]
    + [(2, 4, 4), (3, 4, 8), (4, 3, 6), (4, 4, 13)]
    + [(2, 4, 3), (2, 4, 5), (3, 4, 7), (4, 3, 5), (4, 3, 7), (2, 3, 3), (3, 3, 4)]
    + [(1, 9, 4), (5, 2, 5), (14, 2, 14)]
)

# (built-in, k): a birational grid scan, and a projection that is not
# generically finite.  counter1 is left out: on a few seeds in a thousand
# its projection over a small prime fails with "unstable dimension" (see
# README)
FIBER_PROBES = (("veronese-2-4", 1), ("veronese-2-2", 1))

# The sandbox's speed drifts by 10-60% over seconds and minutes, in CPU time
# as much as in wall time, so raw timings of one seed spread past any bound.
# While it times, a run also times a fixed pure-Python kernel every TICK_S
# seconds (see SpeedProbe), and reports seconds at the speed at which that
# kernel takes REFERENCE_KERNEL_S.
TICK_S = 0.01
KERNEL_LOOPS = 2000
REFERENCE_KERNEL_S = 150e-6
MIN_TICKS = 8

CHART_KINDS = ("parametric", "implicit_plane_curve", "map_image", "cone", "section", "projection")
# 1-4, 6-10, and the cross-prime half of 11.  The other half of 11 reruns
# 1-10 and compares bytes, which would double a round of about 40 s, so the
# rounds' digest check and check.py stand in for it.  Criterion 5 is left
# out for the same fault as counter1 in FIBER_PROBES.
SUITE_CRITERIA = (1, 2, 3, 4, 6, 7, 8, 9, 10, 11)


# ---------------------------------------------------------------------------
# the package, imported from this checkout only
# ---------------------------------------------------------------------------


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import terracini
    import terracini.cli
    import terracini.suite

    origin = Path(terracini.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"terracini imported from {origin}, not from {src}")
    return terracini


# ---------------------------------------------------------------------------
# workloads: each builds a list of operations (label, call, check)
# ---------------------------------------------------------------------------


def paper_suite_ops(pkg, seed: int, workdir: Path) -> list[tuple]:
    suite = pkg.suite
    table = {cid: (title, fn) for cid, title, fn in suite._CRITERIA}
    table[11] = ("dimensions agree across analysis primes", suite._cross_prime_dims)

    def op(cid):
        title, fn = table[cid]

        def call():
            passed, details = fn(seed, False)
            if cid == 11:
                details = {"cross_prime_dims_agree": passed, "dims": details}
            result = suite.CriterionResult(cid=cid, title=title, passed=passed, details=details, elapsed=0.0)
            return suite.criterion_payload(result)

        def check(payload):
            return oracles.check_criterion(cid, payload["passed"], payload["details"])

        return (f"suite.crit{cid:02d}", call, check)

    return [op(cid) for cid in SUITE_CRITERIA]


def veronese_sweep_ops(pkg, seed: int, workdir: Path) -> list[tuple]:
    field = pkg.analysis_field()

    def op(n, d, k):
        def call():
            x = pkg.veronese(field, n, d)
            prof = pkg.defect(x, k, random.Random(f"veronese-sweep/{seed}/{n}/{d}/{k}"))
            return {"n": n, "d": d, "k": k, "actual": prof.actual, "expected": prof.expected, "delta": prof.delta}

        return (f"v_{d}(P^{n}) k={k}", call, lambda row: oracles.check_sweep_case(n, d, k, row))

    return [op(*case) for case in SWEEP_CASES]


def fiber_enum_ops(pkg, seed: int, workdir: Path) -> list[tuple]:
    workdir.mkdir(parents=True, exist_ok=True)

    def op(name, k):
        config = workdir / f"fiber-{name}-k{k}.json"
        config.write_text(json.dumps({"variety": name, "k_range": [k, k]}), encoding="utf-8")
        report = workdir / f"fiber-{name}-k{k}.report.json"
        argv = ["fiber-probe", "--config", str(config), "--seed", str(seed), "--out", str(report)]

        def call():
            report.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                code = pkg.cli.main(argv)
            return {"exit": code, "report": report.read_text(encoding="utf-8") if report.exists() else ""}

        def check(result):
            if result["exit"] != 0:
                return [f"fiber-probe {name}: exit code {result['exit']}"]
            return oracles.check_fiber_report(name, k, json.loads(result["report"]))

        return (f"fiber-probe {name} k={k}", call, check)

    return [op(name, k) for name, k in FIBER_PROBES]


WORKLOAD_OPS = {
    "paper-suite": paper_suite_ops,
    "veronese-sweep": veronese_sweep_ops,
    "fiber-enum": fiber_enum_ops,
}


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs; returns (ops, seconds)."""
    with SpeedProbe() as probe:
        mark = probe.mark()
        t0 = time.perf_counter()
        pkg = import_package()
        ops = WORKLOAD_OPS[workload](pkg, seed, workdir)
        elapsed = time.perf_counter() - t0
    return ops, probe.correct(elapsed, mark)


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """Set-up time of this process plus fresh processes that only set up."""
    samples = [first]
    for i in range(SETUP_SAMPLES - 1):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(i)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# machine-speed correction
# ---------------------------------------------------------------------------


def _kernel() -> int:
    total = 0
    for i in range(KERNEL_LOOPS):
        total += (i * i) % 7
    return total


class SpeedProbe:
    """Times ``_kernel`` every TICK_S seconds while it is entered.

    The kernel runs from a SIGALRM handler, which Python calls in the main
    thread between the package's own bytecodes, so each sample sees the
    speed the package sees at that moment.  ``correct`` turns a stretch's
    wall time into seconds at the reference speed: the time less the
    kernel's own, times REFERENCE_KERNEL_S over the kernel's harmonic-mean
    time in that stretch.  A stretch with fewer than MIN_TICKS samples uses
    the last MIN_TICKS; the probe takes that many on entry.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_TICKS):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def correct(self, elapsed: float, mark: int) -> float:
        ticks = self.samples[mark:]
        net = elapsed - sum(ticks)
        if len(ticks) < MIN_TICKS:
            ticks = self.samples[-MIN_TICKS:]
        return net * REFERENCE_KERNEL_S * statistics.fmean(1.0 / t for t in ticks)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Round:
    def __init__(self) -> None:
        self.times: list[float] = []  # corrected for speed when timed under a SpeedProbe
        self.results: list = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.times)

    def digest(self) -> str:
        blob = json.dumps(self.results, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def run_round(ops: list[tuple], tracer=None, probe: SpeedProbe | None = None) -> Round:
    rnd = Round()

    def spent(t0: float, mark: int) -> float:
        elapsed = time.perf_counter() - t0
        return probe.correct(elapsed, mark) if probe else elapsed

    for label, call, check in ops:
        mark = probe.mark() if probe else 0
        t0 = time.perf_counter()
        try:
            result = call() if tracer is None else tracer.call(label, call)
        except Exception:  # a crashed operation is a failed operation
            rnd.times.append(spent(t0, mark))
            rnd.failed += 1
            rnd.results.append(None)
            print(f"# {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        rnd.times.append(spent(t0, mark))
        rnd.results.append(result)
        rnd.problems.extend(check(result))
    return rnd


def consistency_problems(rounds: list[Round]) -> list[str]:
    """Every round of one seed, traced or not, must give the same report bytes."""
    digests = {r.digest() for r in rounds if not r.failed}
    if len(digests) > 1:
        return [f"rounds of one seed gave {len(digests)} different report digests"]
    return []


def slowest_twice(ops: list[tuple], rounds: list[Round],
                  probe: SpeedProbe | None = None) -> tuple[float, list[Round]]:
    """The first round's slowest operation, at the mean of two timings.

    The second timing comes from the next round or, when there is none, from
    running that operation once more, whose result must then equal the first
    round's.  Returns the time and any extra round."""
    i = max(range(len(ops)), key=rounds[0].times.__getitem__)
    if len(rounds) > 1:
        return statistics.fmean((rounds[0].times[i], rounds[1].times[i])), []
    extra = run_round([ops[i]], probe=probe)
    if extra.results != [rounds[0].results[i]]:
        extra.problems.append(f"{ops[i][0]}: a second run gave a different result")
    return statistics.fmean((rounds[0].times[i], extra.times[0])), [extra]


def end_to_end(rounds: list[Round], setup: list[float], max_case: float) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
        "max_case_s": {"value": max_case, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(tracer) -> dict:
    calls, self_s, total_s = tracer.layer_totals()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span in ("algebra.rank", "algebra.rref", "algebra.jet2_eval", "algebra.roots"):
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.self_s", self_s.get(span, 0.0), "s")
    put("algebra.rank.cells", counts["algebra.rank.cells"], "count")
    put("algebra.evaluate.calls", counts["algebra.evaluate"], "count")
    for kind in CHART_KINDS:
        span = f"varieties.chart_jet2.{kind}"
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.self_s", self_s.get(span, 0.0), "s")
    jets = counts["chart_jet2.calls"]
    put("varieties.chart_jet2.distinct_ratio", len(tracer.jet_keys) / jets if jets else 0.0, "ratio")
    put("varieties.chart_jet2.order2_ratio", counts["chart_jet2.order2"] / jets if jets else 0.0, "ratio")
    put("varieties.sample.calls", calls["varieties.sample"], "count")
    put("varieties.sample.self_s", self_s.get("varieties.sample", 0.0), "s")
    for span in ("secant.terracini_dim", "secant.tangential_projection", "contact.contact_corank"):
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.self_s", self_s.get(span, 0.0), "s")
    put("contact.nu_estimate.self_s", self_s.get("contact.nu_estimate", 0.0), "s")
    put("fiber.fiber_probe.self_s", self_s.get("fiber.fiber_probe", 0.0), "s")
    put("fiber.preimages", counts["fiber.preimages"], "count")
    put("fiber.center_hits", counts["fiber.center_hits"], "count")
    for cid in SUITE_CRITERIA:
        put(f"suite.crit{cid:02d}_s", total_s.get(f"suite.crit{cid:02d}", 0.0), "s")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="I", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("TERRACINI_THREADS", None)  # the program's default: one thread
    seed = args.seed % 2**63
    # reports echo their output path, so it is relative and free of run ids
    os.chdir(ROOT)
    workdir = OUT.relative_to(ROOT) / args.workload

    try:
        ops, first_setup = set_up(args.workload, seed, workdir)
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        print(first_setup)
        return 0

    if args.trace:
        from tracer import Tracer

        reference = run_round(ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(ops, tracer)
        finally:
            tracer.uninstall()
        rounds, extra = [reference, traced], []
        print(f"# trace: untraced round {reference.wall:.3f}s, traced round {traced.wall:.3f}s, "
              f"overhead {100 * (traced.wall / reference.wall - 1):+.1f}%")
        tracer.dump(OUT / f"trace-{args.workload}.jsonl")
        metrics = per_layer(tracer)
    else:
        setup = setup_samples(args.workload, seed, first_setup)
        with SpeedProbe() as probe:
            started = time.perf_counter()
            rounds = [run_round(ops, probe=probe)]
            # start another round only if, at the mean round's wall time so far,
            # it should end within --seconds
            while (time.perf_counter() - started) * (len(rounds) + 1) / len(rounds) <= args.seconds:
                rounds.append(run_round(ops, probe=probe))
            max_case, extra = slowest_twice(ops, rounds, probe)
        speed = statistics.harmonic_mean(probe.samples)
        print(f"# speed: kernel {1e6 * speed:.1f} us over {len(probe.samples)} samples, "
              f"reference {1e6 * REFERENCE_KERNEL_S:.1f} us", file=sys.stderr)
        metrics = end_to_end(rounds, setup, max_case)
        for i, (label, _, _) in enumerate(ops):
            median = statistics.median(r.times[i] for r in rounds)
            print(f"# {label}: {median:.3f}s median of {len(rounds)}", file=sys.stderr)

    problems = [p for r in rounds + extra for p in r.problems] + consistency_problems(rounds)
    for p in problems:
        print(f"# check failed: {p}", file=sys.stderr)
    print(f"# digest {args.workload} seed={seed} {rounds[0].digest()} rounds={len(rounds)}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.times) for r in rounds + extra),
        "failed": sum(r.failed for r in rounds + extra),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
