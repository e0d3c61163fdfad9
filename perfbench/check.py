#!/usr/bin/env python3
"""Determinism across runs, and a held-out seed, for every workload.

    python3 perfbench/check.py

Runs the self-test of the checks, then, for each workload, two separate
one-round runs at ``SEED`` that must print the same report digest, and one
run at the held-out seed ``HELD_OUT`` that must pass.  Every run must be
correct with no failed operation.  Takes about five minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1
HELD_OUT = 7


def one_run(workload: str, seed: int) -> tuple[str, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    digest = next((ln.split()[4] for ln in lines if ln.startswith("# digest ")), "")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if done.returncode != 0:
        result["stderr"] = done.stderr.strip()[-2000:]
    return digest, result


def main() -> int:
    failures = []
    if subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT).returncode != 0:
        failures.append("selftest: a check accepts a doctored result or rejects a correct one")
    for workload in run.WORKLOADS:
        runs = [(SEED, *one_run(workload, SEED)) for _ in range(2)]
        runs.append((HELD_OUT, *one_run(workload, HELD_OUT)))
        for seed, digest, result in runs:
            ok = result.get("correct") is True and result.get("failed") == 0
            print(f"{workload} seed={seed} digest={digest[:16]} correct={result.get('correct')} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            if not ok:
                failures.append(f"{workload} seed={seed}: {result}")
        if runs[0][1] != runs[1][1] or not runs[0][1]:
            failures.append(f"{workload}: two runs of seed {SEED} gave digests {runs[0][1]} and {runs[1][1]}")
    for line in failures:
        print(f"check: {line}", file=sys.stderr)
    print("check: " + ("FAILED" if failures else "all workloads deterministic and correct"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
