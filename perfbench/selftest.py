"""Smoke test of the benchmark itself, at the one-second job size.

    python3 perfbench/selftest.py

Checks three things and exits non-zero if any fails:

1. every workload, traced and untraced, prints each metric named in
   BENCHMARK.json with its unit, passes its checks, and matches the
   fingerprint recorded for seed 1;
2. a perturbed outcome changes the fingerprint, so the check trips;
3. the tier-1 test run (`pytest` from the repository root) collects nothing
   from this directory, so the benchmark adds nothing to its wall time.

It is deliberately not named test_*.py.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, SECONDS = 1, 1


def result_of(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(spec: dict) -> list[str]:
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(w["name"], trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: {res['failed']} of {res['attempted']} checks failed")
    return problems


def check_perturbation() -> list[str]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    from spans import NullTracer
    from workloads import WORKLOADS

    lib = run.load_tasim()
    inputs = WORKLOADS["rand_pipeline"][0](random.Random(f"perfbench:rand_pipeline:{SEED}"), SECONDS)
    out = run.Job("rand_pipeline", lib, inputs, NullTracer()).out
    recorded = run.recorded_fingerprint("rand_pipeline", SEED, SECONDS)
    if run.fingerprint(out.records) != recorded:
        return ["rand_pipeline: in-process fingerprint differs from the recorded one"]
    out.records[0][-1][0] += 1  # one process took one more step
    if run.fingerprint(out.records) == recorded:
        return ["a perturbed step count left the fingerprint unchanged"]
    return []


def check_not_collected() -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    hits = [line for line in proc.stdout.splitlines() if HERE.name in line]
    return [f"tier-1 collects benchmark files: {hits[:3]}"] if hits else []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_outputs(spec) + check_perturbation() + check_not_collected()
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
