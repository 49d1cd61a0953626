"""tasim benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's fixed job once with tracing off and reports
the end-to-end metrics.  Host times are scaled to a reference speed measured
alongside the job (see clock.py).  --trace 1 runs the same job untraced and then
traced (spans plus counting wrappers) and reports the per-layer metrics;
`trace.overhead_s` is the difference of the two wall times.  The last line
of standard output is the JSON result; the lines before it are a readable
summary.  The library is imported from the checkout's `src/` directory, so
nothing needs installing; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from clock import Clock
from spans import NullTracer, Tracer, counting_scans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("shm", "atomic", "snapshot", "sifter", "tas_det", "randomized", "tas_rand", "verify")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 50)


def load_tasim() -> SimpleNamespace:
    """Import tasim afresh from the checkout's src/ (no cached modules)."""
    for name in [m for m in sys.modules if m == "tasim" or m.startswith("tasim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tasim")
    if Path(pkg.__file__).resolve().parent != SRC / "tasim":
        raise ImportError(f"tasim imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"tasim.{m}") for m in MODULES})


def fingerprint(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def recorded_fingerprint(workload: str, seed: int, seconds: int):
    """The digest recorded for this (workload, seed, seconds), if any."""
    table = json.loads((HERE / "fingerprints.json").read_text())
    if seed != table["seed"]:
        return None
    return table["digests"][workload].get(str(seconds))


def tail(xs: list) -> tuple[int, float]:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    ys = sorted(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * len(ys) / 100)
        if len(ys) - rank >= 10:
            return p, ys[rank - 1]
    return 100, ys[-1]


def nearest_rank(xs: list, p: float):
    ys = sorted(xs)
    return ys[max(0, math.ceil(p * len(ys) / 100) - 1)]


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Job:
    """One run of a workload's job: its outcome and its timing."""

    def __init__(self, workload: str, lib, inputs, tracer):
        job = WORKLOADS[workload][1]
        self.clock = Clock(tracer.span)
        with counting_scans(lib.snapshot.BoundedSnapshot, tracer.counts) \
                if tracer.enabled else contextlib.nullcontext():
            self.clock.probe()
            self.start = perf_counter()
            self.out = job(lib, inputs, tracer, self.clock)
            self.end = perf_counter()
            self.clock.probe()
        self.wall_s = self.clock.scaled(self.start, self.end)
        self.raw_wall_s = self.clock.scaled(self.start, self.end, scale=False)


def end_to_end(job: Job, setup_s: float) -> tuple[dict, str]:
    out = job.out
    trial_s = [job.clock.scaled(a, b) for a, b in out.trials]
    p, tail_s = tail(trial_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (job.wall_s, "s"),
        "trial_p50_ms": (nearest_rank(trial_s, 50) * 1e3, "ms"),
        "trial_p99_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_steps": (statistics.fmean(out.steps), "steps"),
        "p99_steps": (nearest_rank(out.steps, 99), "steps"),
        "registers": (out.registers, "count"),
        "widest_register_bits": (out.widest_register_bits, "bits"),
    }
    note = (f"trial_p99_ms is p{p} of {len(trial_s)} trials; steps over {len(out.steps)} calls;"
            f" raw wall {job.raw_wall_s:.3f} s")
    return metrics, note


def per_layer(job: Job, traced: Job, tracer) -> dict:
    c = traced.out.counts + tracer.counts
    scale = traced.wall_s / traced.raw_wall_s
    s = defaultdict(float, {name: t * scale for name, t in tracer.self_times().items()})
    tas_calls = c["tas_rand.calls"]
    scans = c["snapshot.scans"]
    return {
        "atomic.explore.s": (s["atomic.explore"], "s"),
        "atomic.explore.states": (c["atomic.explore.states"], "count"),
        "atomic.explore.states_per_s": (rate(c["atomic.explore.states"], s["atomic.explore"]), "1/s"),
        "atomic.interleave.s": (s["atomic.interleave"], "s"),
        "atomic.interleave.replays": (c["atomic.interleave.replays"], "count"),
        "atomic.interleave.nodes": (c["atomic.interleave.nodes"], "count"),
        "atomic.interleave.merge_ratio": (
            c["atomic.interleave.nodes"] / c["atomic.interleave.replays"]
            if c["atomic.interleave.replays"] else 0.0, "ratio"),
        "atomic.interleave.replay_steps": (c["atomic.interleave.replay_steps"], "steps"),
        "atomic.run_atomic.s": (s["atomic.run_atomic"], "s"),
        "atomic.run_atomic.ops": (c["atomic.run_atomic.ops"], "count"),
        "atomic.run_atomic.ops_per_s": (rate(c["atomic.run_atomic.ops"], s["atomic.run_atomic"]), "1/s"),
        "tas_det.build.s": (s["tas_det.build"], "s"),
        "shm.run_live_uniform.s": (s["shm.run_live_uniform"], "s"),
        "shm.register_steps": (c["shm.register_steps"], "steps"),
        "shm.register_steps_per_s": (rate(c["shm.register_steps"], s["shm.run_live_uniform"]), "1/s"),
        "snapshot.scans": (scans, "count"),
        "snapshot.scan_attempts": (c["snapshot.scan_attempts"], "count"),
        "snapshot.retry_ratio": ((c["snapshot.scan_attempts"] - scans) / scans if scans else 0.0, "ratio"),
        "randomized.flips": (c["randomized.flips"], "count"),
        "randomized.heads": (c["randomized.heads"], "count"),
        "tas_rand.setup.s": (s["tas_rand.setup"], "s"),
        "tas_rand.doorway_exit_fraction": (
            c["tas_rand.doorway_exits"] / tas_calls if tas_calls else 0.0, "ratio"),
        "tas_rand.backstop_fraction": (
            c["tas_rand.backstop_trials"] / c["tas_rand.trials"] if c["tas_rand.trials"] else 0.0,
            "ratio"),
        "tas_rand.le2_descents": (c["tas_rand.le2_descents"], "count"),
        "verify.check_tas.s": (s["verify.check_tas"], "s"),
        "verify.check_tas.per_s": (rate(c["verify.check_tas.calls"], s["verify.check_tas"]), "1/s"),
        "verify.linearizable.s": (s["verify.linearizable"], "s"),
        "verify.linearizable.calls": (c["verify.linearizable.calls"], "count"),
        "verify.linearizable.budget_exceeded": (c["verify.linearizable.budget_exceeded"], "count"),
        "trace.overhead_s": (traced.wall_s - job.wall_s, "s"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tasim" / "__init__.py").is_file():
        print(f"tasim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    make_inputs = WORKLOADS[args.workload][0]
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.probe()
        t0 = perf_counter()
        lib = load_tasim()
        inputs = make_inputs(random.Random(f"perfbench:{args.workload}:{args.seed}"), args.seconds)
        setups.append((t0, perf_counter()))
    clock.probe()
    setup_s = statistics.median(clock.scaled(a, b) for a, b in setups)

    job = Job(args.workload, lib, inputs, NullTracer())
    digest = fingerprint(job.out.records)
    checks = job.out.checks
    expected = recorded_fingerprint(args.workload, args.seed, args.seconds)
    if expected is not None:
        checks.check(digest == expected, f"fingerprint {digest} != recorded {expected}")

    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}",
             f"fingerprint {digest} (recorded: {expected or 'none for this seed/length'})"]
    if args.trace:
        tracer = Tracer()
        traced = Job(args.workload, lib, inputs, tracer)
        tc = traced.out.checks
        checks.check(fingerprint(traced.out.records) == digest, "traced run changed the execution")
        checks.add(tc.attempted, tc.failed, "traced run: " + "; ".join(tc.notes))
        metrics = per_layer(job, traced, tracer)
        lines.append(f"traced wall {traced.wall_s:.3f} s vs untraced {job.wall_s:.3f} s "
                     f"(raw {traced.raw_wall_s:.3f} s vs {job.raw_wall_s:.3f} s); "
                     f"{len(tracer.spans)} spans")
    else:
        metrics, note = end_to_end(job, setup_s)
        lines.append(note)
    lines.append(f"failed_fraction {checks.failed / max(1, checks.attempted)} "
                 f"({checks.failed} of {checks.attempted} checks)")
    lines += [f"FAILED: {n}" for n in checks.notes]
    lines += [f"{k} = {v} {u}" for k, (v, u) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
