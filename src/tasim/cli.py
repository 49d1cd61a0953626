"""Batch experiment and verification driver.

Two subcommands:

  tasim simulate --object {sifter,snapshot,tas_det,tas_rand,wrapped} ...
      runs seeded trials of one object, checks its invariants per trial,
      and emits one JSON line per trial:
      {"checker": "ok"|reason, "loses": int, "max_steps": int,
       "seed": int, "wins": int}
      Exit code 0 iff every trial's checks pass, 1 on any violation,
      2 on an invalid invocation.

  tasim sweep --object {tas_det,tas_rand} --n-list 16,64,256 ...
      runs the same trials as simulate (--schedule random) per n and emits
      a CSV table:
      n,register_count,mean_steps,p99_steps,backstop_fraction
      Steps are per process and in the trial's own unit: snapshot
      operations (plus doorway accesses) for tas_det, register steps for
      tas_rand.

Determinism contract: the same command line with the same --seed produces
byte-identical output.  SEED and OUT environment variables supply defaults
for --seed/--out; explicit flags win.

Granularity: sifter and tas_det trials run at snapshot-op granularity for
throughput (their step budgets are stated in object operations, and the
obstruction-free TAS at register level under a uniform schedule needs
millions of steps to finish already at n=8); --trace re-runs trial 0 at
register level and exports the full access trace as JSON lines, one
register access per line.  snapshot, tas_rand, and wrapped trials are
always register-level.  tas_rand and wrapped require --schedule random:
their guarantees are against randomized scheduling, sampled step by step
over unfinished processes (distributionally exact for an oblivious uniform
schedule, skipping only no-op slots).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import NamedTuple, Optional

from . import tas_det
from .atomic import run_atomic
from .randomized import wrapped_tas_system
from .shm import (
    History,
    StepMachine,
    drain,
    export_trace_jsonl,
    make_schedule,
    run,
    run_live_uniform,
)
from .sifter import LOSE, WIN, sifter_machines, sifter_store, sifter_system
from .snapshot import BoundedSnapshot, ops_program
from .tas_rand import RandTas
from .verify import SearchBudgetExceeded, check_linearizable, check_tas, SnapshotSequential

ATOMIC_SOLO_BOUND = 4000  # drain allowance per machine, object ops
REGISTER_SOLO_BOUND = 100_000  # drain allowance per machine in --trace re-runs
LIVE_CAP = 50_000_000  # absolute step cap for randomized runs


class Trial(NamedTuple):
    """One trial's report; simulate prints the first four fields."""

    wins: int
    loses: int
    max_steps: int
    checker: str
    steps: tuple = ()  # per process
    backstop: bool = False  # tas_rand: some process reached the backstop


def _schedule_seq(kind: str, n: int, length: int, seed: int, burst: int):
    return make_schedule(kind, n, length, seed=seed, burst=burst).seq


# ---------------------------------------------------------------------------
# per-object trials; each returns a Trial


def trial_sifter(n: int, kind: str, burst: int, seed: int):
    store = sifter_store()
    machines = sifter_machines(range(n))
    seq = _schedule_seq(kind, n, 60 * n, seed, burst)
    h, t = run_atomic(machines, store, seq)
    drain(machines, store, ATOMIC_SOLO_BOUND, h, t, runner=run_atomic)
    wins = sum(1 for m in machines if m.result == WIN)
    loses = sum(1 for m in machines if m.result == LOSE)
    ok = 1 <= wins <= tas_det.f(n) and wins + loses == n
    checker = "ok" if ok else f"wins={wins} outside [1,{tas_det.f(n)}]"
    return Trial(wins, loses, max(m.steps for m in machines), checker)


def trial_tas_det(n: int, kind: str, burst: int, seed: int):
    store = tas_det.tas_store(n)
    machines = tas_det.tas_machines(n)
    seq = _schedule_seq(kind, n, 40 * n, seed, burst)
    h, t = run_atomic(machines, store, seq)
    drain(machines, store, ATOMIC_SOLO_BOUND, h, t, runner=run_atomic)
    return _tas_report(machines, h)


def _tas_report(machines, h: History, backstop: bool = False) -> Trial:
    wins = sum(1 for m in machines if m.result == 0)
    loses = sum(1 for m in machines if m.result == 1)
    steps = tuple(m.steps for m in machines)
    if wins != 1:
        checker = f"{wins} processes returned 0"
    else:
        v = check_tas(h)
        checker = "ok" if v.ok else (v.reason or "violation")
    return Trial(wins, loses, max(steps), checker, steps, backstop)


def trial_snapshot(n: int, kind: str, burst: int, seed: int):
    m_comp = 2
    snap = BoundedSnapshot(0, m_comp, n, value_bits=4)
    memory = snap.fresh_memory()
    rng = random.Random(f"snapscript:{seed}")
    machines = []
    for p in range(n):
        script = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:
                script.append(("update", rng.randrange(m_comp), rng.randrange(16)))
            else:
                script.append(("scan",))
        machines.append(
            StepMachine(p, ops_program(snap, p, script), auto_history=False)
        )
    h, t = run(machines, memory, _schedule_seq(kind, n, 30 * n, seed, burst))
    h, _ = drain(machines, memory, 200, h, t)
    try:
        ok = check_linearizable(h, SnapshotSequential(m_comp, 0))
        checker = "ok" if ok else "not linearizable"
    except SearchBudgetExceeded:
        checker = "unknown: search budget exceeded"
    return Trial(0, 0, max(m.steps for m in machines), checker)


def trial_tas_rand(n: int, seed: int, beta: int):
    rt = RandTas(n, beta=beta, seed=seed)
    memory = rt.memory()
    machines = rt.machines()
    h = History()
    rng = random.Random(f"sched:{seed}")
    run_live_uniform(machines, memory, rng, LIVE_CAP, history=h)
    backstop = rt.entered[rt.backstop_index] > 0
    if not all(m.done for m in machines):
        steps = tuple(m.steps for m in machines)
        return Trial(0, 0, 0, "step cap exceeded", steps, backstop)
    return _tas_report(machines, h, backstop)


def trial_wrapped(n: int, seed: int, b: Optional[int]):
    machines, memory, _ = wrapped_tas_system(n, b=b, seed=seed)
    h = History()
    rng = random.Random(f"sched:{seed}")
    run_live_uniform(machines, memory, rng, LIVE_CAP, history=h)
    if not all(m.done for m in machines):
        return Trial(0, 0, 0, "step cap exceeded")
    return _tas_report(machines, h)


def _trace_trial(obj: str, n: int, kind: str, burst: int, seed: int, beta: int, b, path: str):
    """Re-run trial 0 at register level with tracing and export it."""
    if obj in ("sifter", "tas_det"):
        system = sifter_system if obj == "sifter" else tas_det.tas_system
        machines, memory, _, _ = system(n, record_trace=True)
        _, t = run(machines, memory, _schedule_seq(kind, n, 200 * n, seed, burst), record=False)
        drain(machines, memory, REGISTER_SOLO_BOUND, t=t)
    elif obj == "snapshot":
        snap = BoundedSnapshot(0, 2, n, value_bits=4)
        memory = snap.fresh_memory(record_trace=True)
        rng = random.Random(f"snapscript:{seed}")
        machines = []
        for p in range(n):
            script = [("update", rng.randrange(2), rng.randrange(16)), ("scan",)]
            machines.append(StepMachine(p, ops_program(snap, p, script), auto_history=False))
        _, t = run(machines, memory, _schedule_seq(kind, n, 30 * n, seed, burst), record=False)
        drain(machines, memory, REGISTER_SOLO_BOUND, t=t)
    elif obj == "tas_rand":
        rt = RandTas(n, beta=beta, seed=seed)
        memory = rt.memory(record_trace=True)
        machines = rt.machines()
        run_live_uniform(machines, memory, random.Random(f"sched:{seed}"), LIVE_CAP)
    elif obj == "wrapped":
        machines, memory, _ = wrapped_tas_system(n, b=b, seed=seed)
        memory.record_trace = True
        run_live_uniform(machines, memory, random.Random(f"sched:{seed}"), LIVE_CAP)
    else:  # pragma: no cover
        raise ValueError(obj)
    with open(path, "w") as fp:
        export_trace_jsonl(memory.trace, fp)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    if args.object in ("tas_rand", "wrapped") and args.schedule != "random":
        print(f"{args.object} supports only --schedule random", file=sys.stderr)
        return 2
    lines = []
    all_ok = True
    for trial in range(args.trials):
        trial_seed = args.seed + trial
        if args.object == "sifter":
            tr = trial_sifter(args.n, args.schedule, args.burst, trial_seed)
        elif args.object == "tas_det":
            tr = trial_tas_det(args.n, args.schedule, args.burst, trial_seed)
        elif args.object == "snapshot":
            tr = trial_snapshot(args.n, args.schedule, args.burst, trial_seed)
        elif args.object == "tas_rand":
            tr = trial_tas_rand(args.n, trial_seed, args.beta)
        elif args.object == "wrapped":
            tr = trial_wrapped(args.n, trial_seed, args.b)
        else:  # pragma: no cover - argparse choices guard this
            return 2
        w, l, s, checker = tr[:4]
        all_ok = all_ok and checker == "ok"
        lines.append(
            json.dumps(
                {"seed": trial_seed, "wins": w, "loses": l, "max_steps": s, "checker": checker},
                sort_keys=True,
            )
        )
    if args.trace:
        _trace_trial(
            args.object, args.n, args.schedule, args.burst, args.seed, args.beta,
            args.b, args.trace,
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def _steps_percentile(xs: list, q: float) -> int:
    ys = sorted(xs)
    idx = min(len(ys) - 1, max(0, int(q * len(ys)) - 1))
    return ys[idx]


def cmd_sweep(args) -> int:
    ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not ns:
        print("empty --n-list", file=sys.stderr)
        return 2
    rows = ["n,register_count,mean_steps,p99_steps,backstop_fraction"]
    all_ok = True
    for n in ns:
        if args.object == "tas_det":
            regs = tas_det.register_count(n)
            trials = [trial_tas_det(n, "random", 1, args.seed + i) for i in range(args.trials)]
        else:  # tas_rand
            regs = RandTas(n, beta=args.beta, seed=0).register_count
            trials = [trial_tas_rand(n, args.seed + i, args.beta) for i in range(args.trials)]
        all_ok = all_ok and all(tr.checker == "ok" for tr in trials)
        steps = [s for tr in trials for s in tr.steps]
        mean = sum(steps) / len(steps)
        backstop_hits = sum(tr.backstop for tr in trials)
        rows.append(
            f"{n},{regs},{mean:.2f},{_steps_percentile(steps, 0.99)},"
            f"{backstop_hits / args.trials:.4f}"
        )
    _emit(args.out, "\n".join(rows) + "\n")
    return 0 if all_ok else 1


def _emit(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fp:
            fp.write(text)


def build_parser() -> argparse.ArgumentParser:
    env_seed = int(os.environ.get("SEED", "0"))
    env_out = os.environ.get("OUT", "-")
    p = argparse.ArgumentParser(
        prog="tasim",
        description="Seeded simulation and verification runs for the shared-register objects",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run trials of one object, one JSON line each")
    sim.add_argument("--object", required=True,
                     choices=["sifter", "snapshot", "tas_det", "tas_rand", "wrapped"])
    sim.add_argument("--n", type=int, default=4, help="number of processes (default 4)")
    sim.add_argument("--trials", type=int, default=10, help="trial count (default 10)")
    sim.add_argument("--seed", type=int, default=env_seed,
                     help="base seed; trial i uses seed+i (default $SEED or 0)")
    sim.add_argument("--schedule", choices=["rr", "random", "solo"], default="random",
                     help="scheduler kind (default random)")
    sim.add_argument("--burst", type=int, default=8, help="solo-burst length (default 8)")
    sim.add_argument("--b", type=int, default=None,
                     help="wrapped: block length (default: registered solo bound)")
    sim.add_argument("--beta", type=int, default=16,
                     help="tas_rand: pipeline width constant (default 16)")
    sim.add_argument("--out", default=env_out, help="output path or - (default $OUT or -)")
    sim.add_argument("--trace", default=None, metavar="PATH",
                     help="also export a register-level trace of trial 0 to PATH")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="per-n summary table as CSV")
    sw.add_argument("--object", required=True, choices=["tas_det", "tas_rand"])
    sw.add_argument("--n-list", required=True, help="comma-separated process counts")
    sw.add_argument("--trials", type=int, default=20, help="trials per n (default 20)")
    sw.add_argument("--seed", type=int, default=env_seed)
    sw.add_argument("--beta", type=int, default=16)
    sw.add_argument("--out", default=env_out)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
