"""Batch experiment and verification driver.

Two subcommands:

  tasim simulate --object {sifter,snapshot,tas_det,tas_rand,wrapped} ...
      runs seeded trials of one object, checks its invariants per trial,
      and emits one JSON line per trial:
      {"checker": "ok"|reason, "loses": int, "max_steps": int,
       "seed": int, "wins": int}
      Exit code 0 iff every trial's checks pass, 1 on any violation,
      2 on an invalid invocation, such as a --n, --trials, --burst, --b
      or --n-list entry that is not a positive integer, a --b for an
      object other than wrapped, a --burst without --schedule solo, or
      an --out or --trace path that cannot be opened for writing (both
      are opened before the first trial runs).

  tasim sweep --object {tas_det,tas_rand} --n-list 16,64,256 ...
      runs the same trials as simulate (--schedule random) per n and emits
      a CSV table:
      n,register_count,mean_steps,p99_steps,backstop_fraction
      Steps are per process and in the trial's own unit: snapshot
      operations (plus doorway accesses) for tas_det, register steps for
      tas_rand; p99_steps is their nearest-rank 99th percentile.

Determinism contract: the same command line with the same --seed produces
byte-identical output.  The rr and solo schedules do not depend on the
seed, and sifter and tas_det trials draw nothing else from it, so under
--schedule rr or solo their K trials repeat one execution and their lines
differ only in "seed".  SEED and OUT environment variables supply defaults
for --seed/--out; explicit flags win, and a SEED that is not an integer
exits 2 unless --seed is given.

Objects: `TRIALS` maps each object name to `trial(n, args, seed,
record=False) -> Trial`, which reads args.schedule, args.burst and args.b
where it needs them; with `record` set, Trial.trace holds register
accesses, and --trace exports trial 0's.

Granularity: sifter and tas_det trials run at snapshot-op granularity for
throughput (their step budgets are stated in object operations, and the
obstruction-free TAS at register level under a uniform schedule needs
millions of steps to finish already at n=8), and after the schedule each
process drains within its object's solo bound, S_MAX or
`tas_det.solo_op_bound(n)` ops, or the run stops with drain's
RuntimeError.  snapshot, tas_rand, and wrapped trials are always
register-level and trace their own accesses; a sifter or tas_det trial
makes none, so its trace re-runs its schedule kind and seed at register
level.  --trace writes one access per JSON line.  tas_rand and wrapped
require --schedule random: their guarantees are against randomized
scheduling, sampled step by step over unfinished processes (distributionally
exact for an oblivious uniform schedule, skipping only no-op slots).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from contextlib import ExitStack
from typing import NamedTuple

from . import tas_det
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
from .sifter import LOSE, S_MAX, WIN, sifter_machines, sifter_store, sifter_system
from .snapshot import BoundedSnapshot, ops_program
from .tas_rand import RandTas, layout
from .verify import SearchBudgetExceeded, check_linearizable, check_tas, SnapshotSequential

REGISTER_SOLO_BOUND = 100_000  # drain allowance per machine in register re-runs
LIVE_CAP = 50_000_000  # absolute step cap for randomized runs
SOLO_BURST = 8  # solo-burst length when --schedule solo is given no --burst


class Trial(NamedTuple):
    """One trial's report; simulate prints the first four fields."""

    wins: int
    loses: int
    max_steps: int
    checker: str
    steps: tuple = ()  # per process
    backstop: bool = False  # tas_rand: some process reached the backstop
    trace: tuple = ()  # register accesses, when the trial recorded them


# ---------------------------------------------------------------------------
# per-object trials, one signature (see TRIALS)


def _scheduled(machines, memory, per_process, bound, args, seed, history=None):
    """Run `per_process` slots per process of `args.schedule`, then drain."""
    n = len(machines)
    burst = (args.burst or SOLO_BURST) if args.schedule == "solo" else None
    seq = make_schedule(args.schedule, n, per_process * n, seed=seed, burst=burst)
    run(machines, memory, seq, history)
    drain(machines, memory, bound, history)


def _register_trace(system, n: int, args, seed: int) -> tuple:
    """Register accesses of a sifter or tas_det trial re-run at register level.

    Those trials run at snapshot-op granularity and make no register
    accesses, so the re-run lowers the same logic onto registers with
    `system` under the same schedule kind and seed (each snapshot op now
    takes many register steps, hence the longer schedule) and drains it.
    """
    machines, memory, _ = system(n)
    memory.record_trace = True
    _scheduled(machines, memory, 200, REGISTER_SOLO_BOUND, args, seed)
    return tuple(memory.trace)


def trial_sifter(n: int, args, seed: int, record: bool = False) -> Trial:
    machines = sifter_machines(range(n))
    _scheduled(machines, sifter_store(), 60, S_MAX, args, seed)
    wins = sum(1 for m in machines if m.result == WIN)
    loses = sum(1 for m in machines if m.result == LOSE)
    ok = 1 <= wins <= tas_det.f(n) and wins + loses == n
    checker = "ok" if ok else f"wins={wins} outside [1,{tas_det.f(n)}]"
    trace = _register_trace(sifter_system, n, args, seed) if record else ()
    return Trial(wins, loses, max(m.steps for m in machines), checker, trace=trace)


def trial_tas_det(n: int, args, seed: int, record: bool = False) -> Trial:
    machines = tas_det.tas_machines(n)
    h = History()
    _scheduled(machines, tas_det.tas_store(n), 40, tas_det.solo_op_bound(n), args, seed, h)
    trace = _register_trace(tas_det.tas_system, n, args, seed) if record else ()
    return _tas_report(machines, h, trace=trace)


def _tas_report(machines, h: History, backstop: bool = False, trace: tuple = ()) -> Trial:
    """Report what ran, capped or not; `check_tas` judges a finished run."""
    steps = tuple(m.steps for m in machines)
    results = [m.result for m in machines]
    if all(m.done for m in machines):
        v = check_tas(h)
        checker = "ok" if v.ok else v.reason
    else:
        checker = "step cap exceeded"
    return Trial(results.count(0), results.count(1), max(steps), checker, steps, backstop, trace)


def trial_snapshot(n: int, args, seed: int, record: bool = False) -> Trial:
    m_comp = 2
    snap = BoundedSnapshot(0, m_comp, n, value_bits=4)
    memory = snap.fresh_memory(record)
    rng = random.Random(f"snapscript:{seed}")
    machines = []
    for p in range(n):
        script = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:
                script.append(("update", rng.randrange(m_comp), rng.randrange(16)))
            else:
                script.append(("scan",))
        machines.append(StepMachine(p, ops_program(snap, p, script)))
    h = History()
    _scheduled(machines, memory, 30, 200, args, seed, h)
    try:
        ok = check_linearizable(h, SnapshotSequential(m_comp, 0))
        checker = "ok" if ok else "not linearizable"
    except SearchBudgetExceeded:
        checker = "unknown: search budget exceeded"
    return Trial(0, 0, max(m.steps for m in machines), checker, trace=tuple(memory.trace))


def _live(machines, memory, seed: int, record: bool, cap: int) -> History:
    """Run under the live-uniform schedule of `seed`, up to `cap` steps."""
    memory.record_trace = record
    h = History()
    run_live_uniform(machines, memory, random.Random(f"sched:{seed}"), cap, history=h)
    return h


def trial_tas_rand(n: int, args, seed: int, record: bool = False) -> Trial:
    rt = RandTas(n, seed=seed)
    memory = rt.memory()
    machines = rt.machines()
    h = _live(machines, memory, seed, record, LIVE_CAP)
    backstop = rt.entered[rt.backstop_index] > 0
    return _tas_report(machines, h, backstop, tuple(memory.trace))


def trial_wrapped(n: int, args, seed: int, record: bool = False) -> Trial:
    """Capped at 1000*n*n*b slots (LIVE_CAP at most): with b at the solo bound,
    finishing runs for n <= 8 took at most 12*n*b, and a b below it that
    never finishes stops in seconds."""
    b = tas_det.solo_step_bound(n) if args.b is None else args.b
    machines, memory, _ = wrapped_tas_system(n, b=b, seed=seed)
    h = _live(machines, memory, seed, record, min(LIVE_CAP, 1000 * n * n * b))
    return _tas_report(machines, h, trace=tuple(memory.trace))


# simulate's --object choices, in this order
TRIALS = {
    "sifter": trial_sifter,
    "snapshot": trial_snapshot,
    "tas_det": trial_tas_det,
    "tas_rand": trial_tas_rand,
    "wrapped": trial_wrapped,
}


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, out, trace_fp) -> int:
    trial = TRIALS[args.object]
    record = trace_fp is not None
    trials = [trial(args.n, args, args.seed + i, record and i == 0) for i in range(args.trials)]
    if record:
        export_trace_jsonl(trials[0].trace, trace_fp)
    lines = [json.dumps(dict(zip(Trial._fields[:4], tr), seed=args.seed + i), sort_keys=True)
             for i, tr in enumerate(trials)]
    out.write("\n".join(lines) + "\n")
    return 0 if all(tr[3] == "ok" for tr in trials) else 1


def _steps_percentile(xs: list, q: float) -> int:
    """Nearest-rank percentile: the ceil(q*len)-th smallest value."""
    ys = sorted(xs)
    return ys[max(0, math.ceil(q * len(ys)) - 1)]


def cmd_sweep(args, out, _trace_fp) -> int:  # sweep has no --trace
    rows = ["n,register_count,mean_steps,p99_steps,backstop_fraction"]
    all_ok = True
    trial = TRIALS[args.object]
    det = args.object == "tas_det"  # else tas_rand
    for n in args.n_list:
        regs = len(tas_det.tas_register_widths(n) if det else layout(n).widths)
        trials = [trial(n, args, args.seed + i) for i in range(args.trials)]
        all_ok = all_ok and all(tr.checker == "ok" for tr in trials)
        steps = [s for tr in trials for s in tr.steps]
        mean = sum(steps) / len(steps)
        backstop_hits = sum(tr.backstop for tr in trials)
        rows.append(
            f"{n},{regs},{mean:.2f},{_steps_percentile(steps, 0.99)},"
            f"{backstop_hits / args.trials:.4f}"
        )
    out.write("\n".join(rows) + "\n")
    return 0 if all_ok else 1


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {v}")
    return v


def _n_list(text: str) -> list[int]:
    ns = [_positive_int(x) for x in text.split(",") if x.strip()]
    if not ns:
        raise argparse.ArgumentTypeError("empty list")
    return ns


def build_parser() -> argparse.ArgumentParser:
    env_seed = os.environ.get("SEED", "0")  # converted by --seed's type
    env_out = os.environ.get("OUT", "-")
    p = argparse.ArgumentParser(
        prog="tasim",
        description="Seeded simulation and verification runs for the shared-register objects",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run trials of one object, one JSON line each")
    sim.add_argument("--object", required=True, choices=list(TRIALS))
    sim.add_argument("--n", type=_positive_int, default=4,
                     help="number of processes (default 4)")
    sim.add_argument("--trials", type=_positive_int, default=10,
                     help="trial count (default 10)")
    sim.add_argument("--seed", type=int, default=env_seed,
                     help="base seed; trial i uses seed+i (default $SEED or 0)")
    sim.add_argument("--schedule", choices=["rr", "random", "solo"], default="random",
                     help="scheduler kind (default random); rr and solo ignore the "
                          "seed, so sifter and tas_det trials repeat one execution")
    sim.add_argument("--burst", type=_positive_int, default=None,
                     help=f"solo-burst length, --schedule solo only (default {SOLO_BURST})")
    sim.add_argument("--b", type=_positive_int, default=None,
                     help="wrapped: block length (default: registered solo bound)")
    sim.add_argument("--out", default=env_out, help="output path or - (default $OUT or -)")
    sim.add_argument("--trace", default=None, metavar="PATH",
                     help="also export a register-level trace of trial 0 to PATH")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="per-n summary table as CSV")
    sw.add_argument("--object", required=True, choices=["tas_det", "tas_rand"])
    sw.add_argument("--n-list", type=_n_list, required=True,
                    help="comma-separated process counts")
    sw.add_argument("--trials", type=_positive_int, default=20,
                    help="trials per n (default 20)")
    sw.add_argument("--seed", type=int, default=env_seed)
    sw.add_argument("--out", default=env_out)
    sw.set_defaults(func=cmd_sweep, schedule="random")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.cmd == "simulate" and args.object in ("tas_rand", "wrapped")
            and args.schedule != "random"):
        parser.error(f"{args.object} supports only --schedule random")
    if args.cmd == "simulate" and args.b is not None and args.object != "wrapped":
        parser.error(f"--b sets the wrapped block length; {args.object} has no blocks")
    if args.cmd == "simulate" and args.burst is not None and args.schedule != "solo":
        parser.error(f"--burst sets the solo-burst length; --schedule {args.schedule} has no bursts")
    trace_path = getattr(args, "trace", None)
    with ExitStack() as stack:
        try:
            out = sys.stdout if args.out == "-" else stack.enter_context(open(args.out, "w"))
            trace_fp = stack.enter_context(open(trace_path, "w")) if trace_path else None
        except OSError as e:
            print(f"tasim: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
            return 2
        return args.func(args, out, trace_fp)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
