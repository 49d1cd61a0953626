"""The three benchmark workloads: inputs from a seed, a fixed job, checks.

Each workload is a closed loop with one caller and no arrival rate: one
single-threaded process calls the library's public functions directly.
`make_inputs(rng, seconds)` draws everything random up front, sized so the
job takes about `seconds` on a 2-CPU x86 box; `run(lib, inputs, tracer,
clock)` executes the job and returns an `Outcome`, calling `clock.tick()`
only between units of work so that no probe lands inside a trial.  Every check counts towards
`attempted`, every violated one towards `failed`; a job never stops at the
first failure, so the fraction is meaningful.

Why these three (see also README.md):

* exhaustive:    the two explorers, `atomic.explore` and
  `atomic.explore_interleavings`, with working sets from a few MB (n=2
  explores) to hundreds of MB (sifter BFS); `shm` replays short prefixes
  with a recorded trace.
* det_histories: `atomic.run_atomic`, the sifter/TAS decision logic and the
  checkers of `verify`, at snapshot-op granularity; almost no `shm`.
* rand_pipeline: `shm.run_live_uniform` driving long-lived register-level
  machines without a trace, through `randomized` and `tas_rand`; it never
  enters an explorer.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# criterion 3's snapshot script pairs (two processes, M=2 components)
SCRIPT_PAIRS = (
    (
        (("update", 0, 1), ("scan",), ("scan",)),
        (("scan",), ("update", 1, 2), ("scan",)),
    ),
    (
        (("scan",), ("scan",), ("scan",)),
        (("update", 0, 1), ("update", 0, 2), ("update", 1, 3)),
    ),
    (
        (("update", 0, 1), ("update", 0, 2), ("scan",)),
        (("update", 0, 3), ("scan",), ("update", 1, 4)),
    ),
)
WRAPPED_N = 4
WRAPPED_B = 1619  # criterion 7's block length at n=4: ceil(1.25 * 1295)
LIVE_CAP = 50_000_000  # step cap of a tas_rand trial, as in `tasim sweep`
# share of det_histories TAS trials left pending / with one corrupted response
PENDING_SHARE = 0.2
CORRUPT_SHARE = 0.15
# job sizes per second of run length, calibrated on a 2-CPU x86 box
SIFTER_STATES_PER_S = 5000
DET_ROUNDS_PER_S = 230  # a round is 7 TAS trials (n=2..8) + 5 sifter trials
RAND_GROUPS_PER_S = 6  # a group is 4 tas_rand n=16, 1 at n=1024, 1 wrapped


class Checks:
    """Tally of checks attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 5:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> bool:
        self.add(1, 0 if ok else 1, note)
        return ok


@dataclass
class Outcome:
    """What one job produced; `records` feed the fingerprint."""

    records: list = field(default_factory=list)
    trials: list = field(default_factory=list)  # (start, end) per trial
    steps: list = field(default_factory=list)
    registers: int = 0
    widest_register_bits: int = 0
    counts: Counter = field(default_factory=Counter)
    checks: Checks = field(default_factory=Checks)

    def layout(self, widths) -> None:
        self.registers = max(self.registers, len(widths))
        self.widest_register_bits = max(self.widest_register_bits, max(widths))


# ---------------------------------------------------------------------------
# exhaustive


def exhaustive_inputs(rng: random.Random, seconds: int) -> dict:
    # the explored objects are fixed, so the seed selects nothing here
    return {
        "budget": SIFTER_STATES_PER_S * seconds,
        "depth": min(24, 12 + seconds // 2),
        "pairs": SCRIPT_PAIRS,
    }


def exhaustive_run(lib, inp: dict, tr, clock) -> Outcome:
    out = Outcome()
    atomic, sifter, tas_det = lib.atomic, lib.sifter, lib.tas_det

    # sifter k=3 by BFS, cut off at a fixed state budget
    cap = tas_det.f(3)
    tally: Counter = Counter()
    bad = [0, 0]  # states visited, states violating the winner bounds

    def sifter_check(machines, store):
        clock.tick()
        bad[0] += 1
        wins = sum(1 for m in machines if m.done and m.result == sifter.WIN)
        if all(m.done for m in machines):
            tally[tuple(m.result for m in machines)] += 1
            bad[1] += not 1 <= wins <= cap
        else:
            bad[1] += wins > cap

    try:
        with tr.span("atomic.explore"):
            _, states = atomic.explore(
                lambda: (sifter.sifter_machines(range(3)), sifter.sifter_store()),
                sifter_check,
                max_states=inp["budget"],
            )
    except RuntimeError:  # the expected cut-off at the budget
        states = inp["budget"]
    out.checks.add(bad[0], bad[1], "sifter k=3: winner bound violated")
    out.counts["atomic.explore.states"] += states
    out.records.append(["sifter3", states, bad[0], sorted(tally.items())])
    out.layout(sifter.sifter_snapshot(3).register_widths())

    # full explores of the n=2 test-and-set and weak leader election
    systems = (
        ("tas2", tas_det.tas_machines, tas_det.tas_store, 0),
        ("wle2", tas_det.wle_machines, tas_det.wle_store, sifter.WIN),
    )
    for name, machines_of, store_of, winner in systems:
        def make(machines_of=machines_of, store_of=store_of):
            with tr.span("tas_det.build"):
                return machines_of(2), store_of(2)

        try:
            with tr.span("atomic.explore"):
                terminals, states = atomic.explore(make)
        except RuntimeError as e:
            out.checks.check(False, f"{name}: {e}")
            continue
        for res, count in terminals.items():
            out.checks.add(count, 0 if res.count(winner) == 1 else count,
                           f"{name}: terminal {res} has no single winner")
        out.counts["atomic.explore.states"] += states
        out.records.append([name, states, sorted(terminals.items())])
    out.layout(lib.tas_det.tas_register_widths(2))

    # register-level interleavings of the snapshot script pairs
    spec = lib.verify.SnapshotSequential(2, 0)
    for script_p, script_q in inp["pairs"]:
        # a trial is one replay: from this make() call to the next one
        last = []  # [start time, memory] of the replay in progress
        seen = Counter()

        def close_replay():
            if last:
                out.trials.append((last[0], perf_counter()))
                out.steps.append(len(last[1].trace))

        def make(script_p=script_p, script_q=script_q):
            close_replay()
            clock.tick()
            start = perf_counter()
            snap = lib.snapshot.BoundedSnapshot(0, 2, n=2, value_bits=4)
            memory = snap.fresh_memory(record_trace=True)
            machines = [
                lib.shm.StepMachine(0, lib.snapshot.ops_program(snap, 0, script_p),
                                    auto_history=False),
                lib.shm.StepMachine(1, lib.snapshot.ops_program(snap, 1, script_q),
                                    auto_history=False),
            ]
            last[:] = [start, memory]
            return machines, memory

        def check_history(kind):
            def on_history(history, memory):
                seen[kind] += 1
                out.checks.check(_linearizable(lib, out, tr, history, spec),
                                 f"snapshot {kind} history not linearizable")
            return on_history

        replays0 = len(out.trials)
        with tr.span("atomic.interleave"):
            terminals, nodes = atomic.explore_interleavings(
                make, check_history("terminal"), max_depth=inp["depth"],
                on_cut=check_history("cut"),
            )
        close_replay()
        out.counts["atomic.interleave.replays"] += len(out.trials) - replays0
        out.counts["atomic.interleave.nodes"] += nodes
        out.records.append(["interleave", terminals, nodes, seen["terminal"], seen["cut"]])
    out.layout(lib.snapshot.BoundedSnapshot(0, 2, n=2, value_bits=4).register_widths())
    out.counts["atomic.interleave.replay_steps"] = sum(out.steps)
    return out


def _linearizable(lib, out: Outcome, tr, history, spec) -> bool:
    """check_linearizable; an exceeded search budget counts as a failure."""
    out.counts["verify.linearizable.calls"] += 1
    try:
        with tr.span("verify.linearizable"):
            return lib.verify.check_linearizable(history, spec)
    except lib.verify.SearchBudgetExceeded:
        out.counts["verify.linearizable.budget_exceeded"] += 1
        return False


# ---------------------------------------------------------------------------
# det_histories


def det_histories_inputs(rng: random.Random, seconds: int) -> list:
    # schedules are bytes of pids, drawn in bulk per process count: drawing
    # them entry by entry would make set-up cost as much as the job
    shape = []
    for _ in range(DET_ROUNDS_PER_S * seconds):
        for n in range(2, 9):
            u = rng.random()
            mode = "pending" if u < PENDING_SHARE else (
                "corrupt" if u < PENDING_SHARE + CORRUPT_SHARE else "clean")
            shape.append(("tas", n, rng.randrange(1, 25 * n), mode, rng.random()))
        for k in range(4, 9):
            shape.append(("sifter", k, rng.randrange(5, 60 * k)))
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    pool, offset = {}, Counter()
    for n in range(2, 9):
        total = sum(t[2] for t in shape if t[1] == n)
        pool[n] = gen.integers(0, n, size=total, dtype=np.uint8).tobytes()
    trials = []
    for kind, n, length, *rest in shape:
        sched = pool[n][offset[n]:offset[n] + length]
        offset[n] += length
        trials.append((kind, n, sched, *rest))
    return trials


def det_histories_run(lib, trials: list, tr, clock) -> Outcome:
    out = Outcome()
    for trial in trials:
        clock.tick()
        t0 = perf_counter()
        if trial[0] == "tas":
            _det_tas_trial(lib, out, tr, *trial[1:])
        else:
            _det_sifter_trial(lib, out, tr, *trial[1:])
        out.trials.append((t0, perf_counter()))
    out.layout(lib.tas_det.tas_register_widths(8))
    return out


def _det_tas_trial(lib, out: Outcome, tr, n: int, sched, mode: str, pick: float):
    atomic, tas_det, verify = lib.atomic, lib.tas_det, lib.verify
    with tr.span("tas_det.build"):
        machines = tas_det.tas_machines(n)
        store = tas_det.tas_store(n)
    with tr.span("atomic.run_atomic"):
        h, t = atomic.run_atomic(machines, store, sched)
        if mode != "pending":
            bound = tas_det.S_MAX * tas_det.ell(n) + 2
            for m in machines:
                if not m.done:
                    h, t = atomic.run_atomic(
                        machines, store, [m.pid] * bound, history=h, start_t=t
                    )
    out.counts["atomic.run_atomic.ops"] += sum(m.steps for m in machines)
    results = [m.result for m in machines]
    record = ["tas", n, mode, results, [m.steps for m in machines]]
    out.records.append(record)
    if mode != "pending":
        if not out.checks.check(all(m.done for m in machines),
                                f"tas n={n}: solo drain left a process running"):
            return
        out.steps.extend(m.steps for m in machines)
        out.checks.check(results.count(0) == 1, f"tas n={n}: results {results}")
    if mode == "clean":
        with tr.span("verify.check_tas"):
            verdict = verify.check_tas(h)
        out.counts["verify.check_tas.calls"] += 1
        out.checks.check(verdict.ok, f"tas n={n}: {verdict.reason}")
        record.append(verdict.winner)
        return
    if mode == "corrupt":
        res_idx = [i for i, e in enumerate(h.events) if e.kind == "res"]
        i = res_idx[int(pick * len(res_idx))]
        h.events[i] = dataclasses.replace(h.events[i], result=1 - h.events[i].result)
    # a pending or corrupted history: the specialised checker must agree with
    # brute-force linearizability; only an unmodified history must pass
    with tr.span("verify.check_tas"):
        fast = verify.check_tas(h, permissive=True).ok
    out.counts["verify.check_tas.calls"] += 1
    slow = _linearizable(lib, out, tr, h, verify.TasSequential())
    out.checks.check(fast == slow, f"tas n={n}: check_tas {fast} != linearizable {slow}")
    if mode == "pending":
        out.checks.check(fast, f"tas n={n}: pending history rejected")
    record.append([fast, slow])


def _det_sifter_trial(lib, out: Outcome, tr, k: int, sched):
    atomic, sifter = lib.atomic, lib.sifter
    machines = sifter.sifter_machines(range(k))
    store = sifter.sifter_store()
    try:
        with tr.span("atomic.run_atomic"):
            atomic.run_atomic(machines, store, sched, record=False)
            for m in machines:
                if not m.done:
                    atomic.run_atomic_solo(m, store, lib.tas_det.S_MAX)
    except RuntimeError as e:
        out.checks.check(False, f"sifter k={k}: {e}")
        return
    finally:
        out.counts["atomic.run_atomic.ops"] += sum(m.steps for m in machines)
    wins = sum(1 for m in machines if m.result == sifter.WIN)
    loses = sum(1 for m in machines if m.result == sifter.LOSE)
    out.checks.check(1 <= wins <= lib.tas_det.f(k) and wins + loses == k,
                     f"sifter k={k}: {wins} wins, {loses} loses")
    out.records.append(["sifter", k, wins, [m.steps for m in machines]])


# ---------------------------------------------------------------------------
# rand_pipeline

RAND_GROUP = (("tas_rand", 16), ("tas_rand", 1024), ("tas_rand", 16),
              ("wrapped", WRAPPED_N), ("tas_rand", 16), ("tas_rand", 16))


def rand_pipeline_inputs(rng: random.Random, seconds: int) -> list:
    return [
        (kind, n, rng.getrandbits(32), rng.getrandbits(32))
        for _ in range(RAND_GROUPS_PER_S * seconds)
        for kind, n in RAND_GROUP
    ]


def rand_pipeline_run(lib, trials: list, tr, clock) -> Outcome:
    out = Outcome()
    shm, verify = lib.shm, lib.verify
    for kind, n, obj_seed, sched_seed in trials:
        clock.tick()
        t0 = perf_counter()
        if kind == "tas_rand":
            with tr.span("tas_rand.setup"):
                rt = lib.tas_rand.RandTas(n, seed=obj_seed)
                if tr.enabled:
                    rt.process_rng = tr.process_rng(rt.process_rng)
                machines = rt.machines()
                memory = rt.memory()
            cap = LIVE_CAP
        else:
            machines, memory, _ = lib.randomized.wrapped_tas_system(
                n, b=WRAPPED_B, seed=obj_seed, coin_rngs=tr.coin_rngs(n, obj_seed)
            )
            cap = 400 * WRAPPED_B
        h = shm.History()
        with tr.span("shm.run_live_uniform"):
            taken = shm.run_live_uniform(
                machines, memory, random.Random(f"sched:{sched_seed}"), cap, history=h
            )
        out.counts["shm.register_steps"] += taken
        steps = [m.steps for m in machines]
        results = [m.result for m in machines]
        out.records.append([kind, n, taken, results.index(0) if 0 in results else None, steps])
        if out.checks.check(all(m.done for m in machines), f"{kind} n={n}: step cap hit"):
            out.checks.check(results.count(0) == 1, f"{kind} n={n}: {results.count(0)} zeros")
            with tr.span("verify.check_tas"):
                verdict = verify.check_tas(h)
            out.counts["verify.check_tas.calls"] += 1
            out.checks.check(verdict.ok, f"{kind} n={n}: {verdict.reason}")
        out.trials.append((t0, perf_counter()))
        out.steps.extend(steps)
        out.layout(memory.widths)
        if kind == "tas_rand":
            out.counts["tas_rand.trials"] += 1
            out.counts["tas_rand.calls"] += n
            out.counts["tas_rand.doorway_exits"] += n - rt.entered[1]
            out.counts["tas_rand.backstop_trials"] += rt.entered[rt.backstop_index] > 0
            out.counts["tas_rand.le2_descents"] += sum(
                c[lib.sifter.WIN] for c in rt.split_outcomes.values()
            )
    return out


WORKLOADS = {
    "exhaustive": (exhaustive_inputs, exhaustive_run),
    "det_histories": (det_histories_inputs, det_histories_run),
    "rand_pipeline": (rand_pipeline_inputs, rand_pipeline_run),
}
