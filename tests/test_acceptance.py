"""Acceptance suite: ten numbered checks covering the library's guarantees.

Each check prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them on success; pytest shows captured output for failures automatically).
Frozen constants were calibrated once from pilot runs with different seeds
than the ones used here; they are not tuned to these seeds.

Check 4's width clause holds because the TAS snapshot is owner-tagged: every
value written names its writer, so a cell holds only the packed value and
the handshake parity bit, 3*ceil(log2(n))+3 bits against the
4*ceil(log2(n))+2 budget.  The register-count clause of the same check is
verified before the width assertion.
"""

import dataclasses
import math
import random
import statistics
import time

import numpy as np

from tasim.atomic import Closure
from tasim.randomized import HeadsRng, wrapped_tas_system
from tasim.shm import (
    History,
    Memory,
    StepMachine,
    drain,
    draw_pids,
    make_schedule,
    run,
    run_live_uniform,
)
from tasim.sifter import WIN, sifter_machines, sifter_snapshot, sifter_store, sifter_system
from tasim.snapshot import BoundedSnapshot, ops_program
from tasim.tas_det import (
    S_MAX,
    f,
    floor_log32,
    solo_op_bound,
    solo_step_bound,
    tas_machines,
    tas_register_widths,
    tas_store,
    tas_system,
)
from tasim.tas_rand import RandTas, gw_steps
from tasim.verify import (
    SnapshotSequential,
    TasSequential,
    check_linearizable,
    check_tas,
    probe_solo,
)

# frozen calibration constants (pilot provenance: repository build notes)
LAMBDA = 40  # wrapped-run per-process budget multiplier; pilot p99 was 20, max 32
MEAN_STEP_CEILING = 640  # shared bound on mean per-process steps; pilot max 307.2


def _line(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    msg = f"[criterion {num:02d}] {label}: {tag}"
    if detail:
        msg += f" ({detail})"
    print(msg)
    return msg


# ---------------------------------------------------------------------------
# 1. sifter winner/loser bounds


def test_criterion_01_sifter_winner_bounds():
    # exhaustive: state-merged breadth-first search closes the full (finite)
    # merged state space for k in {2,3}, which covers every interleaving of
    # any depth, in particular all interleavings up to depth 40; from every
    # state of the k=3 closure, each live machine runs alone to its end, and
    # the longest such run is the exact op-level solo maximum
    states_seen = {}
    for k in (2, 3):
        def make(k=k):
            return sifter_machines(range(k)), sifter_store()

        closure = Closure(make, max_states=4_000_000)
        states_seen[k] = len(closure.states)
        for res, _ in closure.terminals.items():
            wins = sum(1 for r in res if r == WIN)
            assert 1 <= wins <= f(k), (k, res)
    solo = closure.solo_max()
    assert solo == 12 <= S_MAX, solo
    del closure

    # randomized: 2*10^4 seeded schedules per k in {4..8} (10^5 total),
    # drained to completion so every execution is complete
    for k in range(4, 9):
        rng = random.Random(1000 + k)
        for trial in range(20_000):
            machines = sifter_machines(range(k))
            store = sifter_store()
            sched = draw_pids(rng, k, rng.randrange(5, 60 * k))
            run(machines, store, sched)
            drain(machines, store, S_MAX)
            wins = sum(1 for m in machines if m.result == WIN)
            assert 1 <= wins <= f(k), (k, trial, wins)

    _line(
        1,
        "sifter winner bounds (exhaustive k=2,3; 10^5 random k=4..8)",
        True,
        f"merged states: k=2 -> {states_seen[2]}, k=3 -> {states_seen[3]};"
        f" solo max over the k=3 closure: {solo} ops",
    )


# ---------------------------------------------------------------------------
# 2. sifter obstruction-freedom


def test_criterion_02_sifter_solo_resume():
    def atomic_factory(rng):
        k = rng.randrange(2, 6)
        return sifter_machines(range(k)), sifter_store()

    rep_ops = probe_solo(atomic_factory, samples=10_000, bound=S_MAX, seed=4021, prefix_max=200)
    assert rep_ops.ok, rep_ops.violations[:3]

    ks = [2, 3, 4, 5]

    def register_factory(rng):
        k = rng.choice(ks)
        machines, memory, logics = sifter_system(k)
        return machines, memory

    # each of at most S_MAX snapshot ops finishes within its solo cost
    reg_bound = S_MAX * max(sifter_snapshot(k).solo_op_steps for k in ks)
    rep_reg = probe_solo(register_factory, samples=10_000, bound=reg_bound, seed=4022, prefix_max=400)
    assert rep_reg.ok, rep_reg.violations[:3]

    _line(
        2,
        f"sifter solo resume within {S_MAX} ops / {reg_bound} register steps",
        True,
        f"observed maxima: {rep_ops.max_steps} ops, {rep_reg.max_steps} register steps",
    )


# ---------------------------------------------------------------------------
# 3. snapshot costs and linearizability


def test_criterion_03_snapshot():
    # update cost is structural: every update is exactly 2 register writes,
    # independent of memory state, component, value, and parity phase
    snap = BoundedSnapshot(0, 6, n=3, value_bits=4)
    for pid in range(3):
        parity = 0
        for comp in range(6):
            for value in (0, 9, 15):
                for phase in (0, 1):  # both parity phases
                    assert (parity >> comp) & 1 == phase
                    sub, parity = snap.update_steps(pid, comp, value, parity)
                    assert len(list(sub)) == 2

    # solo scan from sampled reachable configurations, M=6
    M = 6

    def scan_factory(rng):
        s = BoundedSnapshot(0, M, 3, value_bits=4)
        memory = s.fresh_memory()
        machines = []
        for pid in range(3):
            script = []
            for _ in range(rng.randrange(3)):
                script.append(("update", rng.randrange(M), rng.randrange(16)))
            script.append(("scan",))
            machines.append(StepMachine(pid, ops_program(s, pid, script)))
        return machines, memory

    scan_bound = BoundedSnapshot(0, M, 3, value_bits=4).solo_op_steps
    rep = probe_solo(scan_factory, samples=10_000, bound=scan_bound, seed=4031, prefix_max=120)
    assert rep.ok, rep.violations[:3]

    # exhaustive closure of two 3-op scripts per pair at register
    # granularity, M=2.  Retry loops revisit states, so the merged state
    # graph is finite and a `Closure` closes it with no depth cap.  At every
    # reachable state each live process finishes its current op within
    # solo_op_steps (4M+3) solo steps (obstruction-freedom; `Closure.solo`
    # reads each solo run off the memoized moves and raises on one that
    # never ends), so every state reaches a terminal; linearizability is
    # prefix-closed, so checking every distinct complete history covers
    # every reachable prefix, pending ops included.
    spec = SnapshotSequential(2, 0)
    solo_bound = BoundedSnapshot(0, 2, n=2, value_bits=4).solo_op_steps
    pairs = [
        (
            [("update", 0, 1), ("scan",), ("scan",)],
            [("scan",), ("update", 1, 2), ("scan",)],
        ),
        (
            [("scan",), ("scan",), ("scan",)],
            [("update", 0, 1), ("update", 0, 2), ("update", 1, 3)],
        ),
        (
            [("update", 0, 1), ("update", 0, 2), ("scan",)],
            [("update", 0, 3), ("scan",), ("update", 1, 4)],
        ),
    ]
    closures = []
    for script_p, script_q in pairs:
        def make(script_p=script_p, script_q=script_q):
            s = BoundedSnapshot(0, 2, n=2, value_bits=4)
            ms = [
                StepMachine(0, ops_program(s, 0, script_p)),
                StepMachine(1, ops_program(s, 1, script_q)),
            ]
            return ms, s.fresh_memory()

        closure = Closure(make, by_history=True)
        solo_max = closure.solo_max()
        assert solo_max <= solo_bound
        for h in closure.terminals:
            assert check_linearizable(History(list(h)), spec), h
        closures.append(f"{len(closure.states)}/{len(closure.terminals)}/{solo_max}")
    # a machine or scan state that keys more or less than it must moves these
    assert closures == ["45513/1278/11", "21953/1856/11", "18761/1418/11"]

    _line(
        3,
        f"snapshot: 2-step updates, scan resume <= {scan_bound}, exhaustive histories linearize",
        True,
        f"scan max {rep.max_steps}/{scan_bound}; closures (states/complete histories/"
        f"solo op max of {solo_bound}): {', '.join(closures)}",
    )


# ---------------------------------------------------------------------------
# 4. register accounting


def test_criterion_04_register_accounting():
    count_details = []
    for n in (2, 16, 64, 1024):
        widths = tas_register_widths(n)
        expected = 6 * floor_log32(n) + 8
        assert len(widths) == expected, n
        count_details.append(f"n={n}: {expected}")
    assert len(tas_register_widths(64)) == 68  # 67 snapshot registers + 1 doorway bit
    assert tas_register_widths(64)[0] == 1

    width_ok = True
    worst = ""
    for n in (2, 16, 64, 1024):
        budget = 4 * math.ceil(math.log2(n)) + 2
        widest = max(tas_register_widths(n))
        if widest > budget:
            width_ok = False
            worst = f"n={n}: widest register {widest} bits > budget {budget}"

    _line(
        4,
        "register accounting: counts exact; width budget",
        width_ok,
        f"counts hold ({', '.join(count_details)}); "
        + ("widths within budget" if width_ok else worst),
    )
    assert width_ok, (
        "register width budget exceeded: an owner-tagged snapshot cell should "
        "need only 3*ceil(log2(n))+3 bits (packed value plus parity bit); "
        + worst
    )


# ---------------------------------------------------------------------------
# 5. repeated winner-bound iteration collapses


def repeated_log_holds(limit: int = 10**6) -> bool:
    """Check that f applied c(n) times takes n to 1, for 1 <= n <= limit.

    c(n) is the smallest i >= 0 with (3/2)**i >= n.  Vectorized: after i
    applications of f, every n with c(n) <= i (i.e. n <= floor((3/2)**i))
    must have reached 1, and f(1) = 1 keeps it there.
    """
    arr = np.arange(1, limit + 1, dtype=np.int64)
    p3, p2 = 1, 1
    while True:
        bound = p3 // p2
        hi = min(bound, limit)
        if hi >= 1 and not bool(np.all(arr[:hi] == 1)):
            return False
        if bound >= limit:
            return True
        arr = (2 * arr + 1) // 3
        p3 *= 3
        p2 *= 2


def test_criterion_05_repeated_log():
    t0 = time.perf_counter()
    holds = repeated_log_holds(10**6)
    dt = time.perf_counter() - t0
    ok = holds and dt < 1.0
    _line(5, "f iterated ceil(log_3/2 n) times reaches 1 up to 10^6", ok, f"{dt:.2f}s")
    assert ok, dt


# ---------------------------------------------------------------------------
# 6. deterministic TAS linearizability at scale


def test_criterion_06_tas_det_histories():
    trials_per_n = math.ceil(100_000 / 7)
    for n in range(2, 9):
        rng = random.Random(6000 + n)
        bound = solo_op_bound(n)
        for trial in range(trials_per_n):
            machines = tas_machines(n)
            store = tas_store(n)
            sched = draw_pids(rng, n, rng.randrange(1, 25 * n))
            h = run(machines, store, sched, History())
            drain(machines, store, bound, h)
            assert all(m.done for m in machines)
            results = [m.result for m in machines]
            assert results.count(0) == 1, (n, trial, results)
            v = check_tas(h)
            assert v.ok, (n, trial, v.reason)
    _line(
        6,
        "deterministic TAS: 10^5 schedules, all histories pass, exactly one 0",
        True,
        f"{trials_per_n} runs per n in 2..8",
    )


# ---------------------------------------------------------------------------
# 7. randomized transformation keeps per-process budgets


def test_criterion_07_wrapped_budget():
    n = 4

    # measure b: max own-step solo resume from sampled reachable configs
    def det_factory(rng):
        machines, memory, logics = tas_system(n)
        return machines, memory

    rep = probe_solo(
        det_factory, samples=2_000, bound=solo_step_bound(n), seed=4071, prefix_max=1_500
    )
    assert rep.ok, rep.violations[:3]
    b = math.ceil(1.25 * rep.max_steps)

    within = 0
    trials = 1_000
    for trial in range(trials):
        machines, memory, logics = wrapped_tas_system(n, b=b, seed=50_000 + trial)
        rng = random.Random(f"budget:{trial}")
        h = History()
        run_live_uniform(machines, memory, rng, max_steps=400 * b, history=h)
        assert all(m.done for m in machines), trial
        assert check_tas(h).ok, trial
        if max(m.steps for m in machines) <= LAMBDA * b:
            within += 1
    frac = within / trials
    budget_ok = frac >= 0.99

    # all-heads coin stream replays the unwrapped system trace for trace
    sched = make_schedule("random", n, 4 * solo_step_bound(n), seed=4072)
    plain, mem_plain, logics_plain = tas_system(n)
    mem_plain.record_trace = True
    run(plain, mem_plain, sched)
    wrapped, mem_wrapped, logics_wrapped = wrapped_tas_system(
        n, b=b, coin_rngs={p: HeadsRng() for p in range(n)}
    )
    mem_wrapped.record_trace = True
    run(wrapped, mem_wrapped, sched)
    heads_ok = (
        mem_wrapped.trace == mem_plain.trace
        and [lg.result for lg in logics_wrapped] == [lg.result for lg in logics_plain]
    )

    ok = budget_ok and heads_ok
    _line(
        7,
        f"wrapped runs: >=99% within {LAMBDA}*b own steps; all-heads = unwrapped",
        ok,
        f"b={b} (measured max {rep.max_steps}), within-budget {frac:.1%}, "
        f"all-heads trace equal: {heads_ok}",
    )
    assert ok, (frac, heads_ok)


# ---------------------------------------------------------------------------
# 8. group-wise sifter: mean winners and step count


def test_criterion_08_group_sifter():
    s, k, trials = 2, 16, 10_000
    winners = []
    for trial in range(trials):
        sched_rng = random.Random(8000 + trial)
        mem = Memory([1] * (s + 1))
        machines = [
            StepMachine(p, gw_steps(0, s, random.Random(f"gw:{trial}:{p}")))
            for p in range(k)
        ]
        sched = [sched_rng.randrange(k) for _ in range(4 * k)]
        for p in range(k):  # drain: every call must finish to be counted
            sched += [p, p]
        run(machines, mem, sched)
        assert all(m.done and m.steps == 2 for m in machines)
        winners.append(sum(1 for m in machines if m.result == WIN))
    mean = statistics.mean(winners)
    sd = statistics.stdev(winners)
    bound = k / 2 + 1 + 3 * sd / math.sqrt(trials)
    ok = mean <= bound
    _line(
        8,
        "group-wise sifter: mean winners within k/2+1 margin, exactly 2 steps",
        ok,
        f"mean {mean:.3f} <= {bound:.3f} (sd {sd:.3f})",
    )
    assert ok, (mean, bound)


# ---------------------------------------------------------------------------
# 9. randomized TAS at scale


def test_criterion_09_randomized_tas():
    mean_by_n = {}
    exits_by_n = {}  # the fraction of callers that left at the doorway
    backstops = 0

    # n=256: full checks on every trial
    n = 256
    means, exits = [], 0
    for trial in range(1_000):
        rt = RandTas(n, seed=90_000 + trial)
        machines = rt.machines()
        memory = rt.memory()
        h = History()
        run_live_uniform(
            machines, memory, random.Random(f"r9:{trial}"), 200_000_000, history=h
        )
        assert all(m.done for m in machines), trial
        results = [m.result for m in machines]
        assert results.count(0) == 1, (trial, results.count(0))
        v = check_tas(h)
        assert v.ok, (trial, v.reason)
        if rt.entered[rt.backstop_index]:
            backstops += 1
        means.append(statistics.mean(m.steps for m in machines))
        exits += n - rt.entered[1]
    mean_by_n[n] = statistics.mean(means)
    exits_by_n[n] = exits / (n * 1_000)
    backstop_frac = backstops / 1_000

    # trend clause: one shared ceiling on mean per-process steps
    for n in (16, 64, 1024):
        means, exits = [], 0
        for trial in range(300):
            rt = RandTas(n, seed=9_000 + trial)
            machines = rt.machines()
            memory = rt.memory()
            run_live_uniform(machines, memory, random.Random(f"t9:{n}:{trial}"), 200_000_000)
            assert all(m.done for m in machines)
            means.append(statistics.mean(m.steps for m in machines))
            exits += n - rt.entered[1]
        mean_by_n[n] = statistics.mean(means)
        exits_by_n[n] = exits / (n * 300)

    trend_ok = all(v <= MEAN_STEP_CEILING for v in mean_by_n.values())
    ok = backstop_frac < 0.01 and trend_ok
    _line(
        9,
        "randomized TAS: one winner/trial, backstop <1%, flat mean-step ceiling",
        ok,
        "means "
        + ", ".join(
            f"n={k}: {v:.1f} (doorway exits {exits_by_n[k]:.0%})"
            for k, v in sorted(mean_by_n.items())
        )
        + f" (ceiling {MEAN_STEP_CEILING}); backstop {backstop_frac:.2%}",
    )
    assert ok, (backstop_frac, mean_by_n)


# ---------------------------------------------------------------------------
# 10. checker cross-validation


def test_criterion_10_checker_cross_validation():
    rng = random.Random(10_000)
    tallies = {"ok": 0, "violation": 0, "pending": 0}
    for trial in range(10_000):
        n = rng.randrange(2, 9)
        machines = tas_machines(n)
        store = tas_store(n)
        sched = [rng.randrange(n) for _ in range(rng.randrange(1, 30 * n))]
        h = run(machines, store, sched, History())
        if rng.random() < 0.7:  # drain; otherwise leave ops pending
            drain(machines, store, solo_op_bound(n), h)
        if rng.random() < 0.25:  # corrupt one response
            idxs = [i for i, e in enumerate(h.events) if e.kind == "res"]
            if idxs:
                i = idxs[rng.randrange(len(idxs))]
                e = h.events[i]
                h.events[i] = dataclasses.replace(e, result=1 - e.result)
        a = check_tas(h, permissive=True).ok
        b = check_linearizable(h, TasSequential())
        assert a == b, (trial, n, a, b)
        if any(e.kind == "inv" for e in h.events) and sum(
            1 for e in h.events if e.kind == "inv"
        ) > sum(1 for e in h.events if e.kind == "res"):
            tallies["pending"] += 1
        elif a:
            tallies["ok"] += 1
        else:
            tallies["violation"] += 1
    assert all(v > 0 for v in tallies.values()), tallies
    _line(
        10,
        "check_tas agrees with brute-force linearizability on 10^4 histories",
        True,
        f"{tallies['ok']} clean, {tallies['violation']} violating, "
        f"{tallies['pending']} with pending ops",
    )
