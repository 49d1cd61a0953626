"""Sifter chain: level math, leader election, doorway, step/space bounds."""

import math
import random
from fractions import Fraction

import pytest

from tasim.atomic import Closure, explore
from tasim.shm import History, Machine, Memory, StepMachine, drain, make_schedule, run
from tasim.sifter import (
    LOSE,
    WIN,
    NaiveSifterLogic,
    SifterLogic,
    sifter_machines,
    sifter_snapshot,
    sifter_store,
)
from tasim.snapshot import BoundedSnapshot, register_program
from tasim.tas_det import (
    S_MAX,
    TasLogic,
    ell,
    f,
    floor_log32,
    solo_op_bound,
    solo_step_bound,
    tas_machines,
    tas_register_widths,
    tas_snapshot,
    tas_store,
    tas_system,
    wle_machines,
    wle_store,
)
from tasim.tas_rand import layout
from tasim.verify import check_tas, probe_solo


def f_iter(n, times):
    for _ in range(times):
        n = f(n)
    return n


def ceil_log32(n):
    """Smallest i >= 0 with (3/2)**i >= n."""
    # (3/2)**i is non-integral for i >= 1, so equality only happens at n=1
    return 0 if n == 1 else floor_log32(n) + 1


def test_f_values():
    assert [f(k) for k in (1, 2, 3, 4, 5, 6, 9)] == [1, 1, 2, 3, 3, 4, 6]
    assert f_iter(9, 6) == 1
    assert f_iter(10**6, ceil_log32(10**6)) == 1


def test_log32_against_fraction_oracle():
    for n in list(range(1, 600)) + [10**4, 10**6]:
        i = floor_log32(n)
        assert Fraction(3, 2) ** i <= n < Fraction(3, 2) ** (i + 1)
        c = ceil_log32(n)
        assert Fraction(3, 2) ** c >= n
        if c:
            assert Fraction(3, 2) ** (c - 1) < n
    with pytest.raises(ValueError, match="n must be >= 1"):
        floor_log32(0)


def test_level_and_register_counts():
    assert ell(1) == 1 and ell(2) == 2 and ell(3) == 3
    assert ell(8) == 6 and ell(64) == 11
    assert len(tas_register_widths(2)) == 14
    assert len(tas_register_widths(8)) == 38
    assert len(tas_register_widths(64)) == 68  # = 6*floor_log32(64) + 8
    for n in (2, 8, 64, 1024):
        widths = tas_register_widths(n)
        assert len(widths) == 6 * floor_log32(n) + 8
        assert widths[0] == 1  # doorway bit
        assert widths[-1] == n.bit_length()  # handshake register
        assert max(widths) == 3 * math.ceil(math.log2(n)) + 3


def test_solo_bounds_pinned():
    # the closed forms that set b for every wrapped run (ROADMAP item 11)
    assert (solo_op_bound(2), solo_op_bound(3)) == (42, 62)
    assert (solo_step_bound(2), solo_step_bound(3)) == (2042, 4502)
    for n in (2, 3, 16, 64):
        assert (layout(n).b2, layout(n).bn) == (solo_step_bound(2), solo_step_bound(n))
    # 4m+3 per op; criterion 3 closes m=2 and samples m=6
    assert [BoundedSnapshot(0, m, 3, 4).solo_op_steps for m in (1, 2, 6, 18)] == [7, 11, 27, 75]
    for k in (2, 3, 5):
        assert S_MAX * sifter_snapshot(k).solo_op_steps == 540  # criterion 2


def test_builders_set_the_state_the_init_chain_would():
    # SifterLogic and TasLogic set each field once; the reference is
    # Machine.__init__, then the chain's top and _start_level(0), then, for
    # the TAS, the doorway read; field order included
    def chain(cls, pid, levels):
        m = object.__new__(cls)
        Machine.__init__(m, pid)
        m.top = 6 * (levels - 1)
        m._start_level(0)
        return m

    for pid, levels in ((0, 1), (3, 1), (2, 4)):
        for cls in (SifterLogic, NaiveSifterLogic):
            assert list(vars(cls(pid, levels)).items()) == list(vars(chain(cls, pid, levels)).items())
    for pid, n in ((0, 2), (4, 5), (7, 8)):
        ref = chain(TasLogic, pid, ell(n))
        ref.stage, ref.op = "dr", ("r", 0)
        assert list(vars(TasLogic(pid, n)).items()) == list(vars(ref).items())


def test_chain_restarts_on_fresh_components():
    m = wle_machines(3)[0]  # ell(3) == 3 levels
    assert (m.base, m.top, m.op) == (0, 12, ("u", 0, 0))
    store = wle_store(3)
    drain([m], store, 50)
    assert m.result == WIN and m.base == m.top == 12
    # winner swept A of every level on its way up
    assert store.comps[0:3] == [0, 0, 0] and store.comps[6:9] == [0, 0, 0]


def test_wle_exhaustive_n2_exactly_one_leader():
    def make():
        return wle_machines(2), wle_store(2)

    terminals, states = explore(make)
    assert states == 4501
    assert terminals == {(WIN, LOSE): 41, (LOSE, WIN): 41}


def test_tas_exhaustive_n2_exactly_one_zero():
    def make():
        return tas_machines(2), tas_store(2)

    terminals, states = explore(make)
    assert states == 6036
    assert terminals == {(0, 1): 41, (1, 0): 41}


def test_exact_solo_maximum_over_the_n2_closure():
    # from every state of the n=2 closure, each live process runs alone to
    # its end; the longest such run is the exact op-level solo maximum at
    # n=2, inside the closed form solo_op_bound(2)
    closure = Closure(lambda: (tas_machines(2), tas_store(2)))
    solo = closure.solo_max()
    assert len(closure.states) == 6036 and solo == 25 < solo_op_bound(2) == 42


def _livelock_components(closure):
    """The strongly connected components of the closure's successor graph that
    hold a cycle (iterative Tarjan), as sets of states."""
    index, low, on_stack, stack, found = {}, {}, set(), [], []
    for root in closure.states:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(closure.successors(root)))]
        while work:
            v, edges = work[-1]
            for _, _, u in edges:
                if u not in index:
                    index[u] = low[u] = len(index)
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(closure.successors(u))))
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        comp.add(stack.pop())
                    on_stack -= comp
                    if len(comp) > 1 or any(u == v for _, _, u in closure.successors(v)):
                        found.append(comp)
    return found


@pytest.mark.parametrize("make", [
    lambda: (sifter_machines(range(2)), sifter_store()),
    lambda: (tas_machines(2), tas_store(2)),
], ids=["sifter2", "tas2"])
def test_two_processes_can_step_forever_without_finishing(make):
    # obstruction-free but not wait-free: the op-level k=2 sifter and n=2
    # TAS closures each hold 18 cycles of states (184 states, at most 12 in
    # one), and both processes step inside each one, so an adversary can run
    # both forever while neither finishes
    closure = Closure(make)
    found = _livelock_components(closure)
    assert (len(found), sum(map(len, found)), max(map(len, found))) == (18, 184, 12)
    for comp in found:
        inside = {pid for v in comp for pid, _, u in closure.successors(v) if u in comp}
        assert inside == {0, 1}


def test_wle_random_schedules_exactly_one_leader():
    rng = random.Random(3)
    for trial in range(200):
        n = rng.randrange(2, 7)
        machines = wle_machines(n)
        store = wle_store(n)
        run(machines, store, [rng.randrange(n) for _ in range(30 * n)])
        drain(machines, store, S_MAX * ell(n))
        assert sum(1 for m in machines if m.result == WIN) == 1, f"trial {trial}"


def test_solo_tas_atomic_op_count():
    for n, expect in ((2, 1 + 2 * 12), (8, 1 + 6 * 12)):
        m = TasLogic(0, n)
        drain([m], tas_store(n), 200)
        assert m.result == 0 and m.steps == expect


def test_solo_tas_register_step_count():
    # 1 doorway read + per level: 6 two-step updates and 6 full-width scans
    for n in (2, 8):
        machines, memory, logics = tas_system(n)
        m = machines[0]
        drain([m], memory, 10_000)
        per_scan = 2 * (6 * ell(n)) + 2
        assert logics[0].result == 0
        assert m.steps == 1 + ell(n) * (12 + 6 * per_scan)
        assert m.steps <= solo_step_bound(n)


def test_tas_atomic_histories_check_out():
    rng = random.Random(17)
    for trial in range(150):
        n = rng.randrange(2, 9)
        machines = tas_machines(n)
        store = tas_store(n)
        h = run(machines, store, [rng.randrange(n) for _ in range(25 * n)], History())
        drain(machines, store, solo_op_bound(n), h)
        assert all(m.done for m in machines)
        results = sorted(e.result for e in h.events if e.kind == "res")
        assert results == [0] + [1] * (n - 1) and len(h.events) == 2 * n
        v = check_tas(h)
        assert v.ok, v.reason


def test_late_arrival_loses_through_chain_then_doorway():
    machines = tas_machines(3)
    store = tas_store(3)
    # pids 0 and 1 finish completely before pid 2 takes its first step
    h = run(machines, store, [0] * 80 + [1] * 80, History())
    done_two = [m for m in machines if m.pid < 2]
    assert all(m.done for m in done_two)
    assert store.regs[0] == 1  # the chain loser marked the doorway
    late = machines[2]
    run(machines, store, [2] * 5, h)
    assert late.done and late.result == 1 and late.steps == 1  # doorway read
    assert check_tas(h).ok


def test_doorway_bit_is_monotone_and_single_width():
    machines, memory, logics = tas_system(3)
    memory.record_trace = True
    run(machines, memory, make_schedule("random", 3, 400, seed=8))
    drain(machines, memory, solo_step_bound(3))
    assert all(m.done for m in machines)
    writes = [e for e in memory.trace if e[2] == "W" and e[3] == 0]
    assert writes and all(e[4] == 1 for e in writes)
    assert memory.widths[0] == 1


def test_register_level_outcomes_and_histories():
    for seed in range(25):
        n = 3
        machines, memory, logics = tas_system(n)
        h = run(machines, memory, make_schedule("random", n, 500, seed=seed), History())
        drain(machines, memory, solo_step_bound(n), h)
        assert all(m.done for m in machines)
        results = sorted(lg.result for lg in logics)
        assert results == [0, 1, 1]
        assert check_tas(h).ok


def test_one_tas_snapshot_serves_two_runs():
    # each process keeps its own parity bits, so one chain snapshot can lay
    # out any number of runs and each repeats the same execution
    n = 3
    snap = tas_snapshot(n)

    def one_run():
        logics = tas_machines(n)
        machines = [StepMachine(lg.pid, register_program(lg, snap)) for lg in logics]
        memory = Memory(tas_register_widths(n), record_trace=True)
        h = run(machines, memory, make_schedule("random", n, 500, seed=7), History())
        drain(machines, memory, solo_step_bound(n), h)
        return memory.trace, h.events, [lg.result for lg in logics]

    first = one_run()
    assert sorted(first[2]) == [0, 1, 1]
    assert one_run() == first


def test_solo_resume_stays_within_step_bound():
    n = 4
    bound = solo_step_bound(n)

    def factory(rng):
        machines, memory, logics = tas_system(n)
        return machines, memory

    rep = probe_solo(factory, samples=150, bound=bound, seed=9, prefix_max=800)
    assert rep.ok, rep.violations[:3]
    assert rep.max_steps <= bound


@pytest.mark.parametrize("n", [2, 5])
def test_register_program_puts_the_doorway_below_the_snapshot(n):
    base = 9
    machines, memory, _ = tas_system(n)
    memory.record_trace = True
    drain(machines[:1], memory, 100_000)
    shifted = Memory([1] * base + tas_register_widths(n))
    shifted.record_trace = True
    m = StepMachine(0, register_program(TasLogic(0, n), tas_snapshot(n, base)))
    drain([m], shifted, 100_000)
    assert m.result == machines[0].result == 0
    touched = {reg for _, _, _, reg, _ in shifted.trace}
    assert min(touched) == base and max(touched) <= base + 6 * ell(n) + 1  # base: the doorway
    assert shifted.trace == [(t, p, k, reg + base, v) for t, p, k, reg, v in memory.trace]


def test_lowering_refuses_a_plain_register_below_base_0():
    # at base 0 no register lies below the chain snapshot, so the doorway
    # read has nowhere to go (register -1 would be the last one, the handshake)
    snap = sifter_snapshot(2, 0, ell(2))
    with pytest.raises(ValueError, match=r"store op \('r', 0\): no plain register 0 below base 0"):
        StepMachine(0, register_program(TasLogic(0, 2), snap))


def test_a_generator_scan_lowers_like_the_cursor_scan(monkeypatch):
    # perfbench/ counts scans by swapping scan_steps for a forwarding
    # generator; the lowered TAS must run step for step as with the cursor
    def one_run():
        machines, memory, logics = tas_system(3)
        memory.record_trace = True
        h = run(machines, memory, make_schedule("random", 3, 500, seed=4), History())
        drain(machines, memory, solo_step_bound(3), h)
        return memory.trace, h.events, [lg.result for lg in logics]

    plain = one_run()
    cursor_scan = BoundedSnapshot.scan_steps
    scans = []

    def forwarding_scan(self, pid):
        scans.append(pid)
        sub = cursor_scan(self, pid)
        item = sub.step(None)
        while item is not None:
            item = sub.step((yield item))
        return sub.result

    monkeypatch.setattr(BoundedSnapshot, "scan_steps", forwarding_scan)
    assert one_run() == plain
    assert len(scans) > 3 and sorted(plain[2]) == [0, 1, 1]
