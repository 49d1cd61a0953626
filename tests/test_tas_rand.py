"""Randomized pipeline: parameters, sifter/splitter contracts, full runs."""

import random

import pytest

from tasim.shm import History, Memory, StepMachine, drain, make_schedule, run, run_live_uniform
from tasim.randomized import wrapped_tas_program
from tasim.sifter import LOSE, WIN
from tasim.tas_det import TasLogic, ell, tas_register_widths, tas_snapshot
from tasim.tas_rand import (
    CONTINUE,
    RandTas,
    gw_sizes,
    gw_steps,
    layout,
    split_steps,
)
from tasim.verify import check_tas


class BitsRng:
    """Scripted getrandbits(1) draws, then zeros (level 1)."""

    def __init__(self, bits):
        self.bits = list(bits)

    def getrandbits(self, k):
        assert k == 1
        return self.bits.pop(0) if self.bits else 0


# (n, s1, z, ell_z, m, K): sizes of the sifter front, hand-derived from
# s1 = max(2, ceil(log2 n)), z = max(2, ceil(2 loglog n)),
# ell_z = max(1, ceil((loglog n)^2)), m = max(1, ceil(BETA log2 n)) with
# tas_rand.BETA = 16, K = ell_z+m+2
PARAM_TABLE = [
    (1, 2, 2, 1, 1, 4),
    (2, 2, 2, 1, 16, 19),
    (16, 4, 4, 4, 64, 70),
    (64, 6, 6, 7, 96, 105),
    (256, 8, 6, 9, 128, 139),
    (1024, 10, 7, 12, 160, 174),
]


def test_gw_sizes_frozen_values():
    for n, s1, z, ell_z, m, K in PARAM_TABLE:
        sizes = gw_sizes(n)
        assert sizes == (s1,) + (z,) * ell_z + (2,) * m, f"n={n}"
        assert len(sizes) + 1 == RandTas(n).backstop_index == K, f"n={n}"
    with pytest.raises(ValueError):
        gw_sizes(0)


def test_register_count_closed_form():
    for n, s1, z, ell_z, m, K in PARAM_TABLE:
        lay = layout(n)
        expect = (
            1  # doorway
            + s1 + ell_z * z + 2 * m  # sifter banks
            + 2 * K  # splitter X/Y pairs
            + 14 * K  # one wrapped 2-process chain per stage
            + 6 * ell(n) + 2  # backstop chain
        )
        assert len(lay.widths) == expect == len(RandTas(n).memory().widths), f"n={n}"


@pytest.mark.parametrize("n", [16, 1024])
def test_register_map_agrees_with_tas_snapshot(n):
    # walk the banks in layout order: each must start where the last ended
    lay = layout(n)
    sizes = gw_sizes(n)
    K = len(sizes) + 1
    assert lay.sizes == sizes and lay.K == K
    assert len(lay.gw_base) == K - 1 and len(lay.px_reg) == len(lay.le2_snaps) == K
    expect = [1]  # the doorway
    for i in range(1, K):
        assert lay.gw_base[i - 1] == len(expect), f"sifter {i}"
        expect += [1] * sizes[i - 1]
    pid_w = max(1, (n - 1).bit_length())
    for i in range(1, K + 1):
        assert lay.px_reg[i - 1] == len(expect), f"splitter {i}"
        expect += [pid_w, 1]  # X, then Y = X + 1
    for i in range(1, K + 1):
        assert lay.le2_snaps[i - 1].base == len(expect) + 1, f"LE2 {i}"  # after its doorway
        expect += tas_register_widths(2)
    full = tas_register_widths(n)
    assert full == [1] + tas_snapshot(n).register_widths()
    assert lay.backstop_snap.base == len(expect) + 1
    expect += full
    assert list(lay.widths) == expect  # no gap, no overlap, and the backstop ends the map


def test_register_count_scales_logarithmically():
    # Theta(log n): the measured totals grow by ~constant per doubling
    counts = {n: len(layout(n).widths) for n in (16, 64, 256, 1024)}
    assert counts[16] == 1313
    assert counts[64] == 1989
    assert counts[256] == 2629
    assert counts[1024] == 3309
    for n in (16, 64, 256):
        assert counts[4 * n] - counts[n] < counts[n]


def test_layout_is_built_once_per_n_and_shared():
    a, b = RandTas(16, seed=5), RandTas(16, seed=5)
    lay = layout(16)
    assert layout(16) is lay and layout.cache_info().maxsize is not None  # cached, bounded
    assert a.layout is b.layout is lay and a.backstop_index == lay.K
    # the layout is immutable, and an instance copies none of it
    assert all(type(f) is tuple for f in (lay.sizes, lay.gw_base, lay.px_reg, lay.le2_snaps, lay.widths))
    hash(lay)
    with pytest.raises(AttributeError):
        lay.widths = ()
    assert set(vars(a)) == {"n", "seed", "layout", "backstop_index", "entered", "split_outcomes", "le2_claims"}

    def one_run(rt):
        machines = rt.machines()
        mem = rt.memory()
        h = History()
        run_live_uniform(machines, mem, random.Random(5), 50_000_000, history=h)
        return (h.events, [(m.steps, m.result) for m in machines], mem.regs,
                rt.entered, rt.split_outcomes, rt.le2_claims)

    first = one_run(a)
    assert first[3] and first[4] and first[5]  # it reached an LE2
    assert not b.entered and not b.split_outcomes and not b.le2_claims
    assert one_run(b) == one_run(RandTas(16, seed=5))


def test_gw_steps_exactly_two_and_winner_rule():
    for s in (2, 3, 5):
        for lvl in range(1, s + 1):
            # draw level lvl: lvl-1 ones then a zero (or run out at s)
            for above_written in (False, True):
                mem = Memory([1] * s)
                if above_written and lvl < s:
                    mem.write(0, 9, lvl, 1)  # someone at level lvl+1
                rng = BitsRng([1] * (lvl - 1))
                g = gw_steps(0, s, rng)
                ops = []
                try:
                    item = g.send(None)
                    while True:
                        ops.append(item)
                        if item[0] == "r":
                            item = g.send(mem.read(0, 0, item[1]))
                        else:
                            mem.write(0, 0, item[1], item[2])
                            item = g.send(None)
                except StopIteration as e:
                    out = e.value
                assert len(ops) == 2, (s, lvl)
                assert ops[0] == ("w", lvl - 1, 1)
                if lvl == s:
                    assert out == WIN  # top level wins outright
                else:
                    assert out == (LOSE if above_written else WIN)


def test_gw_level_distribution():
    # Pr(level=i) = 2^-i with the residual mass on s
    rng = random.Random(99)
    s = 3
    counts = {1: 0, 2: 0, 3: 0}
    trials = 20_000
    for _ in range(trials):
        first = next(gw_steps(0, s, rng))
        counts[first[1] + 1] += 1
    assert abs(counts[1] / trials - 0.5) < 0.02
    assert abs(counts[2] / trials - 0.25) < 0.02
    assert abs(counts[3] / trials - 0.25) < 0.02


def test_gw_never_all_lose():
    rng = random.Random(5)
    for trial in range(500):
        k = rng.randrange(2, 7)
        mem = Memory([1] * 2)
        machines = [
            StepMachine(p, gw_steps(0, 2, rng)) for p in range(k)
        ]
        order = [p for p in range(k) for _ in range(2)]
        rng.shuffle(order)
        run(machines, mem, order)
        assert all(m.done for m in machines)
        assert any(m.result == WIN for m in machines), f"trial {trial}"


def _run_split_pair(order):
    mem = Memory([max(1, 1), 1])  # X (pid width), Y
    ms = [StepMachine(p, split_steps(0, 1, p)) for p in range(2)]
    run(ms, mem, list(order))
    assert all(m.done for m in ms)
    return ms[0].result, ms[1].result


def test_split_exhaustive_two_process_interleavings():
    import itertools

    seen = set()
    for order in set(itertools.permutations([0] * 4 + [1] * 4)):
        a, b = _run_split_pair(order)
        seen.add((a, b))
        assert (a, b).count(WIN) <= 1, order
        assert (a, b).count(CONTINUE) <= 1, order  # never both continue
    assert (WIN, LOSE) in seen  # sequential order: first wins, second loses
    assert any(CONTINUE in pair for pair in seen)  # overtaking is real


def test_split_lone_caller_wins():
    mem = Memory([1, 1])
    m = StepMachine(0, split_steps(0, 1, 0))
    run([m], mem, [0, 0, 0, 0])
    assert m.result == WIN


def test_le2_claims_guard():
    rt = RandTas(4)
    rt._claim_le2(1, 0, 7)
    assert rt.le2_claims == {(1, 0): 7}
    with pytest.raises(RuntimeError, match="claimed"):
        rt._claim_le2(1, 0, 8)
    rt._claim_le2(1, 1, 8)  # other role is fine
    assert rt.le2_claims == {(1, 0): 7, (1, 1): 8}


def test_backstop_plumbing_first_wins_second_loses():
    rt = RandTas(3, seed=2)
    mem = rt.memory()

    def backstop(pid):
        logic = TasLogic(pid, rt.n)
        rng = rt.process_rng(pid)
        prog = wrapped_tas_program(logic, rt.layout.backstop_snap, rt.layout.bn, rng)
        return StepMachine(pid, prog)

    first = backstop(0)
    drain([first], mem, 10**6)
    assert first.result == 0
    second = backstop(1)
    drain([second], mem, 10**6)
    assert second.result == 1
    # backstop registers live in their own bank; doorway untouched
    assert mem.regs[0] == 0


class HeadsRecorder:
    """Always heads; records the argument of every coin draw."""

    def __init__(self):
        self.draws = []

    def randrange(self, n):
        self.draws.append(n)
        return 0


@pytest.mark.parametrize("n", [16, 1024])
def test_every_stage_tas_is_lowered_onto_its_own_bank(n):
    rt = RandTas(n)
    for snap in (*rt.layout.le2_snaps, rt.layout.backstop_snap):
        mem = rt.memory()
        mem.record_trace = True
        coin = HeadsRecorder()
        m = StepMachine(0, wrapped_tas_program(TasLogic(0, snap.n), snap, 50, coin))
        drain([m], mem, 10**6)
        assert m.result == 0
        touched = [reg for _, _, _, reg, _ in mem.trace]
        assert touched[0] == snap.base - 1  # the doorway, first read
        assert snap.base - 1 <= min(touched) and max(touched) <= snap.base + snap.m
        assert coin.draws and set(coin.draws) == {snap.n}


class AllHighRng:
    """Every sifter draw climbs to the top level (everyone wins every
    group-wise sifter) and every wrapper coin is heads."""

    def getrandbits(self, k):
        return 2**k - 1

    def randrange(self, n):
        return 0


def test_pipeline_backstop_admits_one_to_its_splitter():
    rt = RandTas(128, seed=0)
    rt.process_rng = lambda pid: AllHighRng()
    machines = rt.machines()
    mem = rt.memory()
    h = History()
    run(machines, mem, make_schedule("rr", 128, 1000 * 128), history=h)
    drain(machines, mem, 10**6, h)
    K = rt.backstop_index
    assert rt.entered[K] >= 2  # several processes get past every splitter before K
    # only the backstop's winner goes on to the stage-K splitter
    assert sum(rt.split_outcomes[K].values()) == 1
    assert [m.result for m in machines].count(0) == 1
    v = check_tas(h)
    assert v.ok, v.reason


def test_solo_pipeline_wins_quickly():
    rt = RandTas(8, seed=1)
    mem = rt.memory()
    m = rt.machines()[0]
    drain([m], mem, 100_000)
    assert m.done and m.result == 0
    assert mem.regs[0] == 0  # winners never write the doorway
    assert rt.entered[rt.backstop_index] == 0


def test_full_runs_exactly_one_winner():
    for n, base_seed in ((2, 0), (3, 10), (4, 20), (6, 30)):
        for k in range(4):
            seed = base_seed + k
            rt = RandTas(n, seed=seed)
            machines = rt.machines()
            mem = rt.memory()
            h = History()
            run_live_uniform(machines, mem, random.Random(f"s:{seed}"), 50_000_000, history=h)
            assert all(m.done for m in machines)
            results = [m.result for m in machines]
            assert results.count(0) == 1, (n, seed, results)
            v = check_tas(h)
            assert v.ok, (n, seed, v.reason)


def test_latecomer_takes_doorway_fast_path():
    rt = RandTas(4, seed=5)
    machines = rt.machines()
    mem = rt.memory()
    run_live_uniform(machines[:3], mem, random.Random(1), 50_000_000)
    assert all(m.done for m in machines[:3])
    assert sum(1 for m in machines[:3] if m.result == 0) == 1
    assert mem.regs[0] == 1  # some loser marked the doorway
    late = machines[3]
    run([late], mem, [3] * 3)
    assert late.done and late.result == 1 and late.steps == 1


def test_coin_streams_created_only_past_the_doorway():
    def one_run(counting):
        rt = RandTas(16, seed=3)
        created = []
        if counting:
            factory = rt.process_rng

            def counted(pid):
                created.append(pid)
                return factory(pid)

            rt.process_rng = counted
        machines = rt.machines()
        mem = rt.memory()
        mem.record_trace = True
        assert created == []  # set-up seeds no coin stream
        # the first four finish, and their losers close the doorway early
        run_live_uniform(machines[:4], mem, random.Random(2), 50_000_000)
        assert mem.regs[0] == 1
        run_live_uniform(machines[4:], mem, random.Random(3), 50_000_000)
        assert all(m.done for m in machines)
        return created, mem.trace, [(m.result, m.steps) for m in machines]

    created, trace, outcome = one_run(counting=True)
    first_reads = {}
    for _, pid, _, reg, val in trace:
        first_reads.setdefault(pid, (reg, val))
    passed = sorted(p for p, (reg, val) in first_reads.items() if (reg, val) == (0, 0))
    assert sorted(created) == passed and len(set(created)) == len(created)
    assert passed and all(p < 4 for p in passed)
    assert one_run(counting=False)[1:] == (trace, outcome)


def test_a_doorway_exit_builds_no_program():
    # the machine takes the doorway itself: a process that reads 1 there
    # returns 1 in that one step, and only one that reads 0 gets a pipeline
    rt = RandTas(4, seed=3)
    built = []
    pipeline = rt._program

    def counted(pid):
        built.append(pid)
        return pipeline(pid)

    rt._program = counted
    machines = rt.machines()
    mem = rt.memory()
    mem.record_trace = True
    h = History()
    run(machines[:1], mem, [0], h)  # reads 0: passes, with its tas() open
    assert built == [0] and machines[0].steps == 1 and not machines[0].done
    mem.regs[0] = 1  # the doorway closes
    late = machines[2]
    run([late], mem, [9, 9, 2, 2, 2], h)  # pid 9 is absent
    assert built == [0] and late.gen is None
    assert late.done and late.result == 1 and late.steps == 1 and mem.t == 6
    assert mem.trace[-1] == (3, 2, "R", 0, 1)
    assert [(e.pid, e.kind, e.time, e.result) for e in h.events] == [
        (0, "inv", 0, None),
        (2, "inv", 6, None),
        (2, "res", 7, 1),
    ]


def test_untraced_run_equals_traced():
    # untraced, run_live_uniform counts tails blocks down in place and in bulk
    outs = []
    for traced in (True, False):
        rt = RandTas(16, seed=4)
        machines = rt.machines()
        mem = rt.memory()
        mem.record_trace = traced
        h = History()
        run_live_uniform(machines, mem, random.Random(4), 50_000_000, history=h)
        assert all(m.done for m in machines)
        outs.append((h.events, [(m.steps, m.result) for m in machines], mem.regs))
    assert outs[0] == outs[1]
