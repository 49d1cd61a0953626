"""Register simulator: schedules, step machines, histories, runners."""

import dataclasses
import io
import json
import random

import pytest

from tasim import shm
from tasim.atomic import AtomicStore, LogicMachine, explore
from tasim.shm import (
    Event,
    History,
    Memory,
    RegisterWidthError,
    StepMachine,
    drain,
    export_trace_jsonl,
    make_schedule,
    run,
    run_live_uniform,
)
from tasim.randomized import wrapped_tas_system
from tasim.tas_det import S_MAX, ell, tas_machines, tas_store
from tasim.tas_rand import RandTas
from tasim.verify import probe_solo


def counter_prog(pid, reg, rounds):
    # read-increment-write; not atomic on purpose, races are visible
    yield ("inv", "bump", ())
    for _ in range(rounds):
        v = yield ("r", reg)
        yield ("w", reg, v + 1)
    yield ("res", pid)
    return pid


def test_memory_width_enforced():
    mem = Memory([1, 4])
    mem.write(0, 0, 0, 1)
    mem.write(1, 0, 1, 15)
    with pytest.raises(RegisterWidthError):
        mem.write(2, 0, 0, 2)
    with pytest.raises(RegisterWidthError):
        mem.write(3, 0, 1, 16)
    with pytest.raises(RegisterWidthError):
        mem.write(4, 0, 0, -1)


def test_memory_trace_and_export():
    mem = Memory([8], record_trace=True)
    mem.write(0, 1, 0, 7)
    assert mem.read(1, 2, 0) == 7
    assert mem.trace == [(0, 1, "W", 0, 7), (1, 2, "R", 0, 7)]
    buf = io.StringIO()
    export_trace_jsonl(mem.trace, buf)
    lines = [json.loads(x) for x in buf.getvalue().splitlines()]
    assert lines == [
        {"t": 0, "pid": 1, "op": "W", "reg": 0, "val": 7},
        {"t": 1, "pid": 2, "op": "R", "reg": 0, "val": 7},
    ]


def test_schedule_kinds():
    assert make_schedule("rr", 3, 7) == [0, 1, 2, 0, 1, 2, 0]
    assert make_schedule("solo", 2, 8, burst=3) == [0, 0, 0, 1, 1, 1, 0, 0]
    s1 = make_schedule("random", 4, 100, seed=5)
    s2 = make_schedule("random", 4, 100, seed=5)
    assert s1 == s2 and all(0 <= p < 4 for p in s1)
    assert make_schedule("random", 4, 100, seed=6) != s1


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        make_schedule("random", 2, 5)  # no seed
    with pytest.raises(ValueError):
        make_schedule("solo", 2, 5)  # no burst
    with pytest.raises(ValueError):
        make_schedule("zigzag", 2, 5)
    with pytest.raises(ValueError):
        make_schedule("rr", 0, 5)


def test_run_is_deterministic():
    def build():
        mem = Memory([16])
        machines = [StepMachine(p, counter_prog(p, 0, 5)) for p in range(3)]
        return machines, mem

    sched = make_schedule("random", 3, 40, seed=9)
    m1, mem1 = build()
    run(m1, mem1, sched)
    m2, mem2 = build()
    run(m2, mem2, sched)
    assert mem1.regs == mem2.regs
    assert [m.steps for m in m1] == [m.steps for m in m2]


def test_lost_update_race_is_observable():
    # rr schedule interleaves read/write pairs: every increment reads 0 or 1
    mem = Memory([16])
    machines = [StepMachine(p, counter_prog(p, 0, 1)) for p in range(2)]
    run(machines, mem, [0, 1, 0, 1])
    assert mem.regs[0] == 1  # both read 0, both wrote 1


def test_noop_absorption_and_results():
    mem = Memory([16])
    machines = [StepMachine(0, counter_prog(0, 0, 1))]
    h = run(machines, mem, [0] * 10, History())
    m = machines[0]
    assert m.done and m.result == 0 and m.steps == 2  # 8 slots absorbed
    ops = h.ops()
    assert len(ops) == 1 and ops[0].result == 0 and not ops[0].pending


def test_drivers_record_only_a_given_history():
    # run and drain, at register and at snapshot-op granularity, record into
    # the History they are given and make none: without one a run records
    # nothing and returns None.  Each starts at the memory's position t and
    # leaves it after its last slot
    bound = S_MAX * ell(2) + 2
    systems = (
        lambda: ([StepMachine(p, counter_prog(p, 0, 1)) for p in range(2)], Memory([16])),
        lambda: (tas_machines(2), tas_store(2)),
    )
    for make in systems:
        ms, mem = make()
        assert mem.t == 0
        h = History()
        assert run(ms, mem, [0] * bound, h) is h and mem.t == bound
        assert drain(ms, mem, bound, h) is h and mem.t == 2 * bound
        s0, s1 = (m.steps for m in ms)
        assert [(e.pid, e.kind, e.time, e.result) for e in h.events] == [
            (0, "inv", 0, None),
            (0, "res", 2 * s0 - 1, ms[0].result),
            (1, "inv", 2 * bound, None),
            (1, "res", 2 * (bound + s1) - 1, ms[1].result),
        ]
        quiet, mem = make()
        assert run(quiet, mem, [0] * bound) is None and mem.t == bound
        assert drain(quiet, mem, bound) is None and mem.t == 2 * bound
        assert [(m.result, m.steps) for m in quiet] == [(m.result, m.steps) for m in ms]

    # run, drain and run_live_uniform on one Memory: each continues the last
    mem = Memory([16], record_trace=True)
    ms = [StepMachine(p, counter_prog(p, 0, 1)) for p in range(3)]
    h = History()
    run(ms, mem, [0, 1], h)
    assert mem.t == 2
    drain(ms[:2], mem, 10, h)  # pid 0 in slots 2..11, pid 1 in 12..21
    assert mem.t == 22
    assert run_live_uniform(ms[2:], mem, random.Random(0), 10, h) == 2
    assert mem.t == 24 and all(m.done for m in ms)
    assert [e[0] for e in mem.trace] == [0, 1, 2, 12, 22, 23]
    times = [e.time for e in h.events]
    assert times == sorted(set(times)) and times[-2:] == [44, 47]


def test_auto_history_rejected():
    with pytest.raises(ValueError, match="inv/res"):
        StepMachine(0, counter_prog(0, 0, 1), auto_history=True)


def test_explicit_history_res_then_inv():
    # back-to-back operations from one program: the response of op k must
    # get the closing step's timestamp, the next invocation the next step's
    def prog():
        yield ("inv", "first", ())
        yield ("w", 0, 1)
        yield ("res", "a")
        yield ("inv", "second", ())
        yield ("w", 0, 2)
        yield ("res", "b")
        return None

    mem = Memory([4])
    machines = [StepMachine(0, prog())]
    h = run(machines, mem, [0, 0], History())
    ev = [(e.kind, e.op, e.time, e.result) for e in h.events]
    assert ev == [
        ("inv", "first", 0, None),
        ("res", "first", 1, "a"),
        ("inv", "second", 2, None),
        ("res", "second", 3, "b"),
    ]


def test_history_protocol_errors():
    def nested():
        yield ("inv", "a", ())
        yield ("w", 0, 1)
        yield ("inv", "b", ())
        yield ("w", 0, 1)

    def orphan_res():
        yield ("res", 1)
        yield ("w", 0, 1)

    with pytest.raises(ValueError, match="nested"):
        run([StepMachine(0, nested())], Memory([4]), [0, 0])
    with pytest.raises(ValueError, match="without open"):
        StepMachine(0, orphan_res())


def test_program_must_take_a_step():
    def empty():
        return 1
        yield  # pragma: no cover

    with pytest.raises(ValueError):
        StepMachine(0, empty())


def test_only_a_cursor_program_clones():
    # a generator's state cannot be copied, so cloning a machine that runs
    # one fails at once and names the process
    m = RandTas(4, seed=0).machines()[2]
    wrapped = wrapped_tas_system(2)[0][1]
    for machine, pid in ((m, 2), (wrapped, 1)):
        with pytest.raises(TypeError, match=f"pid {pid}: a generator program cannot be cloned"):
            machine.clone()


def test_event_is_a_frozen_dataclass():
    e = Event(4, 1, "res", "tas", (), 0)
    assert [f.name for f in dataclasses.fields(Event)] == [
        "time", "pid", "kind", "op", "args", "result",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.result = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.time = 5
    same = Event(time=4, pid=1, kind="res", op="tas", args=(), result=0)
    assert same == e and hash(same) == hash(e)
    assert Event(4, 1, "res", "tas", (), 1) != e
    assert Event(0, 1, "inv", "tas", ()).result is None
    assert Event(0, 1, "inv", "tas", ()) == Event(0, 1, "inv", "tas", (), None)
    r = dataclasses.replace(e, result=1)
    assert type(r) is Event and r.result == 1 and r.time == 4 and e.result == 0
    assert dataclasses.astuple(r) == (4, 1, "res", "tas", (), 1)


def test_unpaired_events_make_ops_raise():
    h = History()
    h.events.append(Event(0, 1, "res", "op", ()))
    with pytest.raises(ValueError):
        h.ops()
    h2 = History()
    h2.events.append(Event(0, 1, "inv", "op", ()))
    h2.events.append(Event(2, 1, "inv", "op", ()))
    with pytest.raises(ValueError):
        h2.ops()


def test_drain_finishes_each_machine_in_solo_bursts():
    mem = Memory([16], record_trace=True)
    ms = [StepMachine(p, counter_prog(p, 0, 2)) for p in range(2)]
    h = run(ms, mem, [0, 1], History())
    assert mem.t == 2
    drain(ms, mem, 10, h)
    assert all(m.done for m in ms) and mem.t == 22
    # pid 0's burst covers slots 2..11, pid 1's slots 12..21
    assert [e[0] for e in mem.trace] == [0, 1, 2, 3, 4, 12, 13, 14]
    assert [o.pending for o in h.ops()] == [False, False]
    with pytest.raises(RuntimeError, match="solo burst"):
        drain([StepMachine(0, counter_prog(0, 0, 5))], Memory([16]), 3)
    with pytest.raises(ValueError, match="duplicate pid"):
        drain([StepMachine(0, counter_prog(0, 0, 1)) for _ in range(2)], Memory([16]), 9)


def test_run_rejects_duplicate_pids():
    with pytest.raises(ValueError):
        run(
            [StepMachine(0, counter_prog(0, 0, 1)), StepMachine(0, counter_prog(0, 0, 1))],
            Memory([16]),
            [0],
        )


def test_live_uniform_matches_plain_run_distribution():
    # same rng stream drives both: equality is per-seed exact when every
    # sampled slot lands on a live machine, here guaranteed by construction
    def build():
        mem = Memory([16])
        return [StepMachine(p, counter_prog(p, 0, 3)) for p in range(2)], mem

    ms, mem = build()
    steps = run_live_uniform(ms, mem, random.Random(0), 10_000)
    assert all(m.done for m in ms)
    assert steps == sum(m.steps for m in ms)  # no wasted slots

    # respects max_steps
    ms2, mem2 = build()
    assert run_live_uniform(ms2, mem2, random.Random(0), 3) == 3
    assert not all(m.done for m in ms2)


def test_block_op_takes_k_slots_and_resumes_once():
    resumed = []

    def prog():
        yield ("inv", "blk", ())
        v = yield ("r", 1, 4)  # four reads of register 1 in a row
        resumed.append(v)
        yield ("w", 0, v)
        yield ("res", v)
        return v

    def writer():
        yield ("inv", "put", ())
        yield ("w", 1, 5)
        yield ("res", None)

    mem = Memory([8, 8], record_trace=True)
    ms = [StepMachine(0, prog()), StepMachine(1, writer())]
    h = run(ms, mem, [0, 0, 1, 0, 0, 0, 0, 0], History())
    m = ms[0]
    assert mem.t == 8 and m.done and m.result == 5
    assert resumed == [5]  # once, with the last read's value
    assert m.steps == 5  # four reads and the write; slots 6 and 7 are no-ops
    assert [e for e in mem.trace if e[1] == 0] == [
        (0, 0, "R", 1, 0),
        (1, 0, "R", 1, 0),
        (3, 0, "R", 1, 5),
        (4, 0, "R", 1, 5),
        (5, 0, "W", 0, 5),
    ]
    ev = [(e.pid, e.kind, e.time) for e in h.events]
    assert ev == [(0, "inv", 0), (1, "inv", 4), (1, "res", 5), (0, "res", 11)]


def test_block_op_pending_invocation_attaches_to_first_read():
    def prog():
        yield ("inv", "look", ())
        v = yield ("r", 0, 3)
        yield ("res", v)
        return v

    mem = Memory([4], record_trace=True)
    m = StepMachine(0, prog())
    h = run([m], mem, [1, 0, 0, 0, 0, 0], History())  # pid 1 is absent
    assert m.done and m.steps == 3 and mem.t == 6
    assert [e[0] for e in mem.trace] == [1, 2, 3]
    assert [(e.kind, e.time, e.result) for e in h.events] == [
        ("inv", 2, None),
        ("res", 7, 0),
    ]


def test_block_op_equals_single_reads():
    def singles(reg, k):
        yield ("inv", "look", ())
        v = None
        for _ in range(k):
            v = yield ("r", reg)
        yield ("res", v)
        return v

    def block(reg, k):
        yield ("inv", "look", ())
        v = yield ("r", reg, k)
        yield ("res", v)
        return v

    sched = make_schedule("random", 3, 200, seed=4)
    runs = []
    for reader in (singles, block):
        mem = Memory([16], record_trace=True)
        ms = [StepMachine(0, reader(0, 7)), StepMachine(1, reader(0, 1))]
        ms += [StepMachine(2, counter_prog(2, 0, 6))]
        h = run(ms, mem, sched, History())
        runs.append((mem.trace, h.events, [(m.result, m.steps) for m in ms]))
    assert runs[0] == runs[1]


def test_block_op_rejects_bad_length():
    def prog(k):
        yield ("r", 0, k)

    for k in (0, -2, 1.5):
        with pytest.raises(ValueError, match="block length"):
            run([StepMachine(0, prog(k))], Memory([4]), [0])


def test_live_uniform_draws_as_randrange():
    # pid p takes p + 1 steps, so machines finish at staggered times and the
    # live count falls from 17 through every power of two down to 1
    n = 17

    def prog(p):
        for _ in range(p + 1):
            yield ("r", 0)

    for seed in range(5):
        mem = Memory([1], record_trace=True)
        rng = random.Random(seed)
        run_live_uniform([StepMachine(p, prog(p)) for p in range(n)], mem, rng, 10_000)

        ref = random.Random(seed)
        left = [p + 1 for p in range(n)]
        live = list(range(n))
        order = []
        while live:
            i = ref.randrange(len(live))
            p = live[i]
            order.append(p)
            left[p] -= 1
            if not left[p]:
                live[i] = live[-1]
                live.pop()
        assert [e[1] for e in mem.trace] == order
        assert rng.getstate() == ref.getstate()


def test_live_uniform_rejects_duplicate_pids():
    m = StepMachine(0, counter_prog(0, 0, 1))
    twins = [StepMachine(0, counter_prog(0, 0, 1)), StepMachine(0, counter_prog(0, 0, 1))]
    for machines in ([m, m], twins):
        with pytest.raises(ValueError, match="duplicate pid"):
            run_live_uniform(machines, Memory([16]), random.Random(0), 10)
        assert all(x.steps == 0 for x in machines)


def block_prog(pid, script):
    # (reg, k): k reads of reg as one block op, or a write of the sum if k == 0
    acc = 0
    yield ("inv", "blk", ())
    for reg, k in script:
        if k:
            acc += yield ("r", reg, k)
        else:
            yield ("w", reg, (acc + pid) % 256)
    yield ("res", acc)
    return acc


def test_live_uniform_untraced_equals_traced(monkeypatch):
    # untraced, middle block reads are counted down in place and long
    # stretches of them skipped in bulk; traced, every read is a step call
    skips = []
    bulk = shm._skip_blocks

    def spy(live, getrandbits, budget):
        taken = bulk(live, getrandbits, budget)
        skips.append((len(live), budget, taken))
        return taken

    monkeypatch.setattr(shm, "_skip_blocks", spy)
    gen = random.Random(12)
    for case in range(60):
        n = gen.choice([1, 2, 3, 5, 16, 255, 256, 257])
        if n < 255:
            lengths = [0, 1, 2, 33, 34, 35, 2000]
            scripts = [
                [(gen.randrange(4), gen.choice(lengths + [gen.randint(1, 2000)])) for _ in range(gen.randint(1, 4))]
                for _ in range(n)
            ]
        else:  # one block each: all machines end up inside blocks at once
            scripts = [[(gen.randrange(4), gen.randint(60, 200))] for _ in range(n)]
        total = sum(k or 1 for script in scripts for _, k in script)
        cap = gen.choice([total, gen.randint(1, total)])
        outs = []
        for traced in (True, False):
            mem = Memory([8] * 4, record_trace=traced)
            machines = [StepMachine(p, block_prog(p, script)) for p, script in enumerate(scripts)]
            rng = random.Random(case)
            h = History()
            got = run_live_uniform(machines, mem, rng, cap, history=h)
            states = [(m.steps, m.done, m.result, m._left) for m in machines]
            outs.append((got, states, mem.regs, rng.getstate(), h.events))
        assert outs[0] == outs[1], case
    assert any(c == 255 and taken for c, _, taken in skips)
    assert all(c <= 255 for c, _, _ in skips)
    assert any(0 < taken == budget for _, budget, taken in skips)  # a cap inside a stretch


def test_getrandbits_packs_words_as_the_bulk_skip_assumes():
    # run_live_uniform reads w index draws out of one getrandbits(32*w); an
    # interpreter that packs words otherwise must fail here, not change runs
    for seed in range(4):
        for w in (1, 2, 7, 64):
            bulk, words = random.Random(seed), random.Random(seed)
            packed = sum(words.getrandbits(32) << (32 * j) for j in range(w))
            assert bulk.getrandbits(32 * w) == packed
            assert bulk.getstate() == words.getstate()
        for k in range(1, 9):
            short, words = random.Random(seed), random.Random(seed)
            got = [short.getrandbits(k) for _ in range(50)]
            assert got == [words.getrandbits(32) >> (32 - k) for _ in range(50)]


class GuardedStepMachine(StepMachine):
    __slots__ = ()

    def step(self, memory, t, history):
        assert not self.done, f"pid {self.pid} stepped after it finished"
        super().step(memory, t, history)


class GuardedBump(LogicMachine):
    """Read plain register 0, write it back plus one; fail if stepped after."""

    op_name = "bump"

    def __init__(self, pid):
        super().__init__(pid)
        self.op = ("r", 0)

    def advance(self, res):
        if self.op[0] == "r":
            self.op = ("w", 0, res + 1)
        else:
            self.op, self.done, self.result = None, True, self.pid

    def step(self, store, t, history):
        assert not self.done, f"pid {self.pid} stepped after it finished"
        super().step(store, t, history)


def test_drivers_never_step_a_finished_machine():
    # a machine's step does not check `done`: every driver must
    def step_system(rng=None):
        script = [(0, 40), (0, 0), (0, 3)]  # ends on a block op: 44 steps
        return [GuardedStepMachine(p, block_prog(p, script)) for p in range(3)], Memory([8])

    def logic_system(rng=None):
        return [GuardedBump(p) for p in range(3)], AtomicStore([], n_regs=1)

    for make in (step_system, logic_system):
        ms, mem = make()
        run(ms, mem, [0, 1, 2] * 50 + [0] * 5)  # slots long after each finished
        assert all(m.done for m in ms)
        ms, mem = make()
        run(ms, mem, [0] * 50)  # pid 0 finishes, then takes more slots
        drain(ms, mem, 50)
        assert all(m.done for m in ms)
        assert probe_solo(make, 40, 50, seed=1, prefix_max=150).ok
    for traced in (False, True):
        ms, mem = step_system()
        mem.record_trace = traced
        run_live_uniform(ms, mem, random.Random(4), 10_000)
        assert all(m.done for m in ms)
    terminals, _ = explore(logic_system)
    assert sum(terminals.values()) > 0
