"""Register simulator: schedules, step machines, histories, runners."""

import dataclasses
import io
import json
import random
from operator import attrgetter

import pytest

from tasim import shm
from tasim.atomic import AtomicStore, LogicMachine, explore
from tasim.shm import (
    Event,
    History,
    Memory,
    RegisterWidthError,
    StepMachine,
    as_cursor,
    drain,
    draw_pids,
    export_trace_jsonl,
    make_schedule,
    run,
    run_live_uniform,
)
from tasim.randomized import wrapped_tas_system
from tasim.tas_det import solo_op_bound, tas_machines, tas_store
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


def test_draw_pids_draws_as_randrange():
    # the same list and the same final state as one randrange(n) per pid,
    # across the bulk path (n < 256, more than 16 wanted) and the per-pid one
    for n in range(1, 1025):
        for count in (0, 1, 16, 17, 40, 150):
            ref, rng = random.Random(n * 1000 + count), random.Random(n * 1000 + count)
            assert draw_pids(rng, n, count) == [ref.randrange(n) for _ in range(count)], (n, count)
            assert rng.getstate() == ref.getstate(), (n, count)
    for n in (0, -3):
        for count in (0, 5):
            with pytest.raises(ValueError):
                draw_pids(random.Random(1), n, count)


def test_random_schedule_keeps_its_lists():
    # make_schedule("random") draws through draw_pids; these are the lists
    # its one-randrange-per-entry loop gave
    for n, length, seed in ((1, 9, 0), (2, 50, 1), (3, 200, 7), (8, 1000, 42), (255, 300, 3),
                            (300, 300, 5), (1024, 77, -2)):
        rng = random.Random(f"schedule:{seed}")
        want = [rng.randrange(n) for _ in range(length)]
        assert make_schedule("random", n, length, seed=seed) == want, (n, length, seed)


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
    assert [(e.kind, e.result) for e in h.events] == [("inv", None), ("res", 0)]


def test_drivers_record_only_a_given_history():
    # run and drain, at register and at snapshot-op granularity, record into
    # the History they are given and make none: without one a run records
    # nothing and returns None.  Each starts at the memory's position t and
    # leaves it after its last slot
    bound = solo_op_bound(2)
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

    def late_orphan_res():
        yield ("w", 0, 1)
        yield ("res", 1)

    def unknown():
        yield ("w", 0, 1)
        yield ("x", 0)

    with pytest.raises(ValueError, match="nested"):
        run([StepMachine(0, nested())], Memory([4]), [0, 0])
    with pytest.raises(ValueError, match="without open"):
        StepMachine(0, orphan_res())
    # the same faults met after a step, on the way to the next shared op
    with pytest.raises(ValueError, match="without open"):
        run([StepMachine(0, late_orphan_res())], Memory([4]), [0])
    with pytest.raises(ValueError, match="unknown yield"):
        run([StepMachine(0, unknown())], Memory([4]), [0])


def test_program_ending_after_an_invocation_raises():
    # an inv waits for the next shared step to open it; a program that ends
    # first would otherwise leave the operation in no history at all
    def dangling():
        yield ("w", 0, 1)
        yield ("inv", "op", ())

    h = History()
    with pytest.raises(ValueError, match="pid 3: program ended after invoking 'op'"):
        run([StepMachine(3, dangling())], Memory([4]), [3], h)
    assert h.events == []


def test_response_before_the_invocation_took_a_step_raises():
    # an inv opens only at the next shared step, so a res before that step
    # names the pending op, whether met at construction or after a step
    def early_res():
        yield ("inv", "x", ())
        yield ("res", 1)

    def late_early_res():
        yield ("w", 0, 1)
        yield ("inv", "x", ())
        yield ("res", 1)
        yield ("w", 0, 1)

    with pytest.raises(ValueError, match="pid 0: response after invoking 'x' without a step"):
        StepMachine(0, early_res())
    h = History()
    with pytest.raises(ValueError, match="pid 3: response after invoking 'x' without a step"):
        run([StepMachine(3, late_early_res())], Memory([4]), [3], h)
    assert h.events == []


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


def test_a_generator_machine_refuses_clone_and_key_naming_its_pid():
    m = RandTas(4, seed=0).machines()[2]
    with pytest.raises(TypeError, match="pid 2: a generator program cannot be cloned"):
        m.clone()
    with pytest.raises(TypeError, match="pid 2: a generator program cannot be keyed"):
        m.key()


def test_a_generator_sub_program_refuses_clone_and_key():
    # as_cursor adapts a generator scan (perfbench's counting scan) but
    # cannot copy or key its state, so two of its states must never merge
    def read_once():
        yield ("r", 0)

    sub = as_cursor(read_once())
    assert sub.step(None) == ("r", 0)
    with pytest.raises(TypeError, match="a generator program cannot be cloned"):
        sub.clone()
    with pytest.raises(TypeError, match="a generator program cannot be keyed"):
        sub.key()


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


def test_event_is_the_tuple_of_its_fields():
    fields = (4, 1, "res", "tas", (), 0)
    e, made = Event(*fields), shm.new_event(fields)
    assert type(e) is Event and type(made) is Event and made == e and hash(made) == hash(e)
    assert tuple(e) == tuple(made) == fields
    assert tuple(getattr(e, f.name) for f in dataclasses.fields(Event)) == fields
    assert not hasattr(e, "__dict__")
    assert repr(made) == "Event(time=4, pid=1, kind='res', op='tas', args=(), result=0)"
    assert shm.new_event((0, 1, "inv", "tas", (), None)) == Event(0, 1, "inv", "tas", ())
    # equality and hashing are the tuple's: an Event equals its plain tuple
    assert e == fields and fields == e and hash(e) == hash(fields)
    assert e != fields[:5] and Event(*fields[:5]) != fields


def test_every_recorder_records_events():
    # equality cannot tell an Event from the plain tuple of its fields, so
    # the recorders' output is checked by type
    steppers = [StepMachine(p, counter_prog(p, 0, 2)) for p in range(2)]
    histories = [
        run(steppers, Memory([16]), [0, 1] * 6, History()),
        drain(tas_machines(3), tas_store(3), solo_op_bound(3), History()),
    ]
    rt = RandTas(16, seed=3)
    machines, mem = rt.machines(), rt.memory()
    h = History()
    run_live_uniform(machines, mem, random.Random(3), 10**7, history=h)
    assert any(m.steps == 1 for m in machines)  # doorway exits recorded too
    histories.append(h)
    terminals, _ = explore(lambda: (tas_machines(2), tas_store(2)), by_history=True)
    histories += [History(list(events)) for events in terminals]
    assert all(h.events for h in histories)
    assert {type(ev) for h in histories for ev in h.events} == {Event}


def test_drain_finishes_each_machine_in_solo_bursts():
    mem = Memory([16], record_trace=True)
    ms = [StepMachine(p, counter_prog(p, 0, 2)) for p in range(2)]
    h = run(ms, mem, [0, 1], History())
    assert mem.t == 2
    drain(ms, mem, 10, h)
    assert all(m.done for m in ms) and mem.t == 22
    # pid 0's burst covers slots 2..11, pid 1's slots 12..21
    assert [e[0] for e in mem.trace] == [0, 1, 2, 3, 4, 12, 13, 14]
    assert [(e.pid, e.kind) for e in h.events] == [
        (0, "inv"), (1, "inv"), (0, "res"), (1, "res"),
    ]
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
        v = yield ("c", ("r", 1), 4)  # four reads of register 1 in a row
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
        v = yield ("c", ("r", 0), 3)
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
        v = yield ("c", ("r", reg), k)
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


def test_multi_read_op_shape_is_checked_where_it_is_set_up():
    # no reads, an `against` of another length or a bad block length
    # raises, naming the pid, before the op's first read
    reads = (("r", 0), ("r", 1))
    bad = [
        ("c", reads, (9, 1, 2)),  # once compared from the end: True
        ("c", reads, (1,)),
        ("c", (), None),
        ("c", (), ()),
        ("c", ("r", 0), 0),
        ("c", ("r", 0), -2),
        ("c", ("r", 0), 1.5),
    ]

    def prog(op, first):
        if first is not None:
            yield first
        yield op

    for op in bad:
        for first in (None, ("inv", "look", ()), ("w", 0, 1)):
            mem = Memory([4, 4], record_trace=True)
            mem.regs[:] = [1, 2]
            with pytest.raises(ValueError, match=r"pid 3: bad multi-read op"):
                run([StepMachine(3, prog(op, first))], mem, [3, 3])
            assert mem.trace == ([(0, 3, "W", 0, 1)] if first == ("w", 0, 1) else [])


def test_collect_op_takes_k_slots_and_resumes_once():
    reads = (("r", 1), ("r", 0), ("r", 1))
    resumed = []

    def prog():
        yield ("inv", "look", ())
        vals = yield ("c", reads, None)  # the values read
        resumed.append(vals)
        same = yield ("c", reads, (5, 0, 5))  # whether each value matched
        resumed.append(same)
        yield ("res", same)
        return same

    def writer():
        yield ("inv", "put", ())
        yield ("w", 1, 5)
        yield ("res", None)

    mem = Memory([8, 8], record_trace=True)
    ms = [StepMachine(0, prog()), StepMachine(1, writer())]
    m, h, poised = ms[0], History(), []
    for pid in [0, 0, 1, 0, 0, 0, 0, 0, 0]:
        if pid == 0 and not m.done:
            poised.append(m.op)  # the collect's read due next
        run(ms, mem, [pid], h)
    assert mem.t == 9 and m.done and m.result is True
    assert resumed == [(0, 0, 5), True]  # once per collect, after its last read
    assert m.steps == 6 and poised == list(reads) * 2
    assert [e for e in mem.trace if e[1] == 0] == [
        (0, 0, "R", 1, 0),
        (1, 0, "R", 0, 0),
        (3, 0, "R", 1, 5),
        (4, 0, "R", 1, 5),
        (5, 0, "R", 0, 0),
        (6, 0, "R", 1, 5),
    ]
    ev = [(e.pid, e.kind, e.time) for e in h.events]
    assert ev == [(0, "inv", 0), (1, "inv", 4), (1, "res", 5), (0, "res", 13)]


def test_collect_op_pending_invocation_attaches_to_first_read():
    def prog():
        yield ("inv", "look", ())
        v = yield ("c", (("r", 0), ("r", 0)), None)
        yield ("res", v)
        return v

    mem = Memory([4], record_trace=True)
    m = StepMachine(0, prog())
    h = run([m], mem, [1, 0, 1, 0, 0], History())  # pid 1 is absent
    assert m.done and m.steps == 2 and m.result == (0, 0) and mem.t == 5
    assert [e[0] for e in mem.trace] == [1, 3]
    assert [(e.kind, e.time, e.result) for e in h.events] == [
        ("inv", 2, None),
        ("res", 7, (0, 0)),
    ]


def collect_prog(pid, script, whole):
    # per tuple of registers: collect them, collect them again against the
    # first values, then write; as collect ops if `whole`, else read by read
    acc = 0
    yield ("inv", "look", ())
    for regs in script:
        reads = tuple(("r", r) for r in regs)
        if whole:
            c1 = yield ("c", reads, None)
            same = yield ("c", reads, c1)
        else:
            c1 = ()
            for op in reads:
                c1 += ((yield op),)
            same = True
            for op, v in zip(reads, c1):
                same = (yield op) == v and same
        acc += sum(c1) + same
        yield ("w", regs[0], (acc + pid) % 256)
    yield ("res", acc)
    return acc


def test_collect_op_equals_single_reads():
    gen = random.Random(7)
    for case in range(30):
        n = gen.choice([1, 2, 3, 5])
        scripts = [
            [tuple(gen.randrange(4) for _ in range(gen.randint(1, 5))) for _ in range(gen.randint(1, 4))]
            for _ in range(n)
        ]
        sched = make_schedule("random", n, 120, seed=case)
        for driver in ("run", "traced", "untraced"):
            outs = []
            for whole in (False, True):
                mem = Memory([8] * 4, record_trace=driver != "untraced")
                ms = [StepMachine(p, collect_prog(p, script, whole)) for p, script in enumerate(scripts)]
                h, rng = History(), random.Random(case)
                if driver == "run":
                    run(ms, mem, sched, h)
                else:
                    run_live_uniform(ms, mem, rng, 150, history=h)
                states = [(m.steps, m.done, m.result) for m in ms]
                outs.append((mem.trace, h.events, states, mem.regs, mem.t, rng.getstate()))
            assert outs[0] == outs[1], (case, driver)


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


def multi_prog(pid, script):
    # per entry: ("b", reg, k), k reads of reg as one block; ("w", reg), a
    # write of the sum so far; ("c", regs, against), one collect of regs,
    # answered by the values if `against` is None, else by whether they
    # match it; ("i",), the open invocation, if any, closes and one opens
    acc, opened = 0, False
    for kind, *args in script:
        if kind == "b":
            reg, k = args
            acc += yield ("c", ("r", reg), k)
        elif kind == "w":
            yield ("w", args[0], (acc + pid) % 256)
        elif kind == "c":
            regs, against = args
            got = yield ("c", tuple(("r", r) for r in regs), against)
            acc += sum(got) if against is None else got
        else:
            if opened:
                yield ("res", acc)
            yield ("inv", "blk", ())
            opened = True
    if opened:
        yield ("res", acc)
    return acc


def multi_script(gen):
    entries = []
    for _ in range(gen.randint(1, 5)):
        if gen.random() < 0.3:  # the next op opens an invocation
            entries.append(("i",))
        kind, reg = gen.choice("bbwcc"), gen.randrange(4)
        if kind == "b":
            entries.append(("b", reg, gen.choice([1, 2, 33, 34, 35, 2000, gen.randint(1, 2000)])))
        elif kind == "w":
            entries.append(("w", reg))
        elif kind == "c":  # 40 reads: longer than a bulk skip's threshold
            regs = tuple(gen.randrange(4) for _ in range(gen.choice([1, 2, 5, 40])))
            zeros = (0,) * len(regs)
            against = gen.choice([None, None, zeros, (255,) + zeros[1:], zeros[:-1] + (255,)])
            entries.append(("c", regs, against))
    return entries


def script_slots(entry):
    # the schedule slots a multi_prog script entry takes
    kind = entry[0]
    return entry[2] if kind == "b" else len(entry[1]) if kind == "c" else int(kind == "w")


def test_live_uniform_untraced_equals_traced(monkeypatch):
    # untraced, block reads are counted down in place and long stretches of
    # them skipped in bulk; traced, every read is a step call.  Scripts mix
    # blocks with collects of both answers (some longer than _SKIP, some
    # mismatching at their first or last read) and invocations that open
    # just before a block or a collect, and each run resumes once
    skips = []
    bulk = shm._skip_blocks

    def spy(live, getrandbits, budget):
        # called only when it can skip: every live machine is deep in a block
        assert all(m._left > shm._SKIP and m._got is None for m in live)
        taken = bulk(live, getrandbits, budget)
        skips.append((len(live), budget, taken))
        return taken

    monkeypatch.setattr(shm, "_skip_blocks", spy)
    gen = random.Random(12)
    for case in range(60):
        n = gen.choice([1, 2, 3, 5, 16, 255, 256, 257])
        if n < 255:
            scripts = [multi_script(gen) for _ in range(n)]
        else:  # one block each: all machines end up inside blocks at once
            scripts = [[("i",), ("b", gen.randrange(4), gen.randint(60, 200))] for _ in range(n)]
        total = sum(script_slots(e) for script in scripts for e in script)
        cap = gen.choice([total, gen.randint(1, total)])
        split = gen.randint(0, cap)  # the run resumes there, maybe mid-collect
        outs = []
        for traced in (True, False):
            mem = Memory([8] * 4, record_trace=traced)
            machines = [StepMachine(p, multi_prog(p, script)) for p, script in enumerate(scripts)]
            rng = random.Random(case)
            h = History()
            got = run_live_uniform(machines, mem, rng, split, history=h)
            got += run_live_uniform(machines, mem, rng, cap - split, history=h)
            states = [attrgetter(*StepMachine.FIELDS)(m) for m in machines]
            outs.append((got, states, mem.regs, rng.getstate(), h.events))
        assert outs[0] == outs[1], case
    assert any(c == 255 and taken for c, _, taken in skips)
    assert all(c <= 255 for c, _, _ in skips)
    assert any(0 < taken == budget for _, budget, taken in skips)  # a cap inside a stretch


def test_live_uniform_resumed_deep_in_blocks_matches_traced():
    # a run that resumes with every live machine deep in a block equals the
    # slot-by-slot traced run: slots, states, registers, rng state and events
    gen = random.Random(31)
    for n in (1, 2, 16, 255):
        scripts = [
            [("b", gen.randrange(4), gen.randint(120, 300)), ("i",), ("w", gen.randrange(4)),
             ("b", gen.randrange(4), 40)]
            for _ in range(n)
        ]
        total = sum(script_slots(e) for script in scripts for e in script)
        split = 10 * n  # each machine still deep in its first block
        outs = []
        for traced in (True, False):
            mem = Memory([8] * 4, record_trace=traced)
            machines = [StepMachine(p, multi_prog(p, script)) for p, script in enumerate(scripts)]
            rng = random.Random(n)
            h = History()
            got = run_live_uniform(machines, mem, rng, split, history=h)
            assert all(m._left > shm._SKIP and m._got is None for m in machines)
            got += run_live_uniform(machines, mem, rng, total, history=h)
            assert all(m.done for m in machines)
            states = [attrgetter(*StepMachine.FIELDS)(m) for m in machines]
            outs.append((got, states, mem.regs, rng.getstate(), h.events))
        assert outs[0] == outs[1], n


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
        script = [("i",), ("b", 0, 40), ("w", 0), ("b", 0, 3)]  # ends on a block: 44 steps
        return [GuardedStepMachine(p, multi_prog(p, script)) for p in range(3)], Memory([8])

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
