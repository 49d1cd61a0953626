"""Bounded snapshot: step counts, parity handshake, linearizability."""

import random

import pytest

from tasim.atomic import explore
from tasim.shm import History, StepMachine, drain, make_schedule, run
from tasim.snapshot import BoundedSnapshot, ScriptLogic, ops_program
from tasim.verify import SnapshotSequential, check_linearizable, probe_solo


def test_layout_and_widths():
    s = BoundedSnapshot(3, 4, n=5, value_bits=7)
    assert [s.a_reg(i) for i in range(4)] == [3, 4, 5, 6]
    assert s.s_reg == 7
    assert s.pid_bits == 3
    assert s.cell_width == 7 + 3 + 1
    assert s.register_widths() == [11, 11, 11, 11, 3]
    with pytest.raises(ValueError):
        s.fresh_memory()  # base != 0
    with pytest.raises(ValueError):
        BoundedSnapshot(0, 0, 1, 1)


def test_update_cell_layout():
    # a generic cell is (x << (pid_bits+1)) | ((pid+1) << 1) | b, read off
    # the cell write that update_steps yields
    s = BoundedSnapshot(0, 1, n=6, value_bits=9)
    rng = random.Random(0)
    for _ in range(200):
        w = rng.randrange(1 << 9)
        pid = rng.randrange(6)
        b = rng.randrange(2)
        sub, parity = s.update_steps(pid, 0, w, b)
        steps = list(sub)
        assert steps == [
            ("w", s.s_reg, pid),
            ("w", s.a_reg(0), (w << (s.pid_bits + 1)) | ((pid + 1) << 1) | b),
        ]
        assert 0 < steps[1][2] < (1 << s.cell_width)  # 0 is the unwritten cell
        assert parity == b ^ 1


def test_update_is_exactly_two_steps():
    s = BoundedSnapshot(0, 3, n=2, value_bits=4)
    for pid in range(2):
        parity = 0
        for comp in range(3):
            for x in (0, 7, 15):
                sub, parity = s.update_steps(pid, comp, x, parity)
                assert len(list(sub)) == 2


def test_update_parity_alternates_per_writer_component():
    s = BoundedSnapshot(0, 2, n=2, value_bits=4)
    bits = [0, 0]  # each writer's own bits, bit i for component i

    def cell_bit(pid, comp, x):
        sub, bits[pid] = s.update_steps(pid, comp, x, bits[pid])
        steps = list(sub)
        assert steps[0] == ("w", s.s_reg, pid)
        assert steps[1][2] >> 1 == (x << s.pid_bits) | (pid + 1)  # layout: test above
        return steps[1][2] & 1

    assert cell_bit(0, 0, 5) == 0
    assert cell_bit(0, 0, 5) == 1  # same writer+comp: parity flips
    assert cell_bit(0, 0, 5) == 0
    assert cell_bit(0, 1, 5) == 0  # other comp: independent bit
    assert cell_bit(1, 0, 5) == 0  # other writer's bits: independent bit
    assert bits == [0b11, 0b01]


def test_update_domain_checks():
    s = BoundedSnapshot(0, 2, n=2, value_bits=4)
    with pytest.raises(ValueError):
        list(s.update_steps(0, 2, 1, [0, 0]))
    with pytest.raises(ValueError):
        list(s.update_steps(0, 0, 16, [0, 0]))
    with pytest.raises(ValueError):
        list(s.update_steps(2, 0, 1, [0, 0]))
    with pytest.raises(ValueError):
        next(s.scan_steps(-1))


def test_op_steps_builds_every_store_op():
    # plain register r sits at base - 1 - r; only an update changes the bits
    s = BoundedSnapshot(3, 2, n=2, value_bits=4)
    sub, bits = s.op_steps(1, ("u", 1, 5), 0b01)
    assert list(sub) == [("w", s.s_reg, 1), ("w", s.a_reg(1), (5 << 3) | (2 << 1))]
    assert bits == 0b11
    for op, steps in ((("r", 0), [("r", 2)]), (("w", 2, 1), [("w", 0, 1)])):
        sub, bits = s.op_steps(1, op, 0b01)
        assert list(sub) == steps and bits == 0b01
    sub, _ = s.op_steps(1, ("r", 0), 0)  # its result is the read's response
    assert sub.step(None) == ("r", 2) and sub.step(7) is None and sub.result == 7
    sub, bits = s.op_steps(0, ("s", 0, 2), 0b01)
    assert sub.step(None) == ("w", s.s_reg, 0) and bits == 0b01
    with pytest.raises(ValueError, match=r"unknown store op \('x', 0\)"):
        s.op_steps(0, ("x", 0), 0)
    with pytest.raises(ValueError, match=r"store op \('w', 3, 1\): no plain register 3 below base 3"):
        s.op_steps(0, ("w", 3, 1), 0)
    for lo, hi in ((-1, 2), (0, 3), (1, 1)):  # 0 <= lo < hi <= m: (-1, 2) once scanned all
        with pytest.raises(ValueError, match=rf"store op \('s', {lo}, {hi}\): scan range outside 0..2"):
            s.op_steps(0, ("s", lo, hi), 0)


def _recording_op_steps(monkeypatch):
    """Record every store op `BoundedSnapshot.op_steps` builds."""
    built, op_steps = [], BoundedSnapshot.op_steps

    def recording(self, pid, op, parity):
        built.append(op)
        return op_steps(self, pid, op, parity)

    monkeypatch.setattr(BoundedSnapshot, "op_steps", recording)
    return built


def test_ops_program_builds_its_steps_through_op_steps(monkeypatch):
    built = _recording_op_steps(monkeypatch)
    s = BoundedSnapshot(0, 2, n=1, value_bits=4)
    m = StepMachine(0, ops_program(s, 0, [("update", 1, 3), ("scan",), ("update", 1, 2)]))
    drain([m], s.fresh_memory(), 50)
    assert built == [("u", 1, 3), ("s", 0, 2), ("u", 1, 2)]
    assert m.result == ((0, 3),) and m.steps == 2 + (2 * 2 + 2) + 2


def test_ops_program_refuses_an_unknown_script_op(monkeypatch):
    built = _recording_op_steps(monkeypatch)
    s = BoundedSnapshot(0, 2, n=2, value_bits=4)
    with pytest.raises(ValueError, match=r"unknown script op \('swap',\)"):
        StepMachine(0, ops_program(s, 0, [("swap",)]))
    assert built == []  # it raises before building any store op


def test_a_script_op_out_of_range_is_refused_at_both_granularities(monkeypatch):
    # the atomic store would write comps[-1] silently, so the logic refuses
    # it when built, and so does the lowered program, before any store op
    built = _recording_op_steps(monkeypatch)
    s = BoundedSnapshot(0, 2, n=2, value_bits=4)
    for bad in (("update", -1, 1), ("update", 2, 1)):
        script = [("scan",), bad]
        with pytest.raises(ValueError, match=f"component {bad[1]} out of range"):
            ScriptLogic(0, script, 2)
        with pytest.raises(ValueError, match=f"component {bad[1]} out of range"):
            ops_program(s, 0, script)
    with pytest.raises(ValueError, match=r"unknown script op \('swap',\)"):
        ScriptLogic(0, [("scan",), ("swap",)], 2)
    assert built == []


def test_one_snapshot_serves_two_runs():
    # the snapshot holds no run state, so a second run under the same
    # schedule repeats the first register for register
    snap = BoundedSnapshot(0, 2, n=2, value_bits=4)

    def one_run():
        memory = snap.fresh_memory(record_trace=True)
        machines = [
            StepMachine(pid, ops_program(snap, pid, [("update", 0, pid + 1), ("scan",)]))
            for pid in range(2)
        ]
        history = run(machines, memory, make_schedule("random", 2, 200, seed=5), History())
        assert all(m.done for m in machines)
        return memory.trace, history.events, [m.result for m in machines]

    assert one_run() == one_run()


def test_fresh_solo_scan_cost_and_view():
    m = 6
    s = BoundedSnapshot(0, m, n=3, value_bits=4)
    mem = s.fresh_memory()
    writer = StepMachine(1, ops_program(s, 1, [("update", 4, 9)]))
    drain([writer], mem, 10_000)
    assert writer.steps == 2
    scanner = StepMachine(0, ops_program(s, 0, [("scan",)]))
    drain([scanner], mem, 10_000)
    assert scanner.steps == 2 * m + 2
    assert scanner.result == ((0, 0, 0, 0, 9, 0),)


def test_update_mid_scan_forces_retry():
    m = 2
    s = BoundedSnapshot(0, m, n=2, value_bits=4)
    mem = s.fresh_memory()
    scanner = StepMachine(0, ops_program(s, 0, [("scan",)]))
    updater = StepMachine(1, ops_program(s, 1, [("update", 0, 3)]))
    # scanner does W S + first collect, updater lands both writes, scanner
    # finishes the attempt (c2 differs and S was overwritten), then retries
    run([scanner, updater], mem, [0, 0, 0, 1, 1] + [0] * 20)
    assert scanner.done and updater.done
    assert scanner.steps == (2 * m + 2) * 2
    assert scanner.result == ((3, 0),)


def test_sequential_history_linearizes():
    s = BoundedSnapshot(0, 2, n=1, value_bits=4)
    mem = s.fresh_memory()
    m = StepMachine(
        0, ops_program(s, 0, [("update", 1, 5), ("scan",), ("update", 0, 2), ("scan",)])
    )
    h = run([m], mem, [0] * 40, History())
    assert m.result == ((0, 5), (2, 5))
    assert check_linearizable(h, SnapshotSequential(2, 0))


def test_random_concurrent_histories_linearize():
    rng = random.Random(7)
    for trial in range(40):
        n, m = 3, 2
        s = BoundedSnapshot(0, m, n=n, value_bits=4)
        mem = s.fresh_memory()
        machines = []
        for p in range(n):
            script = []
            for _ in range(rng.randrange(1, 3)):
                if rng.random() < 0.5:
                    script.append(("update", rng.randrange(m), rng.randrange(1, 16)))
                else:
                    script.append(("scan",))
            machines.append(StepMachine(p, ops_program(s, p, script)))
        sched = make_schedule("random", n, 150, seed=1000 + trial)
        h = run(machines, mem, sched, History())
        drain(machines, mem, 200, h)
        assert all(mm.done for mm in machines)
        assert check_linearizable(h, SnapshotSequential(m, 0)), f"trial {trial}"


def test_exhaustive_small_interleavings_linearize():
    # one update+scan per process, M=2: the closure of every interleaving
    # has no depth cap, and every distinct complete history linearizes
    def make():
        s = BoundedSnapshot(0, 2, n=2, value_bits=4)
        a = StepMachine(0, ops_program(s, 0, [("update", 0, 1), ("scan",)]))
        b = StepMachine(1, ops_program(s, 1, [("update", 1, 2), ("scan",)]))
        return [a, b], s.fresh_memory()

    spec = SnapshotSequential(2, 0)
    terminals, states = explore(make, by_history=True)
    assert len(terminals) > 1
    for h in terminals:
        assert check_linearizable(History(list(h)), spec)


def test_scan_solo_completion_bound_from_reachable_configs():
    # remaining work after any prefix: <= 2 updates + a damaged scan attempt
    # + a clean one (solo_op_steps, 4*2+3) + a fresh scan (2*2+2) own steps
    m = 2
    bound = 2 * 2 + BoundedSnapshot(0, m, n=3, value_bits=4).solo_op_steps + (2 * m + 2)

    def factory(rng):
        s = BoundedSnapshot(0, m, n=3, value_bits=4)
        mem = s.fresh_memory()
        machines = []
        for p in range(3):
            script = [("update", p % m, p + 1), ("scan",), ("update", (p + 1) % m, p + 4), ("scan",)]
            machines.append(StepMachine(p, ops_program(s, p, script)))
        return machines, mem

    rep = probe_solo(factory, samples=400, bound=bound, seed=3, prefix_max=120)
    assert rep.ok, rep.violations
    assert rep.max_steps <= bound
