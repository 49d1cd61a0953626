"""Coarse-grained engine: logic machines, exhaustive exploration, lowering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasim.atomic import (
    AtomicStore,
    LogicMachine,
    explore,
    explore_interleavings,
    register_program,
    run_atomic,
    run_atomic_solo,
)
from tasim.shm import History, StepMachine, drain, run
from tasim.sifter import NaiveSifterLogic, SifterLogic, sifter_store
from tasim.snapshot import BoundedSnapshot, ops_program
from tasim.tas_det import S_MAX, TasLogic, ell, tas_machines, tas_store, wle_store
from tasim.verify import SnapshotSequential, check_linearizable


class PutScanLogic(LogicMachine):
    """Write pid+1 into one component, scan everything, return the view."""

    FIELDS = LogicMachine.FIELDS + ("m", "stage")
    op_name = "putscan"

    def __init__(self, pid, m):
        super().__init__(pid)
        self.m = m
        self.stage = "u"
        self.op = ("u", pid % m, pid + 1)

    def advance(self, res):
        if self.stage == "u":
            self.stage = "s"
            self.op = ("s", 0, self.m)
        else:
            self.done = True
            self.result = res


class SpinLogic(LogicMachine):
    def __init__(self, pid):
        super().__init__(pid)
        self.op = ("r", 0)

    def advance(self, res):
        self.op = ("r", 0)


def test_store_ops_and_keys():
    st = AtomicStore([None, None], n_regs=1)
    assert st.t == 0
    assert st.apply(("s", 0, 2)) == (None, None)
    st.apply(("u", 1, "x"))
    assert st.apply(("s", 0, 2)) == (None, "x")
    assert st.apply(("r", 0)) == 0
    st.apply(("w", 0, 9))
    assert st.apply(("r", 0)) == 9
    snap = st.clone()
    st.apply(("u", 0, "y"))
    assert snap.comps == [None, "x"] and st.comps == ["y", "x"]
    assert snap.key() != st.key()
    key = st.key()
    st.t = 5  # the schedule position is cloned but not keyed
    assert st.key() == key and st.clone().t == 5
    with pytest.raises(ValueError):
        st.apply(("z",))


def test_logic_clone_and_key_exclude_steps():
    a = PutScanLogic(0, 2)
    b = a.clone()
    b.steps = 5
    assert a.key() == b.key()  # steps is bookkeeping, not protocol state
    b.advance(None)
    assert a.key() != b.key() and a.stage == "u" and b.stage == "s"


LIBRARY_LOGICS = (
    ("sifter", SifterLogic, sifter_store),
    ("naive", NaiveSifterLogic, sifter_store),
    ("wle", lambda p: SifterLogic(p, 2), lambda: wle_store(2)),
    ("tas", lambda p: TasLogic(p, 2), lambda: tas_store(2)),
)


@pytest.mark.parametrize("name,make,store_of", LIBRARY_LOGICS, ids=[c[0] for c in LIBRARY_LOGICS])
def test_fields_contract(name, make, store_of):
    # a fresh machine, and one stopped mid-run against a rival
    fresh = make(0)
    machines, store = [make(0), make(1)], store_of()
    run(machines, store, [1, 1, 0, 0, 0])
    mid = machines[0]
    assert 0 < mid.steps and not mid.done
    fields = type(fresh).FIELDS
    assert len(set(fields)) == len(fields)
    for m, st in ((fresh, store_of()), (mid, store)):
        assert set(vars(m)) == set(fields), name
        before = dict(vars(m))
        c = m.clone()
        assert type(c) is type(m) and c.key() == m.key()
        c.step(st.clone(), 0, None)
        assert c.steps == m.steps + 1
        assert vars(m) == before  # stepping the clone left the original alone


def test_run_logic_machine_history_convention():
    ms = [PutScanLogic(0, 2)]
    st = AtomicStore([None, None])
    h = run(ms, st, [9, 0, 9, 0], History())  # absent pids absorbed
    assert st.t == 4
    ev = [(e.kind, e.time, e.result) for e in h.events]
    assert ev == [("inv", 2, None), ("res", 7, (1, None))]
    assert ms[0].result == (1, None) and ms[0].steps == 2


def test_run_rejects_duplicate_logic_pids():
    with pytest.raises(ValueError):
        run([SpinLogic(1), SpinLogic(1)], AtomicStore([], n_regs=1), [1])


def test_run_atomic_keeps_the_benchmark_call_shapes():
    # perfbench/ calls run_atomic three ways: by default it makes a History,
    # record=False makes none, and history=h, start_t=t continues h from t
    sched = [0, 1, 2] * 3
    machines, store = tas_machines(3), tas_store(3)
    h, t = run_atomic(machines, store, sched)
    assert isinstance(h, History) and t == len(sched)
    assert [e.kind for e in h.events] == ["inv"] * 3
    quiet = tas_machines(3)
    assert run_atomic(quiet, tas_store(3), sched, record=False) == (None, len(sched))
    assert [m.key() for m in quiet] == [m.key() for m in machines]
    bound = S_MAX * ell(3) + 2
    for m in machines:
        before = len(h.events)
        got, t_next = run_atomic(machines, store, [m.pid] * bound, history=h, start_t=t)
        assert got is h and t_next == t + bound and m.done
        assert [(e.kind, e.pid) for e in h.events[before:]] == [("res", m.pid)]
        assert 2 * t < h.events[-1].time < 2 * t_next
        t = t_next
    assert sorted(m.result for m in machines) == [0, 1, 1]


def test_run_atomic_solo_bound():
    m = PutScanLogic(0, 2)
    assert run_atomic_solo(m, AtomicStore([None, None]), 10) == 2
    with pytest.raises(RuntimeError):
        run_atomic_solo(SpinLogic(0), AtomicStore([], n_regs=1), 50)


EXPECTED_VIEWS = {
    ((1, None), (1, 2)),  # p0's scan finished before p1's update
    ((1, 2), (None, 2)),  # p1's scan finished before p0's update
    ((1, 2), (1, 2)),  # both updates before both scans
}


def test_explore_two_putscans():
    def make():
        return [PutScanLogic(0, 2), PutScanLogic(1, 2)], AtomicStore([None, None])

    checked = {"states": 0}

    def chk(machines, store):
        checked["states"] += 1

    terminals, visited = explore(make, state_check=chk)
    assert set(terminals) == EXPECTED_VIEWS
    assert checked["states"] == visited
    with pytest.raises(RuntimeError):
        explore(make, max_states=3)


class PutScanCodec:
    """Codec for PutScanLogic: pid p's value p+1 packs as itself, 0 is None."""

    def encode(self, comp, val):
        return val

    def decode(self, comp, x):
        return None if x == 0 else x

    def owner(self, comp, x):
        return None if x == 0 else x - 1


def test_register_lowering_agrees_with_atomic():
    # the same decision logic, expanded to register steps through the
    # snapshot's codec; the closure of every register-level interleaving
    # (no depth cap: retrying scans revisit states) reaches exactly the
    # outcome pairs of the atomic exploration
    def make():
        snap = BoundedSnapshot(0, 2, n=2, value_bits=2, codec=PutScanCodec())
        machines = [StepMachine(p, register_program(PutScanLogic(p, 2), snap)) for p in range(2)]
        return machines, snap.fresh_memory()

    terminals, states = explore(make)
    assert set(terminals) == EXPECTED_VIEWS


def test_owner_tagged_snapshot_interleavings_linearize():
    # cells without a writer field: values name their writers (odd values
    # are pid 0's, even ones pid 1's) and pid 0 rewrites its own value, so
    # only the parity bit tells its two writes apart; every distinct
    # complete history of the closure linearizes
    class ParityCodec(PutScanCodec):
        def owner(self, comp, x):
            return None if x == 0 else (x - 1) % 2

    def make():
        s = BoundedSnapshot(0, 2, n=2, value_bits=3, codec=ParityCodec())
        scripts = [
            [("update", 0, 1), ("scan",), ("update", 0, 1)],
            [("update", 0, 2), ("scan",)],
        ]
        return [StepMachine(p, ops_program(s, p, scripts[p])) for p in range(2)], s.fresh_memory()

    assert make()[1].widths == [4, 4, 2]
    spec = SnapshotSequential(2, 0)
    terminals, states = explore(make, by_history=True)
    assert len(terminals) > 1
    for h in terminals:
        assert check_linearizable(History(list(h)), spec)


def test_explore_refuses_a_traced_memory():
    def make():
        snap = BoundedSnapshot(0, 2, n=2, value_bits=2, codec=PutScanCodec())
        prog = register_program(PutScanLogic(0, 2), snap)
        return [StepMachine(0, prog)], snap.fresh_memory(record_trace=True)

    with pytest.raises(ValueError, match="untraced"):
        explore(make)


@st.composite
def register_systems(draw):
    """A 2-3 process register-level system, a schedule prefix and a suffix."""
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        op = st.one_of(
            st.tuples(st.just("update"), st.integers(0, 1), st.integers(0, 15)),
            st.just(("scan",)),
        )
        scripts = [draw(st.lists(op, min_size=1, max_size=3)) for _ in range(n)]

        def make():
            snap = BoundedSnapshot(0, 2, n=n, value_bits=4)
            ms = [StepMachine(p, ops_program(snap, p, scripts[p])) for p in range(n)]
            return ms, snap.fresh_memory(record_trace=True)
    else:
        def make():
            snap = BoundedSnapshot(0, 2, n=n, value_bits=2, codec=PutScanCodec())
            ms = [StepMachine(p, register_program(PutScanLogic(p, 2), snap)) for p in range(n)]
            return ms, snap.fresh_memory(record_trace=True)
    pids = st.lists(st.integers(0, n - 1), max_size=60)
    return make, draw(pids), draw(pids)


def _keys(machines, memory):
    return [m.key() for m in machines], memory.key()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(register_systems())
def test_a_cloned_system_runs_like_the_original(system):
    make, prefix, suffix = system
    machines, memory = make()
    history = run(machines, memory, prefix, History())
    twins, twin_memory = [m.clone() for m in machines], memory.clone()
    twin_history = History(list(history.events))
    before = _keys(machines, memory)
    assert _keys(twins, twin_memory) == before
    run(twins, twin_memory, suffix, twin_history)
    assert _keys(machines, memory) == before  # the clone shares no state
    run(machines, memory, suffix, history)
    assert twin_memory.trace == memory.trace
    assert twin_history.events == history.events
    assert _keys(twins, twin_memory) == _keys(machines, memory)
    assert [(m.done, m.result, m.steps) for m in twins] == [
        (m.done, m.result, m.steps) for m in machines
    ]


def test_explore_interleavings_requires_trace():
    def make():
        snap = BoundedSnapshot(0, 2, n=2, value_bits=2, codec=PutScanCodec())
        memory = snap.fresh_memory()  # record_trace off
        prog = register_program(PutScanLogic(0, 2), snap)
        return [StepMachine(0, prog)], memory

    with pytest.raises(ValueError, match="trace"):
        explore_interleavings(make)


def test_explore_interleavings_node_cap():
    def make():
        snap = BoundedSnapshot(0, 2, n=2, value_bits=2, codec=PutScanCodec())
        memory = snap.fresh_memory(record_trace=True)
        progs = [register_program(PutScanLogic(p, 2), snap) for p in range(2)]
        return [StepMachine(p, prog) for p, prog in enumerate(progs)], memory

    with pytest.raises(RuntimeError, match="exploration exceeds"):
        explore_interleavings(make, max_nodes=3)


def test_register_program_solo_result():
    snap = BoundedSnapshot(0, 2, n=1, value_bits=2, codec=PutScanCodec())
    memory = snap.fresh_memory()
    logic = PutScanLogic(0, 2)
    m = StepMachine(0, register_program(logic, snap))
    h = drain([m], memory, 100, History())
    assert m.result == (1, None)  # the codec decodes an unwritten comp as None
    assert m.steps == 2 + (2 * 2 + 2)  # one update + one fresh scan
    ops = h.ops()
    assert len(ops) == 1 and ops[0].op == "putscan" and ops[0].result == (1, None)
