"""Coarse-grained engine: logic machines, exhaustive exploration, lowering."""

import hashlib
import importlib
import pkgutil
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasim
from tasim.atomic import (
    AtomicStore,
    Closure,
    LogicMachine,
    explore,
    explore_interleavings,
    run_atomic,
    run_atomic_solo,
)
from tasim.shm import (
    Cursor,
    Event,
    Explicit,
    History,
    Machine,
    Memory,
    StepMachine,
    as_cursor,
    drain,
    run,
)
from tasim.sifter import (
    NaiveSifterLogic,
    SifterLogic,
    sifter_machines,
    sifter_store,
    sifter_system,
)
from tasim.snapshot import BoundedSnapshot, ScriptLogic, ops_program, register_program
from tasim.tas_det import (
    TasLogic,
    solo_op_bound,
    tas_machines,
    tas_store,
    tas_system,
    wle_store,
)
from tasim.verify import SnapshotSequential, check_linearizable


class PutScanLogic(LogicMachine):
    """Write pid+1 into one component, scan everything, return the view."""

    FIELDS = LogicMachine.FIELDS + ("m", "stage")
    CALL = ("putscan", ())

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


class WaitLogic(LogicMachine):
    """Read register 0 until it is nonzero; a read of 0 returns to the initial state."""

    CALL = ("wait", ())

    def __init__(self, pid):
        super().__init__(pid)
        self.op = ("r", 0)

    def advance(self, res):
        if res:
            self.done, self.result, self.op = True, res, None


class SetLogic(LogicMachine):
    """Write 1 to register 0."""

    CALL = ("set", ())

    def __init__(self, pid):
        super().__init__(pid)
        self.op = ("w", 0, 1)

    def advance(self, res):
        self.done, self.op = True, None


class OneOpLogic(LogicMachine):
    """Take one store op and return its response."""

    def __init__(self, pid, op):
        super().__init__(pid)
        self.op = op

    def advance(self, res):
        self.done, self.result, self.op = True, res, None


def _take(store, op):
    """Step a one-op logic machine over `store`; its response."""
    m = OneOpLogic(0, op)
    run([m], store, [0])
    assert m.done and m.steps == 1
    return m.result


def test_store_ops_and_keys():
    st = AtomicStore([None, None], n_regs=1)
    assert st.t == 0
    assert _take(st, ("s", 0, 2)) == (None, None)
    assert _take(st, ("u", 1, "x")) is None
    assert _take(st, ("s", 0, 2)) == (None, "x")
    assert _take(st, ("s", 1, 2)) == ("x",)
    assert _take(st, ("r", 0)) == 0
    assert _take(st, ("w", 0, 9)) is None
    assert _take(st, ("r", 0)) == 9
    snap = st.clone()
    _take(st, ("u", 0, "y"))
    assert snap.comps == [None, "x"] and st.comps == ["y", "x"]
    assert snap.key() != st.key()
    key = st.key()
    st.t = 5  # the schedule position is cloned but not keyed
    assert st.key() == key and st.clone().t == 5
    # an unknown op is refused before the store or the machine changes
    m = OneOpLogic(0, ("z", 0))
    with pytest.raises(ValueError, match=r"unknown op \('z', 0\)"):
        m.step(st, 0, History())
    assert st.key() == key and m.steps == 0 and not m.done


def test_logic_clone_and_key_exclude_steps():
    a = PutScanLogic(0, 2)
    b = a.clone()
    b.steps = 5
    assert a.key() == b.key()  # steps is bookkeeping, not protocol state
    b.advance(None)
    assert a.key() != b.key() and a.stage == "u" and b.stage == "s"


def _ops_program_system():
    # p1's update lands between p0's collects, so p0's scan retries
    snap = BoundedSnapshot(0, 2, n=2, value_bits=2)
    scripts = [[("update", 0, 1), ("scan",), ("update", 1, 2)], [("update", 0, 3), ("scan",)]]
    ms = [StepMachine(p, ops_program(snap, p, scripts[p])) for p in range(2)]
    return ms, snap.fresh_memory()


def _script_logic_system():
    # the scripts of `_ops_program_system` at op level: the atomic snapshot
    scripts = [[("update", 0, 1), ("scan",), ("update", 1, 2)], [("update", 0, 3), ("scan",)]]
    return [ScriptLogic(p, scripts[p], 2) for p in range(2)], AtomicStore([0, 0])


# (name, make_system, schedule): every state along the schedule is checked
EXPLICIT_SYSTEMS = (
    ("sifter", lambda: ([SifterLogic(0), SifterLogic(1)], sifter_store()), [1, 1, 0, 0, 0]),
    ("naive", lambda: ([NaiveSifterLogic(0), NaiveSifterLogic(1)], sifter_store()), [1, 1, 0, 0, 0]),
    ("wle", lambda: ([SifterLogic(p, 2) for p in range(2)], wle_store(2)), [1, 1, 0, 0, 0]),
    ("tas", lambda: (tas_machines(2), tas_store(2)), [1, 1, 0, 0, 0]),
    ("ops_program", _ops_program_system, [0] * 5 + [1] * 2 + [0] * 12 + [1] * 8),
    ("script_logic", _script_logic_system, [0, 1, 0, 0, 1]),
    ("lowered_tas", lambda: tas_system(2)[:2], [0] * 9 + [1] * 30 + [0] * 40 + [1] * 40),
)


def _parts(x):
    """`x` and every explicit state it holds, depth first."""
    out = [x]
    for v in vars(x).values():
        if isinstance(v, Explicit):
            out += _parts(v)
    return out


def _check_explicit(m, store):
    """The explicit-state contract (`shm.Explicit`) at one state of machine `m`."""
    parts = _parts(m)
    for p in parts:
        cls = type(p)
        assert cls.FIELDS or cls.NESTED, cls
        assert len(set(cls.FIELDS + cls.NESTED)) == len(cls.FIELDS + cls.NESTED)
        hash(tuple(getattr(p, f) for f in cls.FIELDS))
        for name, v in vars(p).items():  # a part is NESTED, and NESTED holds parts
            assert isinstance(v, Explicit) == (name in cls.NESTED) or v is None, (cls, name)
        if isinstance(p, LogicMachine):
            assert set(vars(p)) == set(cls.FIELDS), cls
        assert p.clone().key() == p.key()
    before = [dict(vars(p)) for p in parts]
    key = m.key()
    c = m.clone()
    assert type(c) is type(m) and c.key() == key
    if m.done:
        return
    cparts = _parts(c)
    cbefore = [dict(vars(p)) for p in cparts]
    c.step(store.clone(), 0, None)
    left = set(map(id, _parts(c)))
    gone = object()
    for p, d in zip(cparts, cbefore):
        now = vars(p)
        changed = {a for a in d.keys() | now.keys() if d.get(a, gone) != now.get(a, gone)}
        allowed = set(type(p).FIELDS + type(p).NESTED)
        if id(p) not in left:
            allowed.add("result")  # a sub-program that ended
        assert changed <= allowed, (type(p), changed - allowed)
    assert [dict(vars(p)) for p in parts] == before and m.key() == key  # the original untouched
    twin = m.clone()
    twin.step(store.clone(), 0, None)
    assert twin.key() == c.key() and (twin.done, twin.result) == (c.done, c.result)


@pytest.mark.parametrize(
    "name,make,schedule", EXPLICIT_SYSTEMS, ids=[c[0] for c in EXPLICIT_SYSTEMS]
)
def test_fields_contract(name, make, schedule):
    # every state along the schedule, from the fresh system to mid-run ones
    machines, store = make()
    kinds = set()
    for pid in [None] + schedule:
        if pid is not None:
            run(machines, store, [pid])
        for m in machines:
            _check_explicit(m, store)
            kinds |= {type(p).__name__ for p in _parts(m)}
    assert 0 < machines[0].steps
    if name == "ops_program":  # a retried scan, and both sub-programs, were checked
        assert machines[0].steps == 2 + 2 * 6 + 2 and machines[0].done
        assert {"StepMachine", "_Lowered", "ScriptLogic", "_Scan", "_Ops"} <= kinds
    if name == "lowered_tas":
        assert {"StepMachine", "_Lowered", "TasLogic", "_Scan", "_Ops"} <= kinds


def _tasim_classes():
    """Every class defined in a `tasim` module."""
    classes = set()
    for mod in pkgutil.iter_modules(tasim.__path__):
        module = importlib.import_module(f"tasim.{mod.name}")
        classes |= {
            c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__
        }
    return classes


def test_every_explicit_class_declares_its_state():
    # every Machine and Cursor class in the package declares the state
    # that clone copies and key reads, or refuses both
    classes = {c for c in _tasim_classes() if issubclass(c, Explicit)} - {Explicit}
    assert {
        "Machine", "LogicMachine", "StepMachine", "Cursor", "_Ops", "_Scan", "ScriptLogic", "_Lowered"
    } <= {c.__name__ for c in classes}
    assert LogicMachine.__base__ is Machine and StepMachine.__base__ is Machine
    undeclared = {c for c in classes - {Cursor} if not (c.FIELDS or c.NESTED)}
    assert undeclared == {type(as_cursor(x for x in ()))}  # it refuses (test_shm)


def test_one_clone_and_key_contract():
    # a class with a clone or key of its own declares its state through
    # shm.Explicit, which gives it both, unless it is one of the two stores
    own = {c for c in _tasim_classes() if {"clone", "key"} & vars(c).keys()}
    assert {Memory, AtomicStore, Explicit, StepMachine} <= own
    assert {c for c in own if not issubclass(c, Explicit)} == {Memory, AtomicStore}
    # StepMachine's are the ones Explicit installs for a class with NESTED parts
    assert "__slots__" not in vars(StepMachine)
    assert (StepMachine.clone, StepMachine.key) == (Explicit._clone_nested, Explicit._key_nested)


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
    bound = solo_op_bound(3)
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


class PutScanTwiceLogic(LogicMachine):
    """Two interface ops in a row, putscan(0) and putscan(1), each an update
    of pid+1 into one component and then a scan; the result is both views."""

    FIELDS = LogicMachine.FIELDS + ("m", "k", "views")

    def __init__(self, pid, m):
        super().__init__(pid)
        self.m, self.k, self.views = m, 0, ()
        self.op, self.call = ("u", pid % m, pid + 1), ("putscan", (0,))

    def advance(self, res):
        self.k += 1
        if self.k % 2:
            self.op = ("s", 0, self.m)
            return
        self.views += (res,)
        if self.k == 4:
            self.done, self.result, self.op = True, self.views, None
        else:
            self.op, self.call = ("u", self.pid % self.m, self.pid + 1), ("putscan", (1,))

    @property
    def reply(self):  # a putscan responds with its view
        return self.views[-1]


def _putscan_twice_lowered():
    snap = BoundedSnapshot(0, 2, n=2, value_bits=2, codec=PutScanCodec())
    ms = [StepMachine(p, register_program(PutScanTwiceLogic(p, 2), snap)) for p in range(2)]
    return ms, snap.fresh_memory()


# (op-level system, register-level system, each process's interface ops in order)
MARKER_SYSTEMS = {
    "putscan_twice": (
        lambda: ([PutScanTwiceLogic(p, 2) for p in range(2)], AtomicStore([None, None])),
        _putscan_twice_lowered,
        [("putscan", (0,)), ("putscan", (1,))],
    ),
    "tas2": (lambda: (tas_machines(2), tas_store(2)), lambda: tas_system(2)[:2], [("tas", ())]),
    "sifter2": (
        lambda: (sifter_machines(range(2)), sifter_store()),
        lambda: sifter_system(2)[:2],
        [("compete", ())],
    ),
}


def test_markers_of_multi_op_interface_ops_agree_across_granularities():
    # one marker rule at both levels: an invocation before the store op that
    # opens each interface op, a response after the one that closes it, and
    # from `step` the invocation it closes on the closing step, else None
    for name, (make_atomic, make_lowered, ops) in MARKER_SYSTEMS.items():
        want = [(kind, op, args) for op, args in ops for kind in ("inv", "res")]
        atomic = Closure(make_atomic, by_history=True)
        histories = set(atomic.terminals)
        assert len(histories) > 1
        if name == "putscan_twice":  # the one register-level closure small enough here
            register = Closure(make_lowered, by_history=True)
            assert histories <= set(register.terminals)
            histories |= set(register.terminals)
        rng = random.Random(38)
        for _ in range(20):  # seeded runs at both levels, then solo to the end
            schedule = [rng.randrange(2) for _ in range(rng.randrange(80))] + [0] * 500 + [1] * 500
            machines, memory = make_lowered()
            h = History()
            run(machines, memory, schedule, h)
            histories.add(tuple(h.events))
            machines, store = make_atomic()
            h = History()
            for t, p in enumerate(schedule):
                if machines[p].done:
                    continue
                before = len(h.events)
                closed = machines[p].step(store, t, h)
                res = [(e.kind, e.op, e.args) for e in h.events[before:] if e.kind == "res"]
                assert closed == (None if not res else res[0][1:])
            assert all(m.done for m in machines)
            histories.add(tuple(h.events))
        for h in histories:
            for p in range(2):
                mine = [(e.kind, e.op, e.args, e.result) for e in h if e.pid == p]
                assert [m[:3] for m in mine] == want
                if name == "putscan_twice":
                    assert mine[1][3][p] == mine[3][3][p] == p + 1  # each scan sees its own update


def test_owner_tagged_snapshot_interleavings_linearize():
    # cells without a writer field: values name their writers (odd values
    # are pid 0's, even ones pid 1's) and pid 0 rewrites its own value, so
    # only the parity bit tells its two writes apart; every distinct
    # complete history of the closure linearizes
    class ParityCodec(PutScanCodec):
        def decode(self, comp, x):  # a view reads 0 where SnapshotSequential(2, 0) does
            return x

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


def test_explore_rejects_duplicate_pids():
    # as run, drain and run_live_uniform do; unchecked, two pid-0 sifters
    # tally ('win', 'win') and two pid-0 TAS processes both return 0
    systems = (
        (lambda: (sifter_machines([0, 0]), sifter_store()), False),
        (lambda: ([TasLogic(0, 2), TasLogic(0, 2)], tas_store(2)), True),
    )
    for make, by_history in systems:
        with pytest.raises(ValueError, match="duplicate pid 0"):
            explore(make, by_history=by_history)


def test_explore_without_history_tallies_ops_program_results():
    # an ops_program returns its views as a tuple, so a register-level
    # closure without by_history can tally terminals by machine results
    def make():
        snap = BoundedSnapshot(0, 2, n=2, value_bits=2)
        scripts = [[("update", 0, 1), ("scan",)], [("update", 1, 2), ("scan",)]]
        ms = [StepMachine(p, ops_program(snap, p, scripts[p])) for p in range(2)]
        return ms, snap.fresh_memory()

    terminals, _ = explore(make)
    assert set(terminals) == {
        (((1, 0),), ((1, 2),)),  # p0's scan finished before p1's update
        (((1, 2),), ((0, 2),)),  # p1's scan finished before p0's update
        (((1, 2),), ((1, 2),)),  # both updates before both scans
    }


def reference_explore(make_system, state_check, by_history=False):
    """Breadth-first search that clones and steps the whole system on every edge.

    The oracle for `explore`: no number, representative or memo, and a
    machine's state is its key plus whether it has stepped yet.
    """
    def key(ms, st, h):
        return tuple((m.steps == 0, m.key()) for m in ms), st.key(), h

    machines, store = make_system()
    seen, frontier, terminals = {key(machines, store, ())}, [(machines, store, ())], Counter()
    while frontier:
        nxt = []
        for ms, st, h in frontier:
            state_check(ms, st)
            live = [i for i, m in enumerate(ms) if not m.done]
            if not live:
                terminals[h if by_history else tuple(m.result for m in ms)] += 1
            for i in live:
                ms2, st2, rec = list(ms), st.clone(), History()
                ms2[i] = ms[i].clone()
                ms2[i].step(st2, 0, rec)
                h2 = h + tuple((e.pid, e.kind, e.op, e.args, e.result) for e in rec.events)
                h2 = h2 if by_history else ()
                if key(ms2, st2, h2) not in seen:
                    seen.add(key(ms2, st2, h2))
                    nxt.append((ms2, st2, h2))
        frontier = nxt
    if by_history:
        terminals = Counter(
            {tuple(Event(t, *e) for t, e in enumerate(h)): c for h, c in terminals.items()}
        )
    return terminals, len(seen)


def reference_solo(machine, store, by_history, bound=10_000):
    """Steps `machine` takes alone from `store` until its next response, with
    `by_history`, or else until its end; 0 if it is done.

    The oracle for `Closure.solo`: it clones the machine and the store and
    steps them, AssertionError if the run is unfinished after `bound` steps.
    """
    if machine.done:
        return 0
    m, store, h = machine.clone(), store.clone(), History()
    for steps in range(1, bound + 1):
        m.step(store, 0, h)
        if m.done or by_history and h.events and h.events[-1].kind == "res":
            return steps
    raise AssertionError(f"pid {m.pid} unfinished after {bound} solo steps")


def _putscan_lowered(n, m=2):
    def make():
        snap = BoundedSnapshot(0, m, n=n, value_bits=2, codec=PutScanCodec())
        ms = [StepMachine(p, register_program(PutScanLogic(p, m), snap)) for p in range(n)]
        return ms, snap.fresh_memory()
    return make


FIXED_SYSTEMS = {
    "sifter2": lambda: (sifter_machines(range(2)), sifter_store()),
    "tas2": lambda: (tas_machines(2), tas_store(2)),
    "wait_set": lambda: ([WaitLogic(0), SetLogic(1), WaitLogic(2)], AtomicStore([], n_regs=1)),
    "putscan_lowered": _putscan_lowered(2),
}


@pytest.mark.parametrize("by_history", [False, True])
@pytest.mark.parametrize("name", FIXED_SYSTEMS)
def test_interned_machines_step_like_fresh_clones(name, by_history):
    # explore visits states in the reference's order; at each, the machine
    # represented by each interned number has the key of the machine the
    # reference reached along its own path, and a clone of either, stepped
    # on a copy of the store, reaches the same key, store and events
    make = FIXED_SYSTEMS[name]
    got, want = [], []
    terminals, states = explore(make, lambda ms, st: got.append((ms, st)), by_history=by_history)
    ref = reference_explore(make, lambda ms, st: want.append((ms, st)), by_history)
    assert (terminals, states) == ref and len(got) == len(want) == states
    for (reps, store), (machines, ref_store) in zip(got, want):
        assert [m.key() for m in reps] == [m.key() for m in machines]
        assert store.key() == ref_store.key()
        for rep, m in zip(reps, machines):
            if m.done:
                continue
            outcomes = []
            for machine in (rep, m):
                c, st, h = machine.clone(), ref_store.clone(), History()
                c.step(st, 0, h)
                outcomes.append((c.key(), c.done, c.result, st.key(), h.events))
            assert outcomes[0] == outcomes[1]


def test_explore_numbers_a_fresh_machine_apart_from_its_revisits():
    # a waiter that reads 0 is back at its initial key, but only its first
    # step invokes: every complete history invokes each operation once
    make = FIXED_SYSTEMS["wait_set"]
    terminals, _ = explore(make, by_history=True)
    assert terminals
    for h in terminals:
        assert sorted(e.pid for e in h if e.kind == "inv") == [0, 1, 2]
        assert [e.result for e in h if e.kind == "res" and e.op == "wait"] == [1, 1]


def _script_pair():
    snap = BoundedSnapshot(0, 2, n=2, value_bits=4)
    scripts = [[("update", 0, 1), ("scan",)], [("scan",), ("update", 0, 2)]]
    return [StepMachine(p, ops_program(snap, p, scripts[p])) for p in range(2)], snap.fresh_memory()


SOLO_SYSTEMS = {
    "putscan_lowered": _putscan_lowered(2),
    "script_pair": _script_pair,
    "sifter2": FIXED_SYSTEMS["sifter2"],
}


@pytest.mark.parametrize("by_history", [False, True])
@pytest.mark.parametrize("name", SOLO_SYSTEMS)
def test_solo_matches_a_clone_and_step_reference(name, by_history):
    # every state the reference reaches, with each machine's solo run
    # cloned and stepped from it, against every state of the closure with
    # each machine's solo run read off the memoized moves: the same
    # multiset of (machine keys, store key, solo steps)
    make = SOLO_SYSTEMS[name]

    def entry(ms, store, solos):
        return tuple((m.steps == 0, m.key()) for m in ms), store.key(), solos

    want = Counter()

    def note(ms, store):
        want[entry(ms, store, tuple(reference_solo(m, store, by_history) for m in ms))] += 1

    reference_explore(make, note, by_history)
    closure = Closure(make, by_history=by_history)
    got = Counter()
    for state in closure.states:
        *numbers, s, _ = closure.unpack(state)
        ms = [closure.machines[a] for a in numbers]
        solos = tuple(closure.solo(state, i) for i in range(len(ms)))
        got[entry(ms, closure.stores[s], solos)] += 1
    assert got == want
    assert closure.solo_max() == max(s for (_, _, solos) in got for s in solos) > 1


@pytest.mark.parametrize("by_history", [False, True])
def test_solo_names_a_machine_that_runs_alone_forever(by_history):
    # a waiter alone re-reads a register only the setter writes: its solo
    # path revisits a (machine, store) pair, an obstruction-freedom
    # violation, until the setter has written
    closure = Closure(FIXED_SYSTEMS["wait_set"], by_history=by_history)
    start = closure.pack((0, 1, 2, 0, 0))
    assert start in closure.states
    for i in (0, 2):
        with pytest.raises(RuntimeError, match=f"pid {i} runs alone forever"):
            closure.solo(start, i)
    with pytest.raises(RuntimeError, match="runs alone forever"):
        closure.solo_max()
    assert closure.solo(start, 1) == 1
    written = [state for state in closure.states if closure.stores[closure.unpack(state)[3]].regs == [1]]
    assert written
    for state in written:
        assert [closure.solo(state, i) for i in range(3)] == [
            0 if closure.ops[a] is None else 1 for a in closure.unpack(state)[:3]
        ]


@pytest.mark.parametrize("by_history", [False, True])
@pytest.mark.parametrize("name", FIXED_SYSTEMS)
def test_successors_step_like_clones(name, by_history):
    # from every state, each live machine's successor read off the tables is
    # its representative cloned and stepped on a copy of the store: the same
    # machine key, store key and events, the other machines and, without
    # events, the history as they were; and the successors reach exactly the
    # closure's states from its first one
    make = FIXED_SYSTEMS[name]
    closure = Closure(make, by_history=by_history)
    start = closure.pack(tuple(range(len(make()[0]))) + (0, 0))
    for state in closure.states:
        *numbers, s, h = closure.unpack(state)
        live = [closure.machines[a] for a in numbers if closure.ops[a] is not None]
        succs = closure.successors(state)
        assert [pid for pid, _, _ in succs] == [m.pid for m in live]
        for m, (pid, evs, nxt) in zip(live, succs):
            c, st, record = m.clone(), closure.stores[s].clone(), History()
            c.step(st, 0, record if by_history else None)
            *after, s2, h2 = closure.unpack(nxt)
            assert closure.machines[after[pid]].key() == c.key()
            assert closure.stores[s2].key() == st.key()
            assert after[:pid] + after[pid + 1 :] == numbers[:pid] + numbers[pid + 1 :]
            assert evs == tuple(ev[1:] for ev in record.events)
            assert (h2 == h) == (not evs)
    reached, stack = {start}, [start]
    while stack:
        for _, _, nxt in closure.successors(stack.pop()):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    assert reached == closure.states


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(100, 2**40), st.data())
def test_unpack_inverts_pack_inside_the_widths(max_states, data):
    # a closure's widths follow its max_states; any field values inside them
    # pack into one int that unpacks to them, and a value one past a field
    # raises, naming the field
    closure = Closure(FIXED_SYSTEMS["wait_set"], max_states=max_states)
    w = closure.width
    assert w == (max_states + 3).bit_length()
    fields = tuple(data.draw(st.lists(st.integers(0, 2**w - 1), min_size=5, max_size=5)))
    assert closure.unpack(closure.pack(fields)) == fields
    i = data.draw(st.integers(0, 4))
    name = "machine" if i < 3 else ("store", "history")[i - 3]
    with pytest.raises(OverflowError, match=f"{name} number {2**w} outgrows its {w}-bit field"):
        closure.pack(fields[:i] + (2**w,) + fields[i + 1 :])


def test_a_history_number_that_outgrows_its_field_raises():
    # four one-step setters by history: 65 states, but each step emits an
    # invocation and a response, so the histories take 129 numbers.  With
    # max_states = 65 every field has 7 bits, and number 128 raises rather
    # than spill into another field
    def make():
        return [SetLogic(p) for p in range(4)], AtomicStore([], n_regs=1)

    closure = Closure(make, by_history=True)
    assert len(closure.states) == 65 and len(closure.histories) == 128
    assert len({closure.unpack(state) for state in closure.states}) == 65
    with pytest.raises(OverflowError, match="history number 128 outgrows its 7-bit field"):
        Closure(make, by_history=True, max_states=65)


@st.composite
def small_systems(draw):
    """A small system at either granularity, and whether to explore by history."""
    kind = draw(st.sampled_from(["putscan", "script", "lowered", "wait"]))
    n = draw(st.integers(2, 3))
    if kind == "putscan":
        m = draw(st.integers(1, 2))
        make = lambda: ([PutScanLogic(p, m) for p in range(n)], AtomicStore([None] * m))
    elif kind == "script":
        op = st.one_of(
            st.tuples(st.just("update"), st.integers(0, 1), st.integers(0, 3)),
            st.just(("scan",)),
        )
        size = 2 if n == 2 else 1
        scripts = [draw(st.lists(op, min_size=1, max_size=size)) for _ in range(n)]

        def make():
            snap = BoundedSnapshot(0, 2, n=n, value_bits=2)
            ms = [StepMachine(p, ops_program(snap, p, scripts[p])) for p in range(n)]
            return ms, snap.fresh_memory()
    elif kind == "lowered":  # at n=3 the reference takes ~10 s
        make = _putscan_lowered(2, draw(st.integers(1, 2)))
    else:
        roles = draw(st.lists(st.sampled_from([WaitLogic, SetLogic]), min_size=n, max_size=n))
        make = lambda: ([role(p) for p, role in enumerate(roles)], AtomicStore([], n_regs=1))
    return make, draw(st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems())
def test_explore_matches_a_clone_based_reference(system):
    make, by_history = system
    calls = Counter()
    got = explore(make, lambda ms, st: calls.update(["explore"]), by_history=by_history)
    want = reference_explore(make, lambda ms, st: calls.update(["reference"]), by_history)
    assert got == want
    assert calls["explore"] == calls["reference"] == got[1]


def test_sifter3_state_checks_pinned():
    # the (done, result) sequence state_check sees on the k=3 sifter, cut
    # off at 60,000 states: visit order and the cut-off point, pinned
    digest, calls = hashlib.sha256(), [0]

    def chk(machines, store):
        calls[0] += 1
        digest.update(repr([(m.done, m.result) for m in machines]).encode())

    with pytest.raises(RuntimeError, match="exceeds 60000"):
        explore(lambda: (sifter_machines(range(3)), sifter_store()), chk, max_states=60_000)
    assert calls[0] == 47666
    assert digest.hexdigest() == "9640c3377cfd2217b9b76d9475dfae17c4dfe81fe536a370082919852a19b4e2"


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


def reference_explore_interleavings(make_system, on_terminal, max_depth, on_cut):
    """Prefix-replay search that keys a node by its nested observations.

    The oracle for `explore_interleavings`' merging: a node is the tuple of
    its canonical history, registers, each pid's trace entries as (kind,
    reg, val) tuples and done flags, with no numbering.
    """
    seen, terminals, stack = set(), 0, [[]]
    while stack:
        prefix = stack.pop()
        machines, memory = make_system()
        history = History()
        run(machines, memory, prefix, history=history)
        per = {m.pid: [] for m in machines}
        for _, pid, kind, reg, val in memory.trace:
            per[pid].append((kind, reg, val))
        key = (
            tuple(ev[1:] for ev in history.events),
            tuple(memory.regs),
            tuple(tuple(per[m.pid]) for m in machines),
            tuple(m.done for m in machines),
        )
        if key in seen:
            continue
        seen.add(key)
        if all(m.done for m in machines):
            terminals += 1
            on_terminal(history, memory)
        elif len(prefix) >= max_depth:
            on_cut(history, memory)
        else:
            stack.extend(prefix + [m.pid] for m in machines if not m.done)
    return terminals, len(seen)


# criterion 3's snapshot script pairs (two processes, M=2 components)
CRITERION_3_PAIRS = (
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


def _script_pair_traced(pair):
    def make():
        snap = BoundedSnapshot(0, 2, n=2, value_bits=4)
        ms = [StepMachine(p, ops_program(snap, p, script), auto_history=False)
              for p, script in enumerate(pair)]
        return ms, snap.fresh_memory(record_trace=True)
    return make


def _putscan_traced():
    snap = BoundedSnapshot(0, 2, n=2, value_bits=2, codec=PutScanCodec())
    ms = [StepMachine(p, register_program(PutScanLogic(p, 2), snap)) for p in range(2)]
    return ms, snap.fresh_memory(record_trace=True)


TRACED_SYSTEMS = {
    **{f"pair{i}": _script_pair_traced(pair) for i, pair in enumerate(CRITERION_3_PAIRS)},
    "putscan": _putscan_traced,
}


# (terminals, nodes, cuts) at each depth cap
INTERLEAVING_COUNTS = {
    ("pair0", 12): (0, 678, 210),
    ("pair0", 13): (0, 966, 288),
    ("pair0", 14): (0, 1338, 372),
    ("pair0", 15): (0, 1830, 492),
    ("pair0", 16): (0, 2465, 635),
    ("pair1", 12): (0, 861, 265),
    ("pair1", 13): (0, 1207, 346),
    ("pair1", 14): (0, 1618, 411),
    ("pair1", 15): (0, 2182, 564),
    ("pair1", 16): (0, 2846, 664),
    ("pair2", 12): (0, 2413, 733),
    ("pair2", 13): (0, 3399, 986),
    ("pair2", 14): (0, 4750, 1351),
    ("pair2", 15): (0, 6436, 1686),
    ("pair2", 16): (0, 8297, 1861),
    ("putscan", 16): (10, 1035, 170),
    ("putscan", 22): (38, 2347, 204),
}


@pytest.mark.parametrize("name, depth", list(INTERLEAVING_COUNTS))
def test_explore_interleavings_merges_like_nested_keys(name, depth):
    # numbering histories and observation sequences must merge exactly the
    # prefixes that the nested key merges, and report them in the same order
    make = TRACED_SYSTEMS[name]

    def recorder(calls, kind):
        return lambda history, memory: calls.append(
            (kind, tuple(ev[1:] for ev in history.events), tuple(memory.regs))
        )

    got, want = [], []
    result = explore_interleavings(
        make, recorder(got, "terminal"), max_depth=depth, on_cut=recorder(got, "cut")
    )
    reference = reference_explore_interleavings(
        make, recorder(want, "terminal"), depth, recorder(want, "cut")
    )
    assert result == reference
    assert got == want
    terminals, nodes, cuts = INTERLEAVING_COUNTS[name, depth]
    assert result == (terminals, nodes)
    assert [kind for kind, _, _ in got].count("cut") == cuts


def test_register_program_solo_result():
    snap = BoundedSnapshot(0, 2, n=1, value_bits=2, codec=PutScanCodec())
    memory = snap.fresh_memory()
    logic = PutScanLogic(0, 2)
    m = StepMachine(0, register_program(logic, snap))
    h = drain([m], memory, 100, History())
    assert m.result == (1, None)  # the codec decodes an unwritten comp as None
    assert m.steps == 2 + (2 * 2 + 2)  # one update + one fresh scan
    assert [(e.kind, e.op, e.result) for e in h.events] == [
        ("inv", "putscan", None), ("res", "putscan", (1, None)),
    ]
