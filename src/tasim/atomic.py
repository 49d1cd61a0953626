"""Coarse-grained execution engine and exhaustive schedule exploration.

The protocol algorithms in this package are written as explicit state
machines (`LogicMachine`) whose poised operations act on an abstract store:

    ('u', comp, val)   overwrite one snapshot component
    ('s', lo, hi)      atomically read components lo..hi-1
    ('r', ridx)        read a plain register
    ('w', ridx, val)   write a plain register

Running them against `AtomicStore` treats every snapshot operation as a
single indivisible step.  This is the natural cost model for the sifter and
test-and-set analyses (their step bounds count snapshot operations), and it
keeps state spaces small enough for exhaustive breadth-first exploration
with duplicate-state elimination.  A logic machine steps with the same
`step(store, t, history)` protocol as a register-level `shm.StepMachine`,
so `shm.run` and `shm.drain` drive either kind, and `explore` steps through
it too.

The same logic machines can instead be lowered onto the register-level
machinery in `shm`/`snapshot` via `register_program`, which expands each
snapshot operation into its constituent register reads and writes.  Both
granularities execute the same decision logic, so coarse-grained exhaustive
results and fine-grained spot checks corroborate each other.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Callable, Optional

from .shm import READ, WRITE, Event, History, drain, run


def _key_getter(fields: tuple) -> attrgetter:
    # `steps` is bookkeeping, not protocol state: keeping it out of the key
    # lets exploration of non-terminating interleavings reach a fixpoint over
    # the finite protocol state space
    return attrgetter(*(f for f in fields if f != "steps"))


class LogicMachine:
    """Explicit-state protocol participant.

    Subclasses poise the next operation in `self.op` and implement
    `advance(res)` to consume the operation's result and choose the next one
    (or set `done`/`result`).  `step`, `clone` and `key` then come for free;
    the last two are what make exhaustive exploration cheap.

    The FIELDS contract: an instance's attributes are exactly the names in
    its class's FIELDS, and their values are hashable.  `clone` copies the
    instance dict, so an attribute outside FIELDS would be cloned but left
    out of `key`, and two configurations that differ in it would be merged.
    `key` reads FIELDS minus `steps` through one `operator.attrgetter` per
    class, built when the class is defined.
    """

    FIELDS = ("pid", "op", "done", "result", "steps")
    _key = _key_getter(FIELDS)

    pid: int
    op: Optional[tuple]
    done: bool
    result: object
    steps: int
    op_name: Optional[str] = None  # interface op for histories, e.g. "tas"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = _key_getter(cls.FIELDS)

    def __init__(self, pid: int):
        self.pid = pid
        self.op = None
        self.done = False
        self.result = None
        self.steps = 0

    def advance(self, res) -> None:
        raise NotImplementedError

    def step(self, store, t: int, history: Optional[History]) -> None:
        """Execute one store op at schedule position t, like `StepMachine.step`.

        Applies the poised op, counts the step and advances.  With a history
        and an interface op (`op_name`), records the invocation at 2t on the
        first step and the response at 2t+1 on the finishing step.  Drivers
        step only unfinished machines.
        """
        emit = history is not None and self.op_name is not None
        if emit and self.steps == 0:
            history.events.append(Event(2 * t, self.pid, "inv", self.op_name, (), None))
        res = store.apply(self.op)
        self.steps += 1
        self.advance(res)
        if emit and self.done:
            history.events.append(
                Event(2 * t + 1, self.pid, "res", self.op_name, (), self.result)
            )

    def clone(self):
        c = object.__new__(type(self))
        c.__dict__ = self.__dict__.copy()
        return c

    def key(self) -> tuple:
        return self._key(self)


class AtomicStore:
    """Snapshot components, initially `comps`, and `n_regs` zeroed plain registers."""

    __slots__ = ("comps", "regs")

    def __init__(self, comps, n_regs: int = 0):
        self.comps = list(comps)
        self.regs = [0] * n_regs

    def apply(self, op: tuple):
        kind = op[0]
        if kind == "s":
            return tuple(self.comps[op[1] : op[2]])
        if kind == "u":
            self.comps[op[1]] = op[2]
            return None
        if kind == "r":
            return self.regs[op[1]]
        if kind == "w":
            self.regs[op[1]] = op[2]
            return None
        raise ValueError(f"unknown op {op!r}")

    def clone(self) -> "AtomicStore":
        c = object.__new__(AtomicStore)
        c.comps = list(self.comps)
        c.regs = list(self.regs)
        return c

    def key(self) -> tuple:
        return (tuple(self.comps), tuple(self.regs))


# store ops that leave the store as it was
_READ_ONLY = ("s", "r")

# Benchmark-only: only perfbench/ calls it outside its pin test; ROADMAP item 6 removes it.
run_atomic = run


# Benchmark-only: only perfbench/ calls it outside its pin test; ROADMAP item 6 removes it.
def run_atomic_solo(machine, store: AtomicStore, max_steps: int) -> int:
    """Run one machine alone until it finishes; return steps taken.

    Raises RuntimeError if it is still unfinished after `max_steps` ops
    (an obstruction-freedom violation at this granularity).
    """
    before = machine.steps
    drain([machine], store, max_steps)
    return machine.steps - before


def explore(
    make_system: Callable[[], tuple],
    state_check: Optional[Callable] = None,
    max_states: int = 2_000_000,
):
    """Exhaustive breadth-first exploration of all schedules.

    `make_system()` returns (machines, store).  Every reachable system state
    is visited exactly once (duplicate configurations merged via machine and
    store keys), `state_check(machines, store)` runs on each, and terminal
    states are tallied by the tuple of machine results.

    Keys are carried incrementally.  Each distinct machine key and store
    key is numbered once, in first-seen order, and a state's key is the
    tuple of its machines' numbers followed by its store's number.  A
    frontier state carries that tuple, and a successor recomputes only the
    key of the machine that moved.  A successor whose step only read (a
    scan or a register read) shares its parent's store and store number,
    since states are never mutated once built.

    Returns (terminals: Counter, states_visited: int).
    """
    machines0, store0 = make_system()
    mnums: dict = {}  # machine key -> its number
    snums: dict = {}  # store key -> its number
    key0 = tuple(mnums.setdefault(m.key(), len(mnums)) for m in machines0)
    key0 += (snums.setdefault(store0.key(), len(snums)),)
    seen = {key0}
    frontier = [(machines0, store0, key0)]
    terminals: Counter = Counter()
    while frontier:
        nxt = []
        for machines, store, key in frontier:
            if state_check is not None:
                state_check(machines, store)
            live = [i for i, m in enumerate(machines) if not m.done]
            if not live:
                terminals[tuple(m.result for m in machines)] += 1
                continue
            for i in live:
                mi = machines[i].clone()
                if mi.op[0] in _READ_ONLY:
                    st = store
                    mi.step(st, 0, None)
                    rest = key[i + 1 :]
                else:
                    st = store.clone()
                    mi.step(st, 0, None)
                    rest = key[i + 1 : -1] + (snums.setdefault(st.key(), len(snums)),)
                k = key[:i] + (mnums.setdefault(mi.key(), len(mnums)),) + rest
                if k not in seen:
                    if len(seen) >= max_states:
                        raise RuntimeError(f"state space exceeds {max_states}")
                    seen.add(k)
                    ms = list(machines)
                    ms[i] = mi
                    nxt.append((ms, st, k))
        frontier = nxt
    return terminals, len(seen)


# ---------------------------------------------------------------------------
# lowering logic machines to the register level


def register_program(logic: LogicMachine, snap, base: int = 0, history_ops: bool = True):
    """Expand a logic machine into a register-level step generator.

    `snap` is an owner-tagged BoundedSnapshot, and plain register r is
    register base + r.  Logic machines hold structured component values:
    the snapshot's codec (`snap.codec`, see the snapshot module) packs them
    with its encode before an update and unpacks scan results with its
    decode.  The generator drives `logic.advance` with exactly the values
    the atomic store would have produced, so both granularities share one
    decision procedure.  Emits invocation/response markers when
    `history_ops` is set and the logic declares an interface op.  The
    logic's own pid is used for snapshot handshakes, so the logics of one
    run on a snapshot must have distinct pids.
    """
    codec = snap.codec
    parity = [0] * snap.m  # this process's bit per component (see `snapshot`)
    emit = history_ops and logic.op_name is not None
    if emit:
        yield ("inv", logic.op_name, ())
    while not logic.done:
        op = logic.op
        kind = op[0]
        if kind == "u":
            yield from snap.update_steps(logic.pid, op[1], codec.encode(op[1], op[2]), parity)
            res = None
        elif kind == "s":
            view = yield from snap.scan_steps(logic.pid)
            res = tuple(codec.decode(i, view[i]) for i in range(op[1], op[2]))
        elif kind == "r":
            res = yield (READ, base + op[1])
        elif kind == "w":
            yield (WRITE, base + op[1], op[2])
            res = None
        else:
            raise ValueError(f"unknown op {op!r}")
        logic.advance(res)
    if emit:
        yield ("res", logic.result)
    return logic.result


# ---------------------------------------------------------------------------
# register-level exhaustive exploration (replay based)


def _canon(h: History) -> tuple:
    # interface events with timestamps dropped; order is what matters
    return tuple((e.pid, e.kind, e.op, e.args, e.result) for e in h.events)


def explore_interleavings(
    make_system: Callable[[], tuple],
    on_terminal: Optional[Callable] = None,
    max_nodes: int = 2_000_000,
    max_depth: Optional[int] = None,
    on_cut: Optional[Callable] = None,
):
    """Exhaustively explore register-level interleavings by prefix replay.

    `make_system()` must return fresh (machines, memory) with deterministic
    programs and `memory.record_trace` enabled.  Step generators cannot be
    cloned, so each schedule prefix is replayed from scratch; prefixes are
    merged when they agree on (interface history modulo timestamps, register
    contents, per-pid observation sequence, done flags).  A deterministic
    program's continuation is a function of its own observations and the
    memory, and linearizability depends only on event order, so merged
    prefixes have identical futures in every sense the checks care about.

    Obstruction-free algorithms that retry under contention make the raw
    tree infinite (two scanners can disturb each other forever), so a
    `max_depth` cap is required for such systems: branches still running at
    the cap are handed to `on_cut(history, memory)` instead of being
    extended, and every execution beyond the cap extends one of those
    inspected prefixes.

    `on_terminal(history, memory)` runs once per distinct completed
    execution.  Returns (terminal_count, states_visited).
    """
    seen: set = set()
    terminals = 0
    nodes = 0
    stack: list[list[int]] = [[]]
    while stack:
        prefix = stack.pop()
        machines, memory = make_system()
        if not memory.record_trace:
            raise ValueError("memory must record a trace for state merging")
        history = History()
        run(machines, memory, prefix, history=history)
        per = {m.pid: [] for m in machines}
        for (_, pid, kind, reg, val) in memory.trace:
            per[pid].append((kind, reg, val))
        key = (
            _canon(history),
            tuple(memory.regs),
            tuple(tuple(per[m.pid]) for m in machines),
            tuple(m.done for m in machines),
        )
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(f"exploration exceeds {max_nodes} nodes")
        live = [m.pid for m in machines if not m.done]
        if not live:
            terminals += 1
            if on_terminal is not None:
                on_terminal(history, memory)
        elif max_depth is not None and len(prefix) >= max_depth:
            if on_cut is not None:
                on_cut(history, memory)
        else:
            for pid in live:
                stack.append(prefix + [pid])
    return terminals, len(seen)
