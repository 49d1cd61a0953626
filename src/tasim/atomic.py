"""Coarse-grained execution engine and exhaustive schedule exploration.

The protocol algorithms in this package are written as explicit state
machines (`LogicMachine`) whose poised operations act on an abstract store:

    ('u', comp, val)   overwrite one snapshot component
    ('s', lo, hi)      atomically read components lo..hi-1
    ('r', ridx)        read a plain register
    ('w', ridx, val)   write a plain register

`LogicMachine.step` applies each op to an `AtomicStore` itself, which
makes every snapshot operation a single indivisible step.  The decision
rules stay in each logic's `advance`, the one place both granularities
call.  This is the natural cost model for the sifter and
test-and-set analyses (their step bounds count snapshot operations), and it
keeps state spaces small enough for exhaustive breadth-first exploration
with duplicate-state elimination.  A logic machine is a `shm.Machine`, so
`shm.run` and `shm.drain` drive it as they drive a register-level one.

The same logic machines can instead be lowered onto the register-level
machinery in `shm`/`snapshot` via `register_program`, which runs each
store op as the register sub-program its snapshot builds for it
(`BoundedSnapshot.op_steps`).  Both granularities execute the same
decision logic, so coarse-grained exhaustive results and fine-grained
checks corroborate each other.

A `Closure` closes both granularities, any `shm.Machine`s over their
store whose programs, if any, are cursors (`shm.Cursor`:
`register_program`, `snapshot.ops_program`), by breadth-first search over
interned states, memoizing each deterministic step; retry loops revisit
states, so a register-level closure needs no depth cap.  Machines and
cursors follow one contract, `shm.Explicit`, which gives each its `clone`
and `key`.  The closure is the one transition system of every exhaustive
check: it keeps its states, representatives and memoized moves, and its
one query, `solo`, reads how far a machine runs alone from any reachable
state off those moves (the obstruction-freedom premise of the wait-free
transformation) without stepping anything again.  `explore` returns a
closure's terminals and state count; its `state_check` callback is kept
for perfbench/ only.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from .shm import Cursor, History, Machine, _by_pid, drain, new_event, run


class LogicMachine(Machine):
    """Explicit-state protocol participant, a `shm.Machine` over a store.

    Subclasses poise the next operation in `self.op` and implement
    `advance(res)` to consume the operation's result and choose the next one
    (or set `done`/`result`).  `step` comes for free; `clone` and `key`,
    which make exhaustive exploration cheap, follow `shm.Explicit`, more
    strictly: an instance's attributes are exactly the names in its class's
    FIELDS, and there are no NESTED parts.
    """

    op_name: Optional[str] = None  # interface op for histories, e.g. "tas"

    def advance(self, res) -> None:
        raise NotImplementedError

    def step(self, store, t: int, history: Optional[History]) -> None:
        """Execute one store op at schedule position t (`shm.Machine`).

        Applies the poised op to the `AtomicStore` (ValueError on an unknown
        op), counts the step and advances.  With a history and an interface
        op (`op_name`), records the invocation at 2t on the first step and
        the response at 2t+1 on the finishing step.
        """
        op = self.op
        kind = op[0]
        if kind == "s":
            res = tuple(store.comps[op[1] : op[2]])
        elif kind == "u":
            store.comps[op[1]] = op[2]
            res = None
        elif kind == "r":
            res = store.regs[op[1]]
        elif kind == "w":
            store.regs[op[1]] = op[2]
            res = None
        else:
            raise ValueError(f"unknown op {op!r}")
        steps = self.steps
        self.steps = steps + 1
        if history is None or self.op_name is None:
            self.advance(res)
            return
        if not steps:
            history.events.append(new_event((2 * t, self.pid, "inv", self.op_name, (), None)))
        self.advance(res)
        if self.done:
            history.events.append(
                new_event((2 * t + 1, self.pid, "res", self.op_name, (), self.result))
            )


class AtomicStore:
    """Components `comps`, `n_regs` zeroed plain registers, schedule position `t` (not keyed).

    A logic machine's `step` applies its ops to them.
    """

    __slots__ = ("comps", "regs", "t")

    def __init__(self, comps, n_regs: int = 0):
        self.comps = list(comps)
        self.regs = [0] * n_regs
        self.t = 0

    def clone(self) -> "AtomicStore":
        c = object.__new__(AtomicStore)
        c.comps = list(self.comps)
        c.regs = list(self.regs)
        c.t = self.t
        return c

    def key(self) -> tuple:
        return (tuple(self.comps), tuple(self.regs))


_READ_ONLY = ("s", "r")  # store ops that leave the store as it was

# Benchmark-only: only perfbench/ calls it outside its pin test; ROADMAP item 6 removes it.
# It starts the store's clock at `start_t` and returns (history, clock after the run).
def run_atomic(machines, store, schedule, history=None, record=True, start_t=0):
    """`shm.run` with its old defaults: a new History unless `record` is False."""
    if record and history is None:
        history = History()
    store.t = start_t
    run(machines, store, schedule, history)
    return history, store.t


# Benchmark-only: only perfbench/ calls it outside its pin test; ROADMAP item 6 removes it.
def run_atomic_solo(machine, store: AtomicStore, max_steps: int) -> int:
    """Run one machine alone until it finishes and return its steps; RuntimeError if
    it is unfinished after `max_steps` ops (an obstruction-freedom violation)."""
    before = machine.steps
    drain([machine], store, max_steps)
    return machine.steps - before


class Closure:
    """The reachable states of a system and the tables its search built.

    `Closure(make_system, ...)` searches as `explore` describes and keeps
    `states` (each the tuple of its machine numbers, store number and
    history number), `terminals` (`explore`'s tally), the representatives
    `machines` and `stores` by number, and the memoized moves `ops`,
    `store_ops` and `moves`, as commented where they are built.  The
    representatives are shared: do not mutate them.
    """

    __slots__ = ("states", "terminals", "machines", "stores", "ops", "store_ops", "moves", "_solo")

    def __init__(
        self,
        make_system: Callable[[], tuple],
        state_check: Optional[Callable] = None,
        max_states: int = 2_000_000,
        by_history: bool = False,
    ):
        machines0, store0 = make_system()
        if getattr(store0, "record_trace", False):
            raise ValueError("explore needs an untraced memory: successors share their parent's store")
        _by_pid(machines0)
        n = len(machines0)
        mreps = list(machines0)  # machine number -> representative; 0..n-1 have not stepped
        mops = [None if m.done else m.op for m in mreps]  # machine number -> poised op, None if done
        mnums: dict = {}  # key of a machine that has stepped -> its number
        sreps = [store0]  # store number -> representative
        snums = {store0.key(): 0}
        sops: dict = {}  # (store number, op) -> a read's response number or a write's next store
        rnums: dict = {}  # read response -> its number
        moves: dict = {}  # (machine number, response number) -> (its next number, events emitted)
        hnums: dict = {}  # (history number, event) -> number of the history it extends to
        hlast = [None]  # history number -> (number before it, its last event); 0 is empty
        frontier = [tuple(range(n)) + (0, 0)]
        seen = set(frontier)
        terminals: Counter = Counter()
        while frontier:
            nxt = []
            for state in frontier:
                s, h = state[n:]
                if state_check is not None:
                    state_check([mreps[a] for a in state[:n]], sreps[s])
                final = True
                for i, a in enumerate(state[:n]):
                    op = mops[a]
                    if op is None:
                        continue
                    final = False
                    x = sops.get((s, op))
                    if op[0] in _READ_ONLY:
                        if x is None:  # read the response off the store
                            st = sreps[s]
                            res = st.regs[op[1]] if op[0] == "r" else tuple(st.comps[op[1] : op[2]])
                            x = sops[s, op] = rnums.setdefault(res, len(rnums))
                        mk, s2 = (a, x), s
                    else:
                        mk, s2 = (a, None), x
                    move = moves.get(mk)
                    if move is None or s2 is None:
                        mi, record, st = mreps[a].clone(), History() if by_history else None, sreps[s]
                        if op[0] not in _READ_ONLY:  # a write: step a copy of the store
                            st = st.clone()
                        mi.step(st, 0, record)
                        if s2 is None:
                            s2 = sops[s, op] = snums.setdefault(st.key(), len(sreps))
                            if s2 == len(sreps):
                                sreps.append(st)
                        b = mnums.setdefault(mi.key(), len(mreps))
                        if b == len(mreps):
                            mreps.append(mi)
                            mops.append(None if mi.done else mi.op)
                        move = moves[mk] = (b, _canon(record) if by_history else ())
                    b, evs = move
                    hk = h
                    for ev in evs:
                        hk = hnums.setdefault(link := (hk, ev), len(hlast))
                        if hk == len(hlast):
                            hlast.append(link)
                    succ = list(state)
                    succ[i], succ[n], succ[n + 1] = b, s2, hk
                    succ = tuple(succ)
                    if succ not in seen:
                        if len(seen) >= max_states:
                            raise RuntimeError(f"state space exceeds {max_states}")
                        seen.add(succ)
                        nxt.append(succ)
                if final:
                    terminals[h if by_history else tuple(mreps[a].result for a in state[:n])] += 1
            frontier = nxt
        if by_history:
            terminals = Counter({_events(hlast, h): c for h, c in terminals.items()})
        self.states, self.terminals = seen, terminals
        self.machines, self.stores, self.ops = mreps, sreps, mops
        self.store_ops, self.moves, self._solo = sops, moves, {}

    def solo(self, state: tuple, i: int) -> int:
        """Steps machine i of `state` takes alone until its next response, in a
        `by_history` closure, or else until its end; 0 if it is done.

        Pure lookups, memoized on (machine number, store number): a solo path
        from a reachable state stays inside the closure.  RuntimeError naming
        the pid if the path revisits a pair (an obstruction-freedom violation).
        """
        ops, store_ops, moves, memo = self.ops, self.store_ops, self.moves, self._solo
        pair = a, s = state[i], state[-2]
        path, steps = {}, 0  # the pairs of this path, in order
        while pair not in memo:
            op = ops[a]
            if op is None:
                break
            if pair in path:
                raise RuntimeError(f"pid {self.machines[a].pid} runs alone forever")
            path[pair] = None
            x = store_ops[s, op]
            if op[0] in _READ_ONLY:
                b, evs = moves[a, x]
            else:  # a write: the path goes on from the store it made
                b, evs = moves[a, None]
                s = x
            if ops[b] is None or evs and evs[-1][1] == "res":
                break
            pair = a, s = b, s
        else:
            steps = memo[pair]
        for pair in reversed(path):
            steps += 1
            memo[pair] = steps
        return steps


def explore(
    make_system: Callable[[], tuple],
    state_check: Optional[Callable] = None,
    max_states: int = 2_000_000,
    by_history: bool = False,
):
    """Exhaustive breadth-first exploration of all schedules.

    `make_system()` returns (machines, store): `shm.Machine`s over their
    store, a step machine's program a cursor and a `shm.Memory` untraced
    (ValueError if it records a trace, and on a duplicate pid as `run`).
    Every reachable system state is visited once.  Returns (terminals:
    Counter, states_visited: int), terminals tallied by the tuple of machine
    results or, with `by_history`, which also keys each state by the
    interface events on the way to it, times dropped, by history: a tuple
    of `shm.Event`s timed 0, 1, 2, ..., for a `shm.History`.  It runs a
    `Closure`, which keeps the search's tables, and returns its terminals
    and the size of its `states`.

    States are interned: each distinct machine key, store key and read
    response is numbered once, a machine or store keeps one representative,
    and a state is the tuple of its machine numbers, store number and
    history number (its last event and the number before it).  (store
    number, op) is memoized to a read's response number or a write's next
    store, and (machine number, response) to the next machine number and
    the events emitted: a step depends only on those, so only a miss clones
    and steps, width checks included.  A logic machine's first step emits
    its invocation and `steps` is not keyed, so initial machines are
    numbered apart from later visits.

    Benchmark-only: `state_check(machines, store)` runs on each state as it
    is visited; only perfbench/ passes it outside its pin tests, and ROADMAP
    item 6 removes it.  It gets the shared representatives: it must not
    mutate them, and their `steps` is not this path's.
    """
    closure = Closure(make_system, state_check, max_states, by_history)
    return closure.terminals, len(closure.states)


def _canon(h: History) -> tuple:
    # interface events with timestamps dropped; order is what matters.  An
    # Event is a tuple, so a slice is its (pid, kind, op, args, result)
    return tuple([ev[1:] for ev in h.events])


def _events(hlast: list, h: int) -> tuple:
    """History number h as its Events, timed by position."""
    evs = []
    while h:
        h, ev = hlast[h]
        evs.append(ev)
    return tuple([new_event((t,) + ev) for t, ev in enumerate(reversed(evs))])


# ---------------------------------------------------------------------------
# lowering logic machines to the register level


def register_program(logic: LogicMachine, snap) -> "_Lowered":
    """Expand a logic machine into a register-level program, a `shm.Cursor`.

    `snap` is an owner-tagged BoundedSnapshot, and each store op of the
    logic, plain register ops too, runs as the sub-program `snap.op_steps`
    builds.  The snapshot's codec (`snap.codec`, see the snapshot module)
    packs the logic's component values before an update and unpacks scan
    results, so `logic.advance` sees exactly what the atomic store would
    have produced and both granularities share one decision procedure.
    Like `LogicMachine.step`, it emits invocation/response markers exactly
    when the logic has an interface op (`op_name`).  The logic's pid is
    used for snapshot handshakes, so the logics of one run need distinct
    pids.  The program advances `logic` itself; a clone advances a clone.
    """
    return _Lowered(logic, snap)


# `_Lowered.stage`: nothing returned yet; the next send starts the logic's next op; finished
_START, _NEXT, _END = range(3)


class _Lowered(Cursor):
    """`register_program`'s cursor: each store op of the logic runs as `sub`."""

    FIELDS = ("stage", "parity")
    NESTED = ("logic", "sub")

    def __init__(self, logic: LogicMachine, snap):
        self.logic = logic
        self.snap = snap
        self.stage = _START
        self.sub = None
        self.parity = 0  # this process's bits, bit i for component i (see `snapshot`)

    def send(self, val):
        sub = self.sub
        logic = self.logic
        if sub is not None:
            item = sub.step(val)
            if item is not None:
                return item
            self.sub = None
            op = logic.op
            res = sub.result
            if op[0] == "s":
                decode = self.snap.codec.decode
                res = tuple(decode(i, res[i]) for i in range(op[1], op[2]))
            logic.advance(res)
        elif self.stage == _START:
            self.stage = _NEXT
            if logic.op_name is not None:
                return ("inv", logic.op_name, ())
        elif self.stage == _END:
            raise StopIteration(logic.result)
        if logic.done:
            self.stage = _END
            if logic.op_name is not None:
                return ("res", logic.result)
            raise StopIteration(logic.result)
        op = logic.op
        if op[0] == "u":
            op = ("u", op[1], self.snap.codec.encode(op[1], op[2]))
        self.sub, self.parity = self.snap.op_steps(logic.pid, op, self.parity)
        return self.sub.step(None)


# ---------------------------------------------------------------------------
# register-level exhaustive exploration (replay based)


# Benchmark-only: only perfbench/ calls it outside its pin tests; ROADMAP item 6 removes it.
# `explore(..., by_history=True)` closes the same systems with no depth cap.
def explore_interleavings(
    make_system: Callable[[], tuple],
    on_terminal: Optional[Callable] = None,
    max_nodes: int = 2_000_000,
    max_depth: Optional[int] = None,
    on_cut: Optional[Callable] = None,
):
    """Exhaustively explore register-level interleavings by prefix replay.

    `make_system()` must return fresh (machines, memory) with deterministic
    programs and `memory.record_trace` enabled, the same system on every
    call.  Each schedule prefix is replayed from scratch, and prefixes merge
    when they agree on interface history modulo timestamps, register
    contents, per-pid observations and done flags: a deterministic program's
    future is a function of those.  Each distinct canonical history and
    each distinct per-pid observation sequence (the pid's trace entries as
    (kind, reg, val)) is numbered when it first appears, and a node is keyed
    by one flat tuple: its history number, the registers and, per machine,
    its observation number and done flag.  The search thus holds one number
    per distinct history and per-pid observation sequence, not a copy of
    them per node.  Retrying algorithms make the raw tree infinite, so such systems
    need `max_depth`: branches still running at the cap go to
    `on_cut(history, memory)` instead of being extended.
    `on_terminal(history, memory)` runs once per distinct completed
    execution.  Returns (terminal_count, states_visited).
    """
    seen: set = set()
    hnums: dict = {}  # canonical history -> its number
    onums: dict = {}  # one pid's observation sequence -> its number
    terminals = 0
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
        key = [hnums.setdefault(_canon(history), len(hnums)), *memory.regs]
        for m in machines:
            key.append(onums.setdefault(tuple(per[m.pid]), len(onums)))
            key.append(m.done)
        nodes = len(seen)
        seen.add(tuple(key))  # one hash: a repeat leaves the size as it was
        if len(seen) == nodes:
            continue
        if nodes >= max_nodes:
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
