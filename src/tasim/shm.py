"""Simulated shared memory: registers, step machines, schedules, histories.

The execution model is asynchronous shared memory with atomic multi-reader
multi-writer registers.  A *step machine* is a process program that performs
exactly one shared-memory access per scheduled step; all local computation
between accesses is free.  A *schedule* is a sequence of process ids fixed
before the run starts, so the adversary choosing it cannot react to anything
the processes do (in particular not to their coin flips).  A seeded random
schedule draws from its own `random.Random`, seeded with the string
``schedule:<seed>``, like the library's other seeded streams.

A program yields operation tuples and receives each operation's response.
It is a generator::

    def prog(pid):
        v = yield ('r', 3)        # read register 3
        yield ('w', 0, v + 1)     # write register 0

or an explicit iterator, a `Cursor`, whose ``send`` plays the generator's
part and whose whole state is in its fields, so that it has `clone` and
`key`: the snapshot's scan and update, ``snapshot.ops_program`` and
``atomic.register_program`` are cursors.  Only a machine whose program is a
cursor can be cloned and explored (``atomic.explore``).

A *block op* ``('r', reg, k)`` stands for k reads of one register in a
row: it takes k schedule slots, k steps and k trace entries, exactly as k
single reads would, but the generator resumes only once, after the last
read, with the value that read returned.  The coin-block wrapper yields a
tails block this way.  Untraced, `run_live_uniform` counts a block's middle
reads down itself, in bulk while every live machine is inside a long block.

Two bookkeeping yields never touch shared memory and consume no schedule
slot; they delimit object-level operations for history checking::

    yield ('inv', 'scan', ())     # operation starts
    yield ('res', view)           # operation responds

A program that yields neither records nothing in a history.

`run` drives any machine with a ``step(memory, t, history)`` method, so the
snapshot-op-granularity ``atomic.LogicMachine``s over an ``atomic.AtomicStore``
run through it too, as does `drain`, the one solo driver.  Only drivers
(`run`, `drain`, `run_live_uniform`, ``atomic.explore``) check whether a
machine has finished; a `step` is never called on a finished machine.
Every driver records events only into a `History` it is given, and none
makes one: without a history a run records nothing.  Every driver starts at
`memory.t`, the memory's schedule position, and leaves it after its last slot.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Optional

READ = "r"
WRITE = "w"

Program = Generator[tuple, Any, Any]  # or a `Cursor`


class RegisterWidthError(ValueError):
    """A write does not fit the register's declared width."""


# ---------------------------------------------------------------------------
# events and histories


@dataclass(frozen=True, init=False)
class Event:
    """One invocation or response at an object's interface.

    Times are derived from the global schedule position t of the shared step
    they attach to: invocations get 2t (just before the step), responses
    2t+1 (just after).  Each schedule slot belongs to one process, so all
    event times in a run are distinct and totally ordered.

    Every run records two Events per operation, so the constructor stores
    the instance dict in one call instead of the frozen default's one
    ``object.__setattr__`` per field; equality, hashing and
    ``dataclasses.replace`` are the dataclass's own.  Per-key writes into
    ``self.__dict__`` would save ~136 bytes an Event but slow every read.
    """

    time: int
    pid: int
    kind: str  # 'inv' | 'res'
    op: str
    args: tuple
    result: Any = None

    def __init__(self, time, pid, kind, op, args, result=None):
        object.__setattr__(
            self,
            "__dict__",
            {"time": time, "pid": pid, "kind": kind, "op": op, "args": args, "result": result},
        )


@dataclass
class OpRecord:
    pid: int
    op: str
    args: tuple
    result: Any
    inv: int
    resp: Optional[int]  # None while pending

    @property
    def pending(self) -> bool:
        return self.resp is None


@dataclass
class History:
    """Sequence of interface events, ordered by time."""

    events: list[Event] = field(default_factory=list)

    def ops(self) -> list[OpRecord]:
        """Pair up invocations with responses, per process, in order."""
        open_by_pid: dict[int, OpRecord] = {}
        out: list[OpRecord] = []
        for ev in self.events:
            if ev.kind == "inv":
                if ev.pid in open_by_pid:
                    raise ValueError(f"pid {ev.pid}: invocation while one is open")
                rec = OpRecord(ev.pid, ev.op, ev.args, None, ev.time, None)
                open_by_pid[ev.pid] = rec
                out.append(rec)
            elif ev.kind == "res":
                rec = open_by_pid.pop(ev.pid, None)
                if rec is None:
                    raise ValueError(f"pid {ev.pid}: response without invocation")
                rec.result = ev.result
                rec.resp = ev.time
            else:
                raise ValueError(f"unknown event kind {ev.kind!r}")
        return out


# ---------------------------------------------------------------------------
# memory


class Memory:
    """Array of atomic registers with declared bit widths and an access trace.

    While `record_trace` (the one trace switch) is set, the trace records one
    entry per shared-memory step: ``(t, pid, 'R'|'W', reg, val)``.  Scheduling
    slots that land on finished machines absorb into no-ops and leave none.
    `t` is the execution's schedule position, 0 when made; only drivers move it.
    """

    __slots__ = ("widths", "regs", "trace", "record_trace", "t")

    def __init__(self, widths: Iterable[int], record_trace: bool = False):
        self.widths = list(widths)
        self.regs = [0] * len(self.widths)  # zeros fit any width
        self.trace: list[tuple] = []
        self.record_trace = record_trace
        self.t = 0

    def _check(self, reg: int, val: int) -> None:
        if not isinstance(val, int) or val < 0 or val >> self.widths[reg]:
            raise RegisterWidthError(
                f"value {val!r} does not fit register {reg} ({self.widths[reg]} bits)"
            )

    def read(self, t: int, pid: int, reg: int) -> int:
        v = self.regs[reg]
        if self.record_trace:
            self.trace.append((t, pid, "R", reg, v))
        return v

    def write(self, t: int, pid: int, reg: int, val: int) -> None:
        self._check(reg, val)
        self.regs[reg] = val
        if self.record_trace:
            self.trace.append((t, pid, "W", reg, val))

    def clone(self) -> "Memory":
        c = object.__new__(Memory)
        c.widths = self.widths  # never mutated
        c.regs = list(self.regs)
        c.trace = list(self.trace)
        c.record_trace = self.record_trace
        c.t = self.t
        return c

    def key(self) -> tuple:
        """The register contents; `t` and the trace are left out."""
        return tuple(self.regs)


def export_trace_jsonl(trace: Iterable[tuple], fp) -> None:
    """Write trace entries as JSON lines: {"t","pid","op","reg","val"}."""
    for t, pid, op, reg, val in trace:
        fp.write(
            json.dumps({"t": t, "pid": pid, "op": op, "reg": reg, "val": val})
            + "\n"
        )


# ---------------------------------------------------------------------------
# schedules


def make_schedule(
    kind: str,
    n: int,
    length: int,
    seed: Optional[int] = None,
    burst: Optional[int] = None,
) -> list[int]:
    """Build a schedule: a list of `length` pids over 0..n-1.

    kinds: 'rr' round robin; 'random' iid uniform, one randrange(n) per
    entry from random.Random(f"schedule:{seed}"), so any integer seed works;
    'solo' round robin of solo bursts of `burst` consecutive steps.
    The whole sequence is materialized here, before any machine takes a
    step or flips a coin, which is what makes the adversary oblivious.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if kind == "rr":
        s = [i % n for i in range(length)]
    elif kind == "random":
        if seed is None:
            raise ValueError("random schedule needs a seed")
        rng = random.Random(f"schedule:{seed}")
        s = [rng.randrange(n) for _ in range(length)]
    elif kind == "solo":
        if not burst or burst <= 0:
            raise ValueError("solo schedule needs a positive burst")
        s = [(i // burst) % n for i in range(length)]
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return s


# ---------------------------------------------------------------------------
# step machines


class Cursor:
    """An explicit program: the generator protocol, its state in its fields.

    A subclass implements ``send(val)`` as a generator does: it takes the
    response to the item it returned last (None for the first call and
    after a bookkeeping yield) and returns the next item, or raises
    StopIteration(result) at the end.  A sub-program (a snapshot's scan or
    update) implements ``step(val)`` instead, which returns None at the end
    and leaves the return value in `result`, and `send` is built on it
    here: the program driving it calls `step`, since raising and catching
    StopIteration costs about as much as four register steps.

    ``clone()`` is an independent copy: the instance dict is copied here,
    and a subclass copies its mutable fields on top.  ``key()`` is hashable
    and equal for two cursors exactly when they behave alike from here on;
    what is fixed at construction (the snapshot, a script) may be left out
    of it, since exploration only compares cursors built alike.
    """

    result = None

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, val):
        item = self.step(val)
        if item is None:
            raise StopIteration(self.result)
        return item

    def clone(self):
        c = object.__new__(type(self))
        c.__dict__ = self.__dict__.copy()
        return c


def as_cursor(program) -> Cursor:
    """`program` if it is a cursor, else the generator `program` as a
    sub-program that cannot be cloned: perfbench/ counts scans by replacing
    `BoundedSnapshot.scan_steps` with a generator."""
    return program if isinstance(program, Cursor) else _Generator(program)


class _Generator(Cursor):
    def __init__(self, gen):
        self.gen = gen

    def step(self, val):
        try:
            return self.gen.send(val)
        except StopIteration as stop:
            self.result = stop.value
            return None

    def clone(self):
        raise TypeError(f"a {type(self.gen).__name__} program cannot be cloned")


class StepMachine:
    """Wraps a program; holds its poised operation between steps.

    The program records its operations in a history only through its own
    ``inv``/``res`` yields.  An ``inv`` waits in `_pending_inv` for the next
    shared step, which opens it at 2t; `_open` then holds its (name, args)
    until a ``res`` yield, read while resuming after step t, closes it at
    2t+1.  While a block op is in progress, `_left` counts its reads still
    to take.  `auto_history` must be False.  `clone` and `key` need a
    `Cursor` program; the key leaves out `steps`, and `result` is the
    program's to key.
    """

    __slots__ = ("pid", "gen", "op", "done", "result", "steps", "_pending_inv", "_open", "_left")

    # auto_history: only perfbench/ passes it outside its pin test; ROADMAP item 6 removes it
    def __init__(self, pid: int, gen: Program, auto_history: bool = False):
        if auto_history:
            raise ValueError("no automatic history: mark operations with inv/res yields")
        self.pid = pid
        self.gen = gen
        self.done = False
        self.result: Any = None
        self.steps = 0
        self._pending_inv: Optional[tuple] = None
        self._open: Optional[tuple] = None
        self._left = 0
        self.op = self._resume(None, 0, None)
        if self.done:
            raise ValueError("program finished without a shared-memory step")

    def _resume(self, val, t: int, history: Optional[History]):
        """Send `val` to the program; return its next shared op (None at its end).

        Bookkeeping yields on the way are handled here: a ``res`` is
        recorded at once at 2t+1, t being the step whose response `val` is.
        """
        gen = self.gen
        try:
            item = gen.send(val)
            while item[0] not in (READ, WRITE):
                if item[0] == "inv":
                    if self._pending_inv is not None or self._open is not None:
                        raise ValueError(f"pid {self.pid}: nested invocation")
                    self._pending_inv = (item[1], tuple(item[2]))
                elif item[0] == "res":
                    if self._open is None:
                        raise ValueError(f"pid {self.pid}: response without open invocation")
                    if history is not None:
                        name, args = self._open
                        history.events.append(
                            Event(2 * t + 1, self.pid, "res", name, args, item[1])
                        )
                    self._open = None
                else:
                    raise ValueError(f"unknown yield {item!r}")
                item = gen.send(None)
            return item
        except StopIteration as e:
            self.done = True
            self.result = e.value
            return None

    def step(self, memory: Memory, t: int, history: Optional[History]) -> None:
        """Execute one shared-memory step at schedule position t.

        Drivers step only unfinished machines: whether one has finished is
        theirs to check, not this method's.
        """
        left = self._left
        if left:
            # a later read of a block op: the generator waits for the last
            resp = memory.read(t, self.pid, self.op[1])
            self.steps += 1
            self._left = left = left - 1
            if left:
                return
        else:
            if self._pending_inv is not None:
                self._open = self._pending_inv
                self._pending_inv = None
                if history is not None:
                    name, args = self._open
                    history.events.append(Event(2 * t, self.pid, "inv", name, args))
            op = self.op
            if op[0] == READ:
                resp = memory.read(t, self.pid, op[1])
                if len(op) == 3:
                    k = op[2]
                    if not isinstance(k, int) or k < 1:
                        raise ValueError(f"pid {self.pid}: bad block length {k!r}")
                    if k > 1:
                        self.steps += 1
                        self._left = k - 1
                        return
            else:
                memory.write(t, self.pid, op[1], op[2])
                resp = None
            self.steps += 1
        self.op = self._resume(resp, t, history)

    def clone(self) -> "StepMachine":
        gen = self.gen
        if not isinstance(gen, Cursor):
            raise TypeError(f"pid {self.pid}: a {type(gen).__name__} program cannot be cloned")
        c = object.__new__(type(self))
        c.pid = self.pid
        c.gen = gen.clone()
        c.op = self.op
        c.done = self.done
        c.result = self.result
        c.steps = self.steps
        c._pending_inv = self._pending_inv
        c._open = self._open
        c._left = self._left
        return c

    def key(self) -> tuple:
        return (self.pid, self.gen.key(), self.op, self._pending_inv, self._open, self._left)


# ---------------------------------------------------------------------------
# runners


def run(
    machines: list,
    memory,
    schedule: Iterable[int],
    history: Optional[History] = None,
) -> Optional[History]:
    """Drive machines through the schedule; one step per entry.

    The one runner for both granularities: `StepMachine`s over a `Memory`
    take one register access per entry, and `atomic.LogicMachine`s over an
    `atomic.AtomicStore` one snapshot operation; each steps through its own
    `step(memory, t, history)`.  `schedule` is any iterable of pids, taken
    from schedule position `memory.t` on, which is left after the last slot
    consumed.  Entries addressed to finished or absent machines are absorbed
    here as no-ops (they consume the slot but touch nothing), never passed
    to `step`.  Returns `history`, like `drain`.
    """
    get = _by_pid(machines).get
    t = memory.t
    for pid in schedule:
        m = get(pid)
        if m is not None and not m.done:
            m.step(memory, t, history)
        t += 1
    memory.t = t
    return history


def _by_pid(machines: list) -> dict:
    by_pid = {}
    for m in machines:
        if m.pid in by_pid:
            raise ValueError(f"duplicate pid {m.pid}")
        by_pid[m.pid] = m
    return by_pid


def drain(
    machines: list,
    memory,
    bound: int,
    history: Optional[History] = None,
) -> Optional[History]:
    """Finish every unfinished machine with one solo burst of `bound` slots.

    Bursts run in list order, over a Memory or an AtomicStore, and continue
    the run at schedule position `memory.t`, recording into `history` when
    one is given.  A burst steps its machine directly, slot by slot, and
    stops early once it finishes; the burst still takes all `bound` slots of
    the schedule, so the next burst starts `bound` slots later, as it would
    under `run` with `[pid] * bound`, and `memory.t` is left after the last
    burst.  Raises ValueError on a duplicate pid and RuntimeError if a
    machine is still unfinished after its burst.  Returns `history`.
    """
    _by_pid(machines)  # raises on a duplicate pid, as run does
    for m in machines:
        if not m.done:
            t = memory.t
            memory.t = end = t + bound  # the burst takes all its slots, even failing
            step = m.step
            for slot in range(t, end):
                step(memory, slot, history)
                if m.done:
                    break
            else:
                raise RuntimeError(f"pid {m.pid} not done after a solo burst of {bound}")
    return history


def run_live_uniform(
    machines: list[StepMachine],
    memory: Memory,
    rng,
    max_steps: int,
    history: Optional[History] = None,
) -> int:
    """Exact sampler of an iid-uniform oblivious schedule, skipping dead slots.

    Because the schedule is drawn independently of everything the machines
    do, conditioning on which machines have finished leaves the next useful
    entry uniform over the unfinished ones.  This runner draws only that
    subsequence, so observable behavior (step order, hence histories and
    outcomes) is distributed exactly as under `run` with a long 'random'
    schedule, at a fraction of the cost.  Starts at `memory.t`, leaves it
    after its last slot, and returns the number of slots taken (at most
    `max_steps`).  Raises ValueError on a duplicate pid, as `run` does.

    `rng` is a random.Random, or anything whose getrandbits(k) packs its
    32-bit words as CPython's does.  Each index below the live count c is
    drawn by rejection from getrandbits(c.bit_length()), keeping the first
    value below c: the draws randrange(c) makes, so the indices and the
    rng's final state are those of calling randrange(c) per step.  Any
    uniform getrandbits samples the right distribution; only that packing
    reproduces a seed's run.  Untraced, a middle read of a block op is
    counted down in place, and once c <= 255 and every live machine has
    more than `_SKIP` block reads left, `_skip_blocks` draws the slots up
    to the first block's last read in bulk, exactly; see there.
    """
    _by_pid(machines)  # raises on a duplicate pid
    live = [m for m in machines if not m.done]
    getrandbits = rng.getrandbits
    untraced = not memory.record_trace
    c = len(live)
    bits = c.bit_length()
    t = t0 = memory.t
    end = t0 + max_steps
    while c and t < end:
        i = getrandbits(bits)
        while i >= c:
            i = getrandbits(bits)
        m = live[i]
        left = m._left
        if left > 1 and untraced:  # a middle read: no trace, event or resume
            m._left = left - 1
            m.steps += 1
        else:
            m.step(memory, t, history)
            if m.done:
                live[i] = live[-1]
                live.pop()
                c -= 1
                bits = c.bit_length()
            if untraced and 0 < c <= 255 and (m.done or m._left > _SKIP):
                t += _skip_blocks(live, getrandbits, end - t - 1)
        t += 1
    memory.t = t
    return t - t0


_SKIP = 32  # skip in bulk only while every live machine has more reads left
_INDEX = {}  # live count c -> 256-byte table from a word's top byte to its index


def _skip_blocks(live: list, getrandbits, budget: int) -> int:
    """Take up to `budget` slots of middle block reads at once; return how many.

    CPython's getrandbits(k) for k <= 32 is one Mersenne Twister word
    shifted right by 32 - k, and getrandbits(32*w) packs w words, the first
    least significant.  With c <= 255, a word's top byte thus gives the
    index getrandbits(c.bit_length()) would have drawn (255: a rejection).
    A stretch of w = min(reads left) - 1 draws ends no block and resumes no
    program, so each machine is only credited the reads that landed on it.
    Above 255 live machines a wider index would buy nothing: in 40
    `RandTas(1024)` trials, 0.05 of the ~1,671 slots per trial drawn there
    were middle block reads; that stretch is doorway exits.
    """
    c = len(live)
    table = _INDEX.get(c)
    if table is None:
        shift = 8 - c.bit_length()
        table = _INDEX[c] = bytes(v >> shift if v >> shift < c else 255 for v in range(256))
    taken = 0
    while taken < budget and (lo := min([m._left for m in live])) > _SKIP:
        w = min(lo - 1, budget - taken)
        idx = getrandbits(32 * w).to_bytes(4 * w, "little")[3::4].translate(table)
        for k, m in enumerate(live):
            r = idx.count(k)
            m._left -= r
            m.steps += r
        taken += w - idx.count(255)
    return taken
