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
part and whose whole state is declared (`Explicit`), so that it has `clone`
and `key`: the snapshot's scan and update, and ``snapshot.register_program``
(which ``ops_program`` returns), are cursors.  Only a machine whose program
is a cursor can be cloned and explored (``atomic.explore``).  `Explicit`
is also the contract of every `Machine`: a machine's and a program's state
is one set of declared attributes, and none of them holds a list.

A *multi-read op* ``('c', reads, answer)`` stands for several reads taken in
order, one per schedule slot: each is the machine's `op` while it is poised
at it, is traced through `Memory` and counts as a step, but the program
resumes only once, after the last read, with the answer `answer` picks.
With `answer` None, `reads` is a tuple of read ops and the answer is the
tuple of values read (a scan's collect c1); with a tuple of as many values,
whether each value read equals its own (c2, which reads on without comparing
after a mismatch); with an int k, `reads` is one read op, taken k times, and
the answer is the last value read (a tails block of the coin-block wrapper).
A bad shape raises a ValueError naming the pid when the machine is poised at
the op.  Untraced, `run_live_uniform` counts a block's reads down itself, in
bulk while every live machine is deep inside one.

Two bookkeeping yields never touch shared memory and consume no schedule
slot; they delimit object-level operations for history checking::

    yield ('inv', 'scan', ())     # operation starts
    yield ('res', view)           # operation responds

A program that yields neither records nothing in a history.

A process is a `Machine`, which states the contract every driver (`run`,
`drain`, `run_live_uniform`, ``atomic.explore``) follows, over a `Memory` or,
at snapshot-op granularity, an ``atomic.AtomicStore``.  Every driver records
events only into a `History` it is given, and none makes one: without a
history a run records nothing.  Every driver starts at `memory.t`, the
memory's schedule position, and leaves it after its last slot.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Generator, Iterable, Optional

READ = "r"
WRITE = "w"
COLLECT = "c"

Program = Generator[tuple, Any, Any]  # or a `Cursor`


class RegisterWidthError(ValueError):
    """A write does not fit the register's declared width."""


# ---------------------------------------------------------------------------
# events and histories


@dataclass(frozen=True, init=False, eq=False)
class Event(namedtuple("_EventTuple", "time pid kind op args result", defaults=(None,))):
    """One invocation or response at an object's interface.

    Times are derived from the global schedule position t of the shared step
    they attach to: invocations get 2t (just before the step), responses
    2t+1 (just after).  Each schedule slot belongs to one process, so all
    event times in a run are distinct and totally ordered.

    A frozen dataclass stored as the tuple of its six fields, in field
    order, with no instance dict: every run records two Events per
    operation, and the recorders build each through `new_event`, one call
    into C.  `Event(...)` takes the fields by position or keyword as
    before, and ``dataclasses.replace``/``astuple``, `repr` and the
    FrozenInstanceError on assignment are the dataclass's.  Equality and
    hashing are the tuple's: an Event equals another Event, and also the
    plain tuple, with the same fields, and hashes as that tuple does.  A
    field read through its name costs more on a tuple than on a dict, so
    the readers (``verify``'s checkers, ``atomic._canon``) unpack each
    event once.
    """

    __slots__ = ()

    # field(): a bare annotation would take the base's getter for a default
    time: int = field()
    pid: int = field()
    kind: str = field()  # 'inv' | 'res'
    op: str = field()
    args: tuple = field()
    result: Any = None


del Event.result  # the dataclass left the default on the class, over the tuple's field

# new_event((time, pid, kind, op, args, result)) is the Event of those six
# fields, all six given, built in one C call: every recorder builds through it
new_event = partial(tuple.__new__, Event)


@dataclass
class History:
    """Sequence of interface events, ordered by time.

    A run records events here and nothing more; ``verify``'s checkers pair
    each invocation with its response and judge the history.  Events are
    tuples (`Event`), so a history of m operations is 2m tuples and the
    list holding them.
    """

    events: list[Event] = field(default_factory=list)


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

    def read(self, t: int, pid: int, reg: int) -> int:
        v = self.regs[reg]
        if self.record_trace:
            self.trace.append((t, pid, "R", reg, v))
        return v

    def write(self, t: int, pid: int, reg: int, val: int) -> None:
        if not isinstance(val, int) or val < 0 or val >> self.widths[reg]:
            raise RegisterWidthError(
                f"value {val!r} does not fit register {reg} ({self.widths[reg]} bits)"
            )
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

    kinds: 'rr' round robin; 'random' iid uniform, the draws of one
    randrange(n) per entry (`draw_pids`) from
    random.Random(f"schedule:{seed}"), so any integer seed works;
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
        s = draw_pids(random.Random(f"schedule:{seed}"), n, length)
    elif kind == "solo":
        if not burst or burst <= 0:
            raise ValueError("solo schedule needs a positive burst")
        s = [(i // burst) % n for i in range(length)]
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return s


def draw_pids(rng, n: int, count: int) -> list[int]:
    """`count` pids below n, exactly as `count` calls of rng.randrange(n).

    randrange(n) keeps the first of its getrandbits(n.bit_length()) draws
    that is below n; this makes those draws, so the list and the rng's final
    state are the same, and raises ValueError for n <= 0.  `rng` is a
    random.Random, or packs getrandbits' words as CPython's does (see
    `run_live_uniform`).  Below 256, while more than 16 pids are wanted, it
    draws one word per pid still wanted in one call (`_word_indices`): a
    word yields at most one pid, so it never draws past the last one.  The
    rest it draws one at a time, which costs less than a bulk call for so
    few.
    """
    if n <= 0:
        raise ValueError(f"no pid below {n}")
    getrandbits = rng.getrandbits
    out: list[int] = []
    if n < 256:
        while count > 16:
            got = _word_indices(getrandbits, n, count).replace(b"\xff", b"")
            out += got
            count -= len(got)
    bits = n.bit_length()
    for _ in range(count):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        out.append(i)
    return out


_INDEX = {}  # c -> the table `_word_indices` reads indices below c through


def _word_indices(getrandbits, c: int, w: int) -> bytes:
    """The indices below c < 256 that w calls of getrandbits(c.bit_length())
    would draw, one byte per call, 255 for a rejection; draws w words.

    CPython's getrandbits(k) for k <= 32 is one Mersenne Twister word
    shifted right by 32 - k, and getrandbits(32*w) packs w words, the first
    least significant.  A word's top byte shifted right by 8 - k is thus the
    value getrandbits(k) would return, and a 256-byte table per c maps it to
    itself below c and to 255 otherwise.
    """
    table = _INDEX.get(c)
    if table is None:
        shift = 8 - c.bit_length()
        table = _INDEX[c] = bytes(v >> shift if v >> shift < c else 255 for v in range(256))
    return getrandbits(32 * w).to_bytes(4 * w, "little")[3::4].translate(table)


# ---------------------------------------------------------------------------
# step machines


class Explicit:
    """A state declared per class: a `Machine`, a program or a sub-program.

    FIELDS name the attributes holding hashable values, NESTED those holding
    explicit parts or None; any other attribute is fixed at construction and
    not keyed, since exploration compares only states built alike.  `clone`
    copies the instance dict and clones the NESTED parts; `key` is the
    FIELDS but ``steps`` (bookkeeping) through one `operator.attrgetter` per
    class, then the NESTED parts' keys.  Both raise a TypeError naming the
    pid on a part that is not explicit (a `StepMachine`'s generator
    program).  A list in FIELDS would be shared by a clone, and an
    attribute a step changes outside both would be cloned but not keyed,
    merging states that differ: no state holds a list.
    """

    FIELDS: tuple = ()
    NESTED: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        keyed = [f for f in cls.FIELDS if f != "steps"]
        if keyed:
            cls._fields = attrgetter(*keyed)
        if cls.NESTED:  # else a copy of the dict, and the getter alone
            own = vars(cls)  # a class's own clone and key stay
            cls.clone = own.get("clone", Explicit._clone_nested)
            cls.key = own.get("key", Explicit._key_nested)

    def clone(self):
        c = object.__new__(type(self))
        c.__dict__ = self.__dict__.copy()
        return c

    def key(self) -> tuple:
        return self._fields(self)

    def _clone_nested(self):
        c = Explicit.clone(self)
        for name in self.NESTED:
            part = getattr(self, name)
            if isinstance(part, Explicit):
                setattr(c, name, part.clone())
            elif part is not None:
                raise TypeError(f"pid {self.pid}: a {type(part).__name__} program cannot be cloned")
        return c

    def _key_nested(self) -> tuple:
        key = [self._fields(self)]
        for name in self.NESTED:
            part = getattr(self, name)
            if isinstance(part, Explicit):
                key.append(part.key())
            elif part is None:
                key.append(None)
            else:
                raise TypeError(f"pid {self.pid}: a {type(part).__name__} program cannot be keyed")
        return tuple(key)


class Cursor(Explicit):
    """An explicit program of a `Machine`: the generator protocol, its state declared.

    A subclass implements ``send(val)`` as a generator does: it takes the
    response to the item it returned last (None for the first call and
    after a bookkeeping yield) and returns the next item, or raises
    StopIteration(result) at the end.  A sub-program (a snapshot's scan or
    update) implements ``step(val)`` instead, which returns None at the end
    and leaves the return value in `result`, and `send` is built on it
    here: the program driving it calls `step`, since raising and catching
    StopIteration costs about as much as four register steps.  Its state
    follows `Explicit`: tuples and ints in FIELDS, sub-programs in NESTED.
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


def as_cursor(program) -> Cursor:
    """`program` if it is a cursor, else the generator `program` as a
    sub-program that can be neither cloned nor keyed: perfbench/ counts
    scans by replacing `BoundedSnapshot.scan_steps` with a generator."""
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

    def key(self):
        raise TypeError(f"a {type(self.gen).__name__} program cannot be keyed")


class Machine(Explicit):
    """A process: its state declared (`Explicit`), driven one step at a time.

    Every driver (`run`, `drain`, `run_live_uniform`, ``atomic.explore``)
    reads the state declared here, calls ``step(memory, t, history)`` for
    one step at schedule position t, and never calls it on a finished one.
    """

    FIELDS = ("pid", "op", "done", "result", "steps")

    def __init__(self, pid: int):
        self.pid = pid
        self.op: Optional[tuple] = None  # the poised operation, None once done
        self.done = False
        self.result: Any = None
        self.steps = 0


class StepMachine(Machine):
    """Wraps a program; holds its poised operation between steps.

    The program records its operations in a history only through its own
    ``inv``/``res`` yields.  An ``inv`` waits in `_pending_inv` for the next
    shared step, which opens it at 2t, and a program that ends or responds
    before that step raises ValueError; `_open` then holds its (name, args)
    until a ``res`` yield, read while resuming after step t, closes it at
    2t+1.  While the machine is poised at a multi-read op, `_multi` holds it,
    `op` is its read due next, the countdown `_left` counts its reads still
    to take, that one included (0 while an invocation is pending, so that no
    runner takes the read that opens it), and `_got` is None for a block,
    else the answer so far: the values read, or whether they all matched.
    `auto_history` must be False.  Only a machine whose program is a `Cursor`
    can be cloned and keyed.

    A subclass may build a machine with no program (`gen` None), poised
    at its first op with an invocation pending; its first step is then
    its `_start(memory, t, history)`, which takes that step and, unless
    the machine is done, sets `gen` and the next op.
    """

    FIELDS = Machine.FIELDS + ("_pending_inv", "_open", "_left", "_multi", "_got")
    NESTED = ("gen",)

    # auto_history: only perfbench/ passes it outside its pin test; ROADMAP item 6 removes it
    def __init__(self, pid: int, gen: Program, auto_history: bool = False):
        if auto_history:
            raise ValueError("no automatic history: mark operations with inv/res yields")
        super().__init__(pid)
        self.gen = gen
        self._pending_inv = self._open = self._multi = self._got = None
        self._left = 0
        try:
            self.op = self._resume(gen.send(None), 0, None)
        except StopIteration:
            raise ValueError("program finished without a shared-memory step") from None

    def _resume(self, item, t: int, history: Optional[History]):
        """`step`'s slow path: the program yielded `item`, not a read or write.

        Handle it and the bookkeeping yields that follow, and return the
        next shared op, a multi-read op's first read once it is set up;
        the program's end raises StopIteration through here.  A ``res`` is
        recorded at once at 2t+1, t being the step the program resumed after.
        """
        gen = self.gen
        while item[0] not in (READ, WRITE):
            if item[0] == "inv":
                if self._pending_inv is not None or self._open is not None:
                    raise ValueError(f"pid {self.pid}: nested invocation")
                self._pending_inv = (item[1], tuple(item[2]))
            elif item[0] == "res":
                if self._pending_inv is not None:
                    raise ValueError(
                        f"pid {self.pid}: response after invoking {self._pending_inv[0]!r}"
                        " without a step"
                    )
                if self._open is None:
                    raise ValueError(f"pid {self.pid}: response without open invocation")
                if history is not None:
                    name, args = self._open
                    history.events.append(
                        new_event((2 * t + 1, self.pid, "res", name, args, item[1]))
                    )
                self._open = None
            elif item[0] == COLLECT:
                return self._begin(item)
            else:
                raise ValueError(f"unknown yield {item!r}")
            item = gen.send(None)
        return item

    def _begin(self, multi: tuple) -> tuple:
        """Poise the machine at multi-read op `multi`: check its shape, fix
        its answer mode and start its countdown; return its first read."""
        _, reads, answer = multi
        k = len(reads)
        if answer is None or type(answer) is tuple and len(answer) == k:  # a collect
            self._got = () if answer is None else True  # the values so far, or a match
        elif isinstance(answer, int) and answer > 0 and reads[0] == READ:  # a block
            self._got, k, reads = None, answer, (reads,)
        else:
            k = 0
        if not k:
            raise ValueError(f"pid {self.pid}: bad multi-read op {multi!r}")
        self._multi = multi
        self._left = k if self._pending_inv is None else 0
        return reads[0]

    def step(self, memory: Memory, t: int, history: Optional[History]) -> None:
        """Execute one shared-memory step at schedule position t.

        One frame in the common case: an untraced read, a multi-read op's read
        and the resume of a program whose next item is a read or a write are
        taken here.  A write and a traced read go through `Memory`, a
        multi-read op through `_begin`, other items through `_resume`.
        """
        if self._pending_inv is not None:
            if self.gen is None:
                self._start(memory, t, history)
                return
            self._open = self._pending_inv
            self._pending_inv = None
            if history is not None:
                name, args = self._open
                history.events.append(new_event((2 * t, self.pid, "inv", name, args, None)))
            if self._multi is not None:  # its countdown starts with the invocation
                self._begin(self._multi)
        op = self.op
        if op[0] == READ:
            resp = memory.read(t, self.pid, op[1]) if memory.record_trace else memory.regs[op[1]]
            self.steps += 1
            left = self._left
            if left:  # a multi-read op's read: the program waits for its last
                got = self._got
                if got is None:  # a block's
                    if left > 1:
                        self._left = left - 1
                        return
                    self._multi = None
                else:  # a collect's; after a mismatch, `and` skips the compare
                    _, reads, against = self._multi
                    got = got + (resp,) if against is None else got and resp == against[-left]
                    left -= 1
                    if left:
                        self._left, self._got, self.op = left, got, reads[-left]
                        return
                    self._multi = self._got = None
                    resp = got
                self._left = 0
        else:
            memory.write(t, self.pid, op[1], op[2])
            resp = None
            self.steps += 1
        try:
            item = self.gen.send(resp)
            kind = item[0]
            if kind != READ and kind != WRITE:
                item = self._begin(item) if kind == COLLECT else self._resume(item, t, history)
        except StopIteration as stop:
            if self._pending_inv is not None:
                raise ValueError(
                    f"pid {self.pid}: program ended after invoking {self._pending_inv[0]!r}"
                    " without a step"
                ) from None
            self.done = True
            self.result = stop.value
            item = None
        self.op = item


# ---------------------------------------------------------------------------
# runners


def run(
    machines: list,
    memory,
    schedule: Iterable[int],
    history: Optional[History] = None,
) -> Optional[History]:
    """Drive machines through the schedule; one step per entry.

    The one runner for every `Machine`: an entry is one `step`, a register
    access or a snapshot operation.  `schedule` is any iterable of pids, taken
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

    Bursts run in list order, over any `Machine`'s store, and continue
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
    reproduces a seed's run.  Untraced, a block's reads (a multi-read op
    answered by its last value) but the last and one opening an invocation
    are counted down here, and whenever c <= 255 and every live machine has
    more than `_SKIP` block reads left after a step, `_skip_blocks` draws
    the slots up to the first block's last read in bulk, exactly.  `deep`
    counts the live machines that far inside a block, so that test costs
    O(1) a step; it is kept only untraced.
    Every collect read takes a `step`.
    """
    _by_pid(machines)  # raises on a duplicate pid
    live = [m for m in machines if not m.done]
    getrandbits = rng.getrandbits
    untraced = not memory.record_trace
    c = len(live)
    bits = c.bit_length()
    deep = sum([m._left > _SKIP and m._got is None for m in live])
    t = t0 = memory.t
    end = t0 + max_steps
    while c and t < end:
        i = getrandbits(bits)
        while i >= c:
            i = getrandbits(bits)
        m = live[i]
        left = m._left
        if left > 1 and untraced and m._got is None:  # a block read: no trace, event or resume
            m._left = left - 1
            m.steps += 1
            if left == _SKIP + 1:
                deep -= 1
        else:
            m.step(memory, t, history)
            if m.done:
                live[i] = live[-1]
                live.pop()
                c -= 1
                bits = c.bit_length()
            elif m._left > _SKIP and m._got is None:
                deep += 1
            if deep == c and untraced and 0 < c <= 255:
                t += _skip_blocks(live, getrandbits, end - t - 1)
                deep = sum([m._left > _SKIP and m._got is None for m in live])
        t += 1
    memory.t = t
    return t - t0


_SKIP = 32  # skip in bulk only while every live machine has more reads left


def _skip_blocks(live: list, getrandbits, budget: int) -> int:
    """Take up to `budget` slots of block reads at once; return how many.

    With c <= 255 live machines, all inside blocks, `_word_indices` makes
    the next w = min(countdowns) - 1 index draws in one call, exactly as
    getrandbits(c.bit_length()) would one by one.  Those draws end no
    block and resume no program, so each countdown is only credited the
    reads that landed on it.  Above 255 live machines a wider index would
    buy nothing: in 40 `RandTas(1024)` trials, 0.05 of the ~1,671 slots per
    trial drawn there were middle block reads; that stretch is doorway exits.
    """
    c = len(live)
    taken = 0
    while taken < budget and (lo := min([m._left for m in live])) > _SKIP:
        w = min(lo - 1, budget - taken)
        idx = _word_indices(getrandbits, c, w)
        for k, m in enumerate(live):
            r = idx.count(k)
            m._left -= r
            m.steps += r
        taken += w - idx.count(255)
    return taken
