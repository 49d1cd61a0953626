"""Bounded-space atomic snapshot over m+1 multi-writer registers.

An m-component snapshot object supporting update(i, x) and scan() is built
from m value cells A[0..m-1] plus one handshake register S:

    update(i, x):  S := p                        (1 register write)
                   A[i] := (x, p, b)             (1 register write;
                                                  (x, b) if x names p)

    scan():        repeat
                       S := p
                       c1 := read A[0..m-1]
                       c2 := read A[0..m-1]
                   until c1 == c2 and read(S) == p
                   return the values of c1

where p is the caller's process id and b alternates per (writer, component).
Each writer keeps its own bits in its program (`ops_program`,
`register_program`) as one int, bit i for component i: `update_steps`
takes them and returns the writer's new bits with the sub-program, so the
flip rule lives here.  A BoundedSnapshot is thus a pure layout: one
instance serves any number of runs and processes, and the same schedule
gives the same execution on each.

Scan and update are written once, as cursors (`shm.Cursor`): `scan_steps`
and `update_steps` return explicit sub-programs that a program drives with
``step`` and that clone and key like the programs driving them, so
register-level systems can be explored state by state.  A scan attempt
is three ops: the S write, the collect c1 of A[0..m-1], and the collect c2
of A[0..m-1] then S, matched against c1 and the scanner's pid, so that its
answer is the attempt's test.  Each collect is one multi-read op (see
`shm`), answered by the values read (c1) or by whether they all matched
(c2): the step machine takes its reads one per slot and holds that answer
so far until the scan resumes after the last read.  The scan keeps its
stage and c1 once collected; that is all it needs of c2.

This module is where store ops meet registers.  `op_steps` turns any
store op of `atomic` into its register sub-program: an update or a scan as
above, and a read or write of plain register r as one op on register
base - 1 - r (`plain_reg`), below the snapshot.  A snapshot at base b thus
has b plain registers, and `op_steps` refuses the others.  Two programs
take every register step from it: `register_program` lowers a logic
machine (`atomic.LogicMachine`), whose `advance` then sees what the atomic
store would have answered, and `ops_program` runs a script of updates and
scans.  `atomic` runs the same logic one store op per step.

Why it works: a successful scan rereads S as its own id, so no update began
(wrote S) between the scanner's S-write and its final S-read.  Updates that
began earlier have at most one pending cell write each, and the parity bit
makes any such write change the cell's bit pattern, so two equal collects
mean no cell changed between them; c1 is then a valid atomic view,
linearizable between the collects.  An update linearizes at its cell write.

Costs: an update is exactly 2 steps; a scan attempt is 2m+2 steps, and a
process running alone completes a scan within at most one damaged attempt
plus one clean one, i.e. 4m+3 steps from any reachable configuration (a
fresh solo scan is a single 2m+2 attempt).  `solo_op_steps` states that
bound for any one op of `op_steps`.

Values are non-negative integers below 2**value_bits.  A generic
snapshot's cells additionally carry the writer id and the parity bit, so
each is value_bits + pid_bits + 1 wide with pid_bits = ceil(log2(n+1)):
the cell is (x << (pid_bits + 1)) | ((p + 1) << 1) | b, and 0 is unwritten.

An owner-tagged snapshot is declared with a component codec, an object
with three methods: encode(comp, val) packs a component value into such an
integer, decode(comp, x) unpacks it, and owner(comp, x) names the writer
that every packed value names.  update_steps and scan_steps move packed
integers, and `register_program` packs a logic's values before an update
and unpacks a scan's.  `sifter.sifter_snapshot` builds the sifter's
snapshot with its codec.  Owner-tagged cells drop the writer field: the
cell is (x << 1) | b, value_bits + 1 wide.  The argument above still holds
there: a pending write by q differs from a cell last written by anyone
else because the value names its writer, and from q's own previous write
to that cell by the parity bit.  update() checks that the value names
the caller, and the value 0 (an unwritten cell) must name no one.  The
handshake register is pid_bits wide either way.
"""

from __future__ import annotations

from .atomic import LogicMachine
from .shm import COLLECT, READ, WRITE, Cursor, Memory, as_cursor


class BoundedSnapshot:
    """Layout and step programs for one snapshot instance.

    Occupies registers base..base+m (m cells then the handshake register) of
    a shared Memory.  Several logical objects can coexist in one Memory at
    different bases.  An instance holds no run state, and passing `codec`
    declares it owner-tagged (both in the module docstring).
    """

    __slots__ = ("base", "m", "n", "value_bits", "pid_bits", "codec", "_shift", "_c1", "_c2_reads",
                 "_s_writes")

    def __init__(
        self,
        base: int,
        m: int,
        n: int,
        value_bits: int,
        codec=None,
    ):
        if m <= 0 or n <= 0 or value_bits <= 0:
            raise ValueError("m, n, value_bits must be positive")
        self.base = base
        self.m = m
        self.n = n
        self.value_bits = value_bits
        self.pid_bits = n.bit_length()
        self.codec = codec
        # bits below the value in a cell: parity, plus the writer field
        self._shift = 1 if codec is not None else self.pid_bits + 1
        # the op tuples of every scan and update: the collect c1 of A[0..m-1],
        # the reads of c2's collect (A[0..m-1], then S), and each process's S write
        reads = tuple((READ, base + i) for i in range(m + 1))
        self._c1 = (COLLECT, reads[:m], None)
        self._c2_reads = reads
        self._s_writes = tuple((WRITE, base + m, p) for p in range(n))

    # -- layout -------------------------------------------------------------

    def a_reg(self, comp: int) -> int:
        return self.base + comp

    @property
    def s_reg(self) -> int:
        return self.base + self.m

    @property
    def cell_width(self) -> int:
        return self.value_bits + self._shift

    @property
    def solo_op_steps(self) -> int:
        """Most register steps any one `op_steps` op takes alone from a
        reachable configuration: an update 2, a plain op 1, a scan 4m+3."""
        return 4 * self.m + 3

    def register_widths(self) -> list[int]:
        """Widths for registers base..base+m, cells first, then S."""
        return [self.cell_width] * self.m + [self.pid_bits]

    def fresh_memory(self, record_trace: bool = False) -> Memory:
        """Memory holding just this snapshot (only valid when base == 0)."""
        if self.base != 0:
            raise ValueError("fresh_memory requires base == 0")
        return Memory(self.register_widths(), record_trace=record_trace)

    # -- step programs --------------------------------------------------------

    def update_steps(self, pid: int, comp: int, x: int, parity: int) -> tuple:
        """The two register writes of update(comp, x), and the writer's new
        bits: the cell carries bit comp of `parity` (all 0 at first), which
        flips in the bits returned."""
        if not 0 <= comp < self.m:
            raise ValueError(f"component {comp} out of range")
        if not isinstance(x, int) or x < 0 or x >> self.value_bits:
            raise ValueError(f"value {x!r} does not fit {self.value_bits} bits")
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range")
        if self.codec is not None and self.codec.owner(comp, x) != pid:
            raise ValueError(
                f"value {x} of component {comp} does not name its writer {pid}"
            )
        b = (parity >> comp) & 1
        writer = 0 if self.codec is not None else (pid + 1) << 1
        cell = (x << self._shift) | writer | b
        sub = _Ops((self._s_writes[pid], (WRITE, self.a_reg(comp), cell)))
        return sub, parity ^ (1 << comp)

    def scan_steps(self, pid: int) -> "_Scan":
        """The register steps of scan(); the cursor returns the view."""
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range")
        return _Scan(self, pid)

    def plain_reg(self, r: int) -> int:
        """The register of plain register r (see `op_steps`), below the snapshot."""
        return self.base - 1 - r

    def op_steps(self, pid: int, op: tuple, parity: int) -> tuple:
        """Store op `op` (see `atomic`) over packed values as a register
        sub-program, and the writer's new bits: an update or a scan, or one
        op on `plain_reg(r)` for plain register r, which exists if r < base."""
        kind = op[0]
        if kind == "u":
            return self.update_steps(pid, op[1], op[2], parity)
        if kind == "s":  # as_cursor: perfbench/ swaps scan_steps for a generator
            return as_cursor(self.scan_steps(pid)), parity
        if kind != READ and kind != WRITE:
            raise ValueError(f"unknown store op {op!r}")
        if not 0 <= op[1] < self.base:
            raise ValueError(f"store op {op!r}: no plain register {op[1]} below base {self.base}")
        return _Ops(((kind, self.plain_reg(op[1])) + op[2:],)), parity


class _Ops(Cursor):
    """A fixed sequence of register ops, an update's or a plain register op;
    `i` of them are returned, and `result` is the response to the last."""

    FIELDS = ("i", "ops")

    def __init__(self, ops: tuple):
        self.ops = ops
        self.i = 0

    def step(self, val):
        i = self.i
        if i == len(self.ops):
            self.result = val
            return None
        self.i = i + 1
        return self.ops[i]


class _Scan(Cursor):
    """A scan: attempts of the S write, the collect c1, and the collect c2
    that ends with the S read.

    `j` is the attempt's op returned last: -1 before the first, 0 the S
    write, 1 c1, 2 c2, which then matches c1 and the scanner's pid, and
    answers whether every value did; `c1` is held from stage 2 on.  The
    op tuples returned are the snapshot's own, made once per snapshot,
    but for c2's collect, which carries c1.
    """

    FIELDS = ("j", "c1")

    def __init__(self, snap: BoundedSnapshot, pid: int):
        self.pid = pid
        self.c1_op = snap._c1
        self.c2_reads = snap._c2_reads
        self.s_write = snap._s_writes[pid]
        self.shift = snap._shift
        self.j = -1
        self.c1: tuple = ()

    def step(self, val):
        j = self.j
        if j == 0:
            self.j = 1
            return self.c1_op
        if j == 1:  # val is c1
            self.j = 2
            self.c1 = val
            return (COLLECT, self.c2_reads, val + (self.pid,))
        if j == 2 and val:  # c2 equals c1, and S still holds the pid
            sh = self.shift
            self.result = tuple(c >> sh for c in self.c1)
            return None
        self.j = 0  # the first attempt, or a retry
        self.c1 = ()
        return self.s_write


def ops_program(snap: BoundedSnapshot, pid: int, script: list[tuple]) -> "_Script":
    """Run a list of ('update', comp, x) / ('scan',) ops as one program.

    Emits invocation/response markers per operation, so histories from this
    program check directly against the snapshot's sequential semantics.
    The program, a `shm.Cursor`, returns the tuple of scan views.
    """
    return _Script(snap, pid, script)


class _Script(Cursor):
    """`ops_program`'s cursor: script op k-1 runs as `sub`, its store op's
    `op_steps`, between its markers."""

    FIELDS = ("k", "parity", "views")
    NESTED = ("sub",)

    def __init__(self, snap: BoundedSnapshot, pid: int, script: list[tuple]):
        self.snap = snap
        self.pid = pid
        self.script = tuple(script)
        self.k = 0
        self.sub = None
        self.parity = 0  # the writer's bits, bit i for component i
        self.views: tuple = ()

    def send(self, val):
        sub = self.sub
        if sub is not None:
            item = sub.step(val)
            if item is not None:
                return item
            self.sub = None
            if self.script[self.k - 1][0] == "scan":
                self.views += (sub.result,)
            return ("res", sub.result)
        k = self.k
        if k == len(self.script):
            raise StopIteration(self.views)
        op = self.script[k]
        if op[0] == "update":
            _, comp, x = op
            store_op, inv = ("u", comp, x), ("inv", "update", (comp, x))
        elif op[0] == "scan":
            store_op, inv = ("s", 0, self.snap.m), ("inv", "scan", ())
        else:
            raise ValueError(f"unknown script op {op!r}")
        self.k = k + 1
        self.sub, self.parity = self.snap.op_steps(self.pid, store_op, self.parity)
        return inv


def register_program(logic: LogicMachine, snap: BoundedSnapshot) -> "_Lowered":
    """Expand a logic machine into a register-level program, a `shm.Cursor`.

    `snap` is an owner-tagged BoundedSnapshot, and each store op of the
    logic, plain register ops too, runs as the sub-program `snap.op_steps`
    builds.  The snapshot's codec packs the logic's component values before
    an update and unpacks scan results, so `logic.advance` sees exactly
    what the atomic store would have produced and both granularities share
    one decision procedure.  Like `LogicMachine.step`, it emits
    invocation/response markers exactly when the logic has an interface op
    (`op_name`).  The logic's pid is used for snapshot handshakes, so the
    logics of one run need distinct pids.  The program advances `logic`
    itself; a clone advances a clone.
    """
    return _Lowered(logic, snap)


# `_Lowered.stage`: nothing returned yet; the next send starts the logic's next op; finished
_START, _NEXT, _END = range(3)


class _Lowered(Cursor):
    """`register_program`'s cursor: each store op of the logic runs as `sub`."""

    FIELDS = ("stage", "parity")
    NESTED = ("logic", "sub")

    def __init__(self, logic: LogicMachine, snap: BoundedSnapshot):
        self.logic = logic
        self.snap = snap
        self.stage = _START
        self.sub = None
        self.parity = 0  # the writer's bits, bit i for component i

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
