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
Each writer keeps its own bits, one per component, in its program
(`ops_program`, `atomic.register_program`), so a BoundedSnapshot is a pure
layout: one instance serves any number of runs and processes, and the same
schedule gives the same execution on each.

Scan and update are written once, as cursors (`shm.Cursor`): `scan_steps`
and `update_steps` return explicit sub-programs that a program drives with
``step`` and that clone and key like the programs driving them, so
register-level systems can be explored state by state.  A scan keeps its
place in the attempt, the first collect c1 and whether the second collect
has matched c1 so far; that is all it needs of c2.

Why it works: a successful scan rereads S as its own id, so no update began
(wrote S) between the scanner's S-write and its final S-read.  Updates that
began earlier have at most one pending cell write each, and the parity bit
makes any such write change the cell's bit pattern, so two equal collects
mean no cell changed between them; c1 is then a valid atomic view,
linearizable between the collects.  An update linearizes at its cell write.

Costs: an update is exactly 2 steps; a scan attempt is 2m+2 steps, and a
process running alone completes a scan within at most one damaged attempt
plus one clean one, i.e. 4m+3 steps from any reachable configuration (a
fresh solo scan is a single 2m+2 attempt).

Values are non-negative integers below 2**value_bits.  A generic
snapshot's cells additionally carry the writer id and the parity bit, so
each is value_bits + pid_bits + 1 wide with pid_bits = ceil(log2(n+1)):
the cell is (x << (pid_bits + 1)) | ((p + 1) << 1) | b, and 0 is unwritten.

An owner-tagged snapshot is declared with a component codec, an object
with three methods: encode(comp, val) packs a component value into such an
integer, decode(comp, x) unpacks it, and owner(comp, x) names the writer
that every packed value names.  The codec lives here, on the snapshot:
update_steps and scan_steps move packed integers, and
`atomic.register_program`, which lowers logic machines onto registers,
packs and unpacks through `snap.codec`.  `sifter.sifter_snapshot` builds
the sifter's snapshot with its codec.  Owner-tagged cells drop the writer
field: the cell is (x << 1) | b, value_bits + 1 wide.  The argument above
still holds there: a pending write by q differs from a cell last written
by anyone else because the value names its writer, and from q's own
previous write to that cell by the parity bit.  update() checks that the
value names the caller, and the value 0 (an unwritten cell) must name no
one.  The handshake register is pid_bits wide either way.
"""

from __future__ import annotations

from .shm import READ, WRITE, Cursor, Memory, as_cursor


class BoundedSnapshot:
    """Layout and step programs for one snapshot instance.

    Occupies registers base..base+m (m cells then the handshake register) of
    a shared Memory.  Several logical objects can coexist in one Memory at
    different bases.  An instance holds no run state, and passing `codec`
    declares it owner-tagged (both in the module docstring).
    """

    __slots__ = ("base", "m", "n", "value_bits", "pid_bits", "codec", "_shift")

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

    # -- layout -------------------------------------------------------------

    def a_reg(self, comp: int) -> int:
        return self.base + comp

    @property
    def s_reg(self) -> int:
        return self.base + self.m

    @property
    def cell_width(self) -> int:
        return self.value_bits + self._shift

    def register_widths(self) -> list[int]:
        """Widths for registers base..base+m, cells first, then S."""
        return [self.cell_width] * self.m + [self.pid_bits]

    def fresh_memory(self, record_trace: bool = False) -> Memory:
        """Memory holding just this snapshot (only valid when base == 0)."""
        if self.base != 0:
            raise ValueError("fresh_memory requires base == 0")
        return Memory(self.register_widths(), record_trace=record_trace)

    # -- step programs --------------------------------------------------------

    def update_steps(self, pid: int, comp: int, x: int, parity: list[int]) -> "_Update":
        """The two register writes of update(comp, x); the cell carries the
        writer's own bit parity[comp] (all 0 at first), which flips here."""
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
        b = parity[comp]
        parity[comp] = b ^ 1
        writer = 0 if self.codec is not None else (pid + 1) << 1
        cell = (x << self._shift) | writer | b
        return _Update((WRITE, self.s_reg, pid), (WRITE, self.a_reg(comp), cell))

    def scan_steps(self, pid: int) -> "_Scan":
        """The register steps of scan(); the cursor returns the view."""
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range")
        return _Scan(self, pid)


class _Update(Cursor):
    """An update's S write then its cell write; `i` of them are returned."""

    def __init__(self, s_write: tuple, cell_write: tuple):
        self.ops = (s_write, cell_write)
        self.i = 0

    def step(self, val):
        i = self.i
        if i == 2:
            return None
        self.i = i + 1
        return self.ops[i]

    def key(self) -> tuple:
        return (self.i, self.ops[1])


class _Scan(Cursor):
    """A scan: attempts of the S write, collects c1 and c2, and the S read.

    `j` is the attempt's step returned last: -1 before the first, 0 the S
    write, 1..m the reads of c1, m+1..2m those of c2, 2m+1 the S read.
    """

    def __init__(self, snap: BoundedSnapshot, pid: int):
        self.pid = pid
        self.base = snap.base
        self.m = snap.m
        self.shift = snap._shift
        self.j = -1
        self.c1: list[int] = []
        self.eq = True  # c2 has matched c1 so far

    def step(self, val):
        j = self.j
        m = self.m
        if j > m:  # val answers a read of c2 or the S read
            if j <= 2 * m:
                if val != self.c1[j - m - 1]:
                    self.eq = False
                self.j = j + 1
                return (READ, self.base + j - m)  # the next cell of c2, then S
            if val == self.pid and self.eq:
                sh = self.shift
                self.result = tuple(c >> sh for c in self.c1)
                return None
            j = -1  # retry
            self.c1 = []
            self.eq = True
        elif j > 0:  # val answers a read of c1
            self.c1.append(val)
        if j < 0:
            self.j = 0
            return (WRITE, self.base + m, self.pid)
        self.j = j + 1
        return (READ, self.base + (j if j < m else 0))  # the next cell of c1, then of c2

    def clone(self) -> "_Scan":
        c = super().clone()
        c.c1 = list(self.c1)
        return c

    def key(self) -> tuple:
        return (self.j, tuple(self.c1), self.eq)


def ops_program(snap: BoundedSnapshot, pid: int, script: list[tuple]) -> "_Script":
    """Run a list of ('update', comp, x) / ('scan',) ops as one program.

    Emits invocation/response markers per operation, so histories from this
    program check directly against the snapshot's sequential semantics.
    The program, a `shm.Cursor`, returns the list of scan views.
    """
    return _Script(snap, pid, script)


class _Script(Cursor):
    """`ops_program`'s cursor: script op k-1 runs as `sub` between its markers."""

    def __init__(self, snap: BoundedSnapshot, pid: int, script: list[tuple]):
        self.snap = snap
        self.pid = pid
        self.script = tuple(script)
        self.k = 0
        self.sub = None
        self.parity = [0] * snap.m
        self.views: list[tuple] = []

    def send(self, val):
        sub = self.sub
        if sub is not None:
            item = sub.step(val)
            if item is not None:
                return item
            self.sub = None
            if self.script[self.k - 1][0] == "scan":
                self.views.append(sub.result)
            return ("res", sub.result)
        k = self.k
        if k == len(self.script):
            raise StopIteration(self.views)
        op = self.script[k]
        self.k = k + 1
        if op[0] == "update":
            _, comp, x = op
            self.sub = self.snap.update_steps(self.pid, comp, x, self.parity)
            return ("inv", "update", (comp, x))
        if op[0] == "scan":
            self.sub = as_cursor(self.snap.scan_steps(self.pid))
            return ("inv", "scan", ())
        raise ValueError(f"unknown script op {op!r}")

    def clone(self) -> "_Script":
        c = super().clone()
        if self.sub is not None:
            c.sub = self.sub.clone()
        c.parity = list(self.parity)
        c.views = list(self.views)
        return c

    def key(self) -> tuple:
        sub = self.sub
        return (self.k, None if sub is None else sub.key(), tuple(self.parity), tuple(self.views))
