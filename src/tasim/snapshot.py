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
each is value_bits + pid_bits + 1 wide with pid_bits = ceil(log2(n+1)).

An owner-tagged snapshot is declared with a component codec, an object
with three methods: encode(comp, val) packs a component value into such an
integer, decode(comp, x) unpacks it, and owner(comp, x) names the writer
that every packed value names.  The codec lives here, on the snapshot:
update_steps and scan_steps move packed integers, and
`atomic.register_program`, which lowers logic machines onto registers,
packs and unpacks through `snap.codec`.  `sifter.sifter_snapshot` builds
the sifter's snapshot with its codec.  Owner-tagged cells drop the writer
field and are value_bits + 1 wide.  The argument above still holds there:
a pending write by q differs from a cell last written by anyone else
because the value names its writer, and from q's own previous write to
that cell by the parity bit.  update() checks that the value names the
caller, and the value 0 (an unwritten cell) must name no one.  The
handshake register is pid_bits wide either way.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .shm import READ, WRITE, Memory


class BoundedSnapshot:
    """Layout and step programs for one snapshot instance.

    Occupies registers base..base+m (m cells then the handshake register) of
    a shared Memory.  Several logical objects can coexist in one Memory at
    different bases.  The per-(pid, component) parity counters live here,
    which is sound because each counter is private to its writing process.
    Passing `codec` declares the snapshot owner-tagged (see the module
    docstring).
    """

    __slots__ = ("base", "m", "n", "value_bits", "pid_bits", "codec", "_shift", "_parity")

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
        self._parity: dict[tuple[int, int], int] = {}

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

    # -- cell codec ----------------------------------------------------------

    def encode_cell(self, w: int, pid: Optional[int], b: int) -> int:
        if self.codec is not None:
            return (w << 1) | b
        p_code = 0 if pid is None else pid + 1
        return (w << (self.pid_bits + 1)) | (p_code << 1) | b

    def decode_cell(self, c: int, comp: Optional[int] = None) -> tuple[int, Optional[int], int]:
        """(value, writer, parity) of a cell; an owner-tagged one needs `comp`."""
        b = c & 1
        w = c >> self._shift
        if self.codec is not None:
            if comp is None:
                raise ValueError("an owner-tagged cell decodes only with its component")
            return w, self.codec.owner(comp, w), b
        p_code = (c >> 1) & ((1 << self.pid_bits) - 1)
        return w, (None if p_code == 0 else p_code - 1), b

    # -- step programs --------------------------------------------------------

    def update_steps(self, pid: int, comp: int, x: int) -> Iterator[tuple]:
        """Yield the two register writes of update(comp, x)."""
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
        b = self._parity.get((pid, comp), 0)
        self._parity[(pid, comp)] = b ^ 1
        yield (WRITE, self.s_reg, pid)
        yield (WRITE, self.a_reg(comp), self.encode_cell(x, pid, b))

    def scan_steps(self, pid: int):
        """Yield register steps of scan(); the generator returns the view."""
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range")
        while True:
            yield (WRITE, self.s_reg, pid)
            c1 = []
            for i in range(self.m):
                c1.append((yield (READ, self.a_reg(i))))
            c2 = []
            for i in range(self.m):
                c2.append((yield (READ, self.a_reg(i))))
            s = yield (READ, self.s_reg)
            if s == pid and c1 == c2:
                sh = self._shift
                return tuple(c >> sh for c in c1)


def ops_program(snap: BoundedSnapshot, pid: int, script: list[tuple]):
    """Run a list of ('update', comp, x) / ('scan',) ops as one program.

    Emits invocation/response markers per operation, so histories from this
    program check directly against the snapshot's sequential semantics.
    Returns the list of scan views.
    """
    views = []
    for op in script:
        if op[0] == "update":
            _, comp, x = op
            yield ("inv", "update", (comp, x))
            yield from snap.update_steps(pid, comp, x)
            yield ("res", None)
        elif op[0] == "scan":
            yield ("inv", "scan", ())
            view = yield from snap.scan_steps(pid)
            views.append(view)
            yield ("res", view)
        else:
            raise ValueError(f"unknown script op {op!r}")
    return views
