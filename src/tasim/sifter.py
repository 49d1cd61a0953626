"""Obstruction-free sifter over a 6-component snapshot.

With k participants, at most floor((2k+1)/3) return "win" and at most k-1
return "lose" (never all lose), which is what makes chains of these objects
converge to a single leader.  Components 0..2 (the A array) hold process
ids; components 3..5 (the B array) hold (id, signature) pairs, where a
signature is the triple a process read from A.

compete():
    pos := 0
    loop:
        A[pos] := p;  a := scan(A)
        if a == (p,p,p): return win                   (clean sweep)
        if some q has more copies in a than p: return lose
        if p appears exactly once in a:
            if knockout(a): return lose
        pos := the index with a[pos] != p and a[(pos-1) mod 3] == p

knockout(sig):
    index := 0
    loop:
        B[index] := (p, sig);  (a", b") := scan(A, B)
        if a" != sig: return True                     (A moved on)
        if some q != p has (q, sig) twice in b": return True
        if b" == ((p,sig),(p,sig),(p,sig)): return False
        index := some index with b"[index] != (p, sig)

The knockout subprotocol is what caps the number of winners: of the
processes that saw the same signature with their id appearing once, at most
one can sweep B before A changes.  A process running alone from any
reachable point finishes within a constant number of snapshot operations
(`S_MAX`, asserted in the tests); a fresh solo run takes exactly 12.

The A-array-only variant without knockout (``NaiveSifterLogic``) guarantees
at-least-one-winner but admits schedules where nearly everyone wins; it is
kept as a fixture demonstrating why the B phase is necessary.
"""

from __future__ import annotations

from typing import Optional

from .atomic import AtomicStore, LogicMachine
from .shm import StepMachine
from .snapshot import BoundedSnapshot, register_program

WIN = "win"
LOSE = "lose"

# Solo snapshot-op bound for one sifter from any reachable configuration.
# A fresh solo compete takes exactly 12, and so does the longest solo run
# from any state of the k=2 closure (pinned in test_sifter) or any sampled
# one of criterion 2 (k=2..5); 20 leaves headroom for the k no closure covers.
# The TAS bounds derive from it: `tas_det.solo_op_bound`, `solo_step_bound`.
S_MAX = 20

EMPTY_SIG = (None, None, None)
B_EMPTY = (None, EMPTY_SIG)


def _pos_rule(a: tuple, p: int) -> int:
    """The unique index with a[pos] != p and a[(pos-1) mod 3] == p."""
    a0, a1, a2 = a
    c0 = a0 != p and a2 == p
    c1 = a1 != p and a0 == p
    c2 = a2 != p and a1 == p
    if c0 + c1 + c2 != 1:
        cands = [i for i, c in enumerate((c0, c1, c2)) if c]
        raise RuntimeError(f"pos rule ambiguous: a={a!r} p={p}: {cands}")
    return 0 if c0 else 1 if c1 else 2


def _outnumbered(a: tuple, p: int) -> bool:
    """Some id q other than p has more copies in a than p."""
    mine = a.count(p)
    for q in a:
        if q is not None and q != p and a.count(q) > mine:
            return True
    return False


def _rival_twice(b: tuple, p: int, sig: tuple) -> bool:
    """Some q != p has (q, sig) in at least two of the three B entries."""
    b0, b1, b2 = b
    if b0 == b1 or b0 == b2:
        e = b0
    elif b1 == b2:
        e = b1
    else:
        return False
    q = e[0]
    return q is not None and q != p and e[1] == sig


def _first_other(b: tuple, mine: tuple) -> int:
    """The first index of b whose entry is not `mine` (one must exist)."""
    return 0 if b[0] != mine else 1 if b[1] != mine else 2


class SifterLogic(LogicMachine):
    """One participant of a chain of `levels` sifters in one snapshot.

    `base` is the current level's first component and `top` the last
    level's (level j owns components 6j..6j+5).  A win below `top` restarts
    on the next level; a win at `top`, or any loss, goes to `_conclude`.
    Snapshot ops are poised one at a time; stage tracks which response is
    expected next: 'wa' write to A pending, 'sa' compete scan pending, 'kw'
    write to B pending, 'ks' knockout scan pending.  `advance` hands any
    other stage to `_other_stage`, where a subclass adds its own.
    """

    FIELDS = LogicMachine.FIELDS + ("top", "base", "stage", "sig")
    op_name = "compete"
    knockout = True  # a class attribute, so not one of the FIELDS

    def __init__(self, pid: int, levels: int = 1):
        # The state `shm.Machine.__init__` and then `_start_level(0)` give,
        # each field set once and no call made: a trial builds a machine per
        # process, and those calls cost more than the fields.
        self.pid = pid
        self.op = ("u", 0, pid)
        self.done = False
        self.result = None
        self.steps = 0
        self.top = 6 * (levels - 1)
        self.base = 0
        self.sig: Optional[tuple] = None
        self.stage = "wa"

    def _start_level(self, base: int) -> None:
        self.base = base
        self.sig: Optional[tuple] = None
        self.stage = "wa"
        self.op = ("u", base + 0, self.pid)

    def _finish(self, outcome: str) -> None:
        if outcome == WIN and self.base < self.top:
            self._start_level(self.base + 6)
        else:
            self._conclude(outcome)

    def _conclude(self, outcome: str) -> None:
        self.done = True
        self.result = outcome

    def advance(self, res) -> None:
        if self.done:
            raise RuntimeError("advance on finished machine")
        p = self.pid
        stage = self.stage
        if stage == "wa":
            self.stage = "sa"
            self.op = ("s", self.base, self.base + 3)
        elif stage == "sa":
            a = res
            mine = a.count(p)
            if mine == 3:
                self._finish(WIN)
            elif _outnumbered(a, p):
                self._finish(LOSE)
            elif mine == 1 and self.knockout:
                self.sig = a
                self.stage = "kw"
                self.op = ("u", self.base + 3, (p, a))
            else:
                self.stage = "wa"
                self.op = ("u", self.base + _pos_rule(a, p), p)
        elif stage == "kw":
            self.stage = "ks"
            self.op = ("s", self.base, self.base + 6)
        elif stage == "ks":
            sig = self.sig
            mine = (p, sig)
            b = res[3:6]
            if res[0:3] != sig:
                self._finish(LOSE)
            elif _rival_twice(b, p, sig):
                self._finish(LOSE)
            elif b.count(mine) == 3:
                # knockout survived; back to compete with pos from sig
                self.sig = None
                self.stage = "wa"
                self.op = ("u", self.base + _pos_rule(sig, p), p)
            else:
                self.stage = "kw"
                self.op = ("u", self.base + 3 + _first_other(b, mine), mine)
        else:
            self._other_stage(stage, res)

    def _other_stage(self, stage: str, res) -> None:
        # subclasses that add stages around the sifter's own handle them here
        raise RuntimeError(f"bad stage {stage!r}")


class NaiveSifterLogic(SifterLogic):
    """A-array-only variant: still never all-lose, but winners are unbounded.

    Test fixture only; see the module docstring.
    """

    knockout = False


# ---------------------------------------------------------------------------
# builders: coarse-grained (atomic snapshot ops)


def sifter_store(levels: int = 1, n_regs: int = 0) -> AtomicStore:
    return AtomicStore(([None] * 3 + [B_EMPTY] * 3) * levels, n_regs=n_regs)


def sifter_machines(pids) -> list[SifterLogic]:
    return [SifterLogic(p) for p in pids]


# ---------------------------------------------------------------------------
# builders: register level

# Component values are packed into integers.  Every value a sifter process
# writes names that process, which is what lets the snapshot drop its writer
# field (an owner-tagged snapshot): an A component holds the writer's id, and
# a B component holds (p, sig), where p appears in sig exactly once because
# knockout starts only when a.count(p) == 1.


class _Codec:
    """Sifter component values <-> owner-tagged snapshot integers.

    An A value (an id or None) packs as id + 1, with 0 for None.  A B value
    (p, sig) packs in mixed radix as (p, o1, o2, pos): pos in 1..3 is one
    plus the index of p in sig, and o1, o2 are the two other entries of sig
    in order, each another id or None, coded as the id or, for None, as p
    (n choices).  The spare position code 0 stands for empty: the integer 0,
    an unwritten register, decodes to B_EMPTY.  The packing is one-to-one
    on reachable values, and `encode` raises ValueError on a B value that
    cannot be reached (no writer, an id outside 0..n-1, or a sig that does
    not hold the writer exactly once) rather than alias it.  `owner` reads
    the writer a packed value names.
    """

    __slots__ = ("n", "nn")

    def __init__(self, n: int):
        self.n = n
        self.nn = n * n

    def encode(self, comp: int, val) -> int:
        if comp % 6 < 3:
            return 0 if val is None else val + 1
        n = self.n
        p, sig = val
        if (
            p is None
            or len(sig) != 3
            or sig.count(p) != 1
            or not all(e is None or 0 <= e < n for e in sig)
        ):
            raise ValueError(f"unreachable B value {val!r} for n={n}")
        pos = sig.index(p)
        o1, o2 = sig[:pos] + sig[pos + 1 :]
        w = (p * n + (p if o1 is None else o1)) * n + (p if o2 is None else o2)
        return 4 * w + pos + 1

    def decode(self, comp: int, w: int):
        if comp % 6 < 3:
            return None if w == 0 else w - 1
        if w == 0:
            return B_EMPTY
        n = self.n
        w, pos = divmod(w, 4)
        w, c2 = divmod(w, n)
        p, c1 = divmod(w, n)
        o1 = None if c1 == p else c1
        o2 = None if c2 == p else c2
        if pos == 1:
            return (p, (p, o1, o2))
        if pos == 2:
            return (p, (o1, p, o2))
        return (p, (o1, o2, p))

    def owner(self, comp: int, w: int) -> Optional[int]:
        if w == 0:
            return None
        return w - 1 if comp % 6 < 3 else (w >> 2) // self.nn


def value_bits(n: int) -> int:
    """Width of one packed component value: 3*ceil(log2 n) + 2.

    A B value takes 4*n**3 codes (p, o1, o2 with n choices each, and four
    position codes), which fits with a ceil(log2 n)-bit field per id and
    two bits for the position; an A value (at most n) fits in the same width.
    """
    return 3 * (n - 1).bit_length() + 2


def sifter_snapshot(n: int, base: int = 0, levels: int = 1) -> BoundedSnapshot:
    """Owner-tagged snapshot of `levels` chained sifters, carrying their codec."""
    return BoundedSnapshot(base, 6 * levels, n, value_bits(n), codec=_Codec(n))


def sifter_system(n: int):
    """Register-level sifter: (machines, memory, logics); set memory.record_trace to trace."""
    snap = sifter_snapshot(n)
    logics = sifter_machines(range(n))
    machines = [StepMachine(lg.pid, register_program(lg, snap)) for lg in logics]
    return machines, snap.fresh_memory(), logics
