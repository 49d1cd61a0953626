"""Deterministic obstruction-free test-and-set from a chain of sifters.

A single sifter guarantees at most floor((2k+1)/3) winners among k
participants.  Chaining ell(n) = floor(log_{3/2} n) + 1 of them, where the
winners of each level advance to the next and everyone else loses, shrinks
any field of n to exactly one final winner: that is weak leader election,
`SifterLogic(p, ell(n))`.  All levels live in one shared (6*ell)-component
snapshot (components 6*(j-1)..6*j-1 belong to level j), which costs
6*ell + 1 registers instead of 7 per level.

Weak leader election becomes a linearizable test-and-set with one extra
binary register D, the doorway bit:

    tas():  if read(D) == 1: return 1
            run the chain; on winning return 0
            on losing: write D := 1; return 1

The doorway serializes late arrivals behind the winner; the history checker
validates the construction rather than trusting it.

Total register count: 6*ell(n) + 2 (chain snapshot plus doorway), laid
out by `tas_snapshot`.  `snapshot.register_program(logic, snap)` lowers a
TAS process onto them, so the doorway, plain register 0, lands just below
the chain snapshot for every builder, wrapped or not, alone or in the
pipeline; at base 0 there is no room for it, and the lowering raises
ValueError at the doorway read.
"""

from __future__ import annotations

from functools import lru_cache

from .atomic import AtomicStore
from .shm import Memory, StepMachine
from .sifter import S_MAX, WIN, SifterLogic, sifter_snapshot, sifter_store
from .snapshot import BoundedSnapshot, register_program


def f(k: int) -> int:
    """Winner bound of one sifter with k participants."""
    return (2 * k + 1) // 3


def floor_log32(n: int) -> int:
    """Largest i >= 0 with (3/2)**i <= n, in exact integer arithmetic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = 0
    p3, p2 = 3, 2
    while p3 <= n * p2:
        i += 1
        p3 *= 3
        p2 *= 2
    return i


@lru_cache(maxsize=64)
def ell(n: int) -> int:
    """Number of chained sifter levels used for n processes.

    Memoized: every machine and store of an n-process object asks for it.
    """
    return floor_log32(n) + 1


def solo_op_bound(n: int) -> int:
    """Snapshot ops and doorway accesses a solo TAS run needs from any
    reachable configuration: at most S_MAX per level, plus the doorway's two."""
    return S_MAX * ell(n) + 2


def solo_step_bound(n: int) -> int:
    """Register steps a solo run needs from any reachable configuration:
    `solo_op_bound`'s snapshot ops at `solo_op_steps` each, a doorway access 1."""
    return S_MAX * ell(n) * tas_snapshot(n).solo_op_steps + 2


# ---------------------------------------------------------------------------
# logic machines


class TasLogic(SifterLogic):
    """Doorway bit around the ell(n)-level chain; results are the TAS bit."""

    CALL = ("tas", ())

    def __init__(self, pid: int, n: int):
        # `SifterLogic.__init__`'s state poised at the doorway read instead,
        # each field set once, for the same reason
        self.pid = pid
        self.op = ("r", 0)
        self.done = False
        self.result = None
        self.steps = 0
        self.call = self.CALL
        self.open = None
        self.top = 6 * (ell(n) - 1)
        self.base = 0
        self.sig = None
        self.stage = "dr"

    def _other_stage(self, stage: str, res) -> None:
        if stage == "dr":
            if res == 1:
                self.done = True
                self.result = 1
            else:
                self._start_level(0)
        elif stage == "dw":
            self.done = True
            self.result = 1
        else:
            super()._other_stage(stage, res)

    def _conclude(self, outcome: str) -> None:
        if outcome == WIN:
            self.done = True
            self.result = 0
        else:
            self.stage = "dw"
            self.op = ("w", 0, 1)


# ---------------------------------------------------------------------------
# builders: coarse-grained (atomic snapshot ops)


def wle_store(n: int) -> AtomicStore:
    return sifter_store(ell(n))


def wle_machines(n: int) -> list[SifterLogic]:
    return [SifterLogic(p, ell(n)) for p in range(n)]


def tas_store(n: int) -> AtomicStore:
    return sifter_store(ell(n), n_regs=1)  # plain register 0: the doorway bit


def tas_machines(n: int) -> list[TasLogic]:
    return [TasLogic(p, n) for p in range(n)]


# ---------------------------------------------------------------------------
# builders: register level


def tas_snapshot(n: int, base: int = 0) -> BoundedSnapshot:
    """Chain snapshot of an n-process TAS whose doorway bit is register `base`.

    The one statement of the TAS layout: register base is the doorway bit;
    base+1..base+6*ell(n)+1 are the chain snapshot (cells, then handshake).
    """
    return sifter_snapshot(n, base + 1, ell(n))


def tas_register_widths(n: int) -> list[int]:
    return [1] + tas_snapshot(n).register_widths()


def tas_system(n: int):
    """Register-level TAS: (machines, memory, logics); set memory.record_trace to trace."""
    snap = tas_snapshot(n)
    logics = tas_machines(n)
    machines = [StepMachine(lg.pid, register_program(lg, snap)) for lg in logics]
    return machines, Memory(tas_register_widths(n)), logics
