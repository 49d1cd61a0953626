"""Randomized test-and-set with near-constant expected step complexity.

The deterministic chain is correct but every caller pays Theta(log n)
steps.  This pipeline lets almost everyone leave after O(1) steps and
reserves the expensive machinery for a shrinking remainder:

  * a front of fast randomized sifters S_1..S_{K-1} (two shared steps per
    compete), sized log n, then 2*loglog n, then 2, so the expected surviving
    field collapses like an iterated logarithm;
  * a splitter P_i after each sifter, peeling off at most one definitive
    winner-candidate per stage while guaranteeing the field keeps shrinking;
  * a chain of two-party leader elections L_i..L_1 that the splitter winner
    descends to beat the candidates from later stages;
  * a backstop S_K: the deterministic chain wrapped into a randomized
    wait-free machine, reached only with polynomially small probability but
    making the whole object correct unconditionally;
  * one global doorway bit turning the leader election into linearizable
    test-and-set.

A process starts poised at the doorway read with its tas() invocation
pending and no program: the machine takes the doorway itself, and one that
reads 1 returns 1 in that step (invocation at 2t, response at 2t+1), which
is most callers at large n.  Only a process that reads 0 gets its pipeline
program, and from then on it is an ordinary `shm.StepMachine`.

Randomized sifter (two steps over s single-bit registers R[1..s]): draw a
level i in {1..s} with Pr(i) = 2^(-i) (residual mass on s), write R[i] := 1,
then read R[i+1]: win iff it is 0, meaning no one is known to sit above you.
A draw of i = s wins outright (the second step re-reads R[s] so every call
costs exactly two steps).  With k callers and s = 2, the expected number of
winners is at most k/2 + 1 under any schedule fixed in advance, and not all
callers can lose (the highest drawn level wins).

Splitter (registers X, Y): X := p; if Y == 1 lose; Y := 1; win iff X still
equals p, else continue.  At most one caller wins, a lone caller always
wins, and with kappa callers at most kappa-1 continue.

Each LE2 is a fresh 2-process instance of the deterministic TAS (14
registers), wrapped for randomized wait-freedom; its two potential callers
are the stage-i splitter winner (role 0) and the stage-(i+1) chain survivor
(role 1), so roles never collide.  A stage TAS records no interface events.

Layout (`layout(n)`, built once per n): register 0 is the doorway; then the
banks of sifters 1..K-1, sized `gw_sizes(n)`, so K = len(gw_sizes(n)) + 1;
the splitter pairs X, Y = X + 1 of stages 1..K; the LE2 objects of stages
1..K; and last the backstop.  Each TAS object is laid out by
`tas_det.tas_snapshot`.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from functools import lru_cache

from .randomized import wrapped_tas_program
from .shm import Machine, Memory, READ, WRITE, StepMachine, new_event
from .sifter import LOSE, WIN
from .tas_det import TasLogic, solo_step_bound, tas_register_widths, tas_snapshot

CONTINUE = "continue"
BETA = 16  # the 2-sized sifters number ceil(BETA * log2 n)


class _StageTas(TasLogic):
    CALL = None  # an LE2 or backstop: the pipeline's own tas() is the interface op


def gw_sizes(n: int) -> tuple[int, ...]:
    """Sizes of the group-wise sifters 1..K-1; sifter K = len(gw_sizes(n)) + 1
    is the backstop."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lg = math.log2(n) if n > 1 else 0.0
    llg = math.log2(lg) if lg > 1 else 0.0
    s1 = max(2, math.ceil(lg))
    z = max(2, math.ceil(2 * llg))
    ell_z = max(1, math.ceil(llg * llg))
    m = max(1, math.ceil(BETA * lg))
    return (s1,) + (z,) * ell_z + (2,) * m


def gw_steps(base: int, s: int, rng):
    """One compete() on a randomized sifter of size s: exactly 2 steps."""
    i = 1
    while i < s and rng.getrandbits(1):
        i += 1
    yield (WRITE, base + i - 1, 1)
    if i == s:
        yield (READ, base + s - 1)  # value unused; keeps the 2-step shape
        return WIN
    r = yield (READ, base + i)
    return WIN if r == 0 else LOSE


def split_steps(x_reg: int, y_reg: int, pid: int):
    """One split(): at most one win, a lone caller wins, not all continue."""
    yield (WRITE, x_reg, pid)
    y = yield (READ, y_reg)
    if y == 1:
        return LOSE
    yield (WRITE, y_reg, 1)
    x = yield (READ, x_reg)
    return WIN if x == pid else CONTINUE


Layout = namedtuple("Layout", "sizes K gw_base px_reg le2_snaps backstop_snap widths b2 bn")


@lru_cache(maxsize=16)
def layout(n: int) -> Layout:
    """The register layout of `RandTas(n)`, built once per n and shared.

    Entry i-1 of `sizes`, `gw_base` (group-wise sifter i < K), `px_reg`
    (splitter X; Y is X + 1) and `le2_snaps` (LE2 i's chain snapshot)
    belongs to stage i, and `backstop_snap` to stage K; `widths` are the
    registers', and `b2`, `bn` the solo step bounds the stage TASs are
    wrapped with.  Immutable: tuples, and snapshots, which hold no run state.
    """
    sizes = gw_sizes(n)
    K = len(sizes) + 1
    pid_w = max(1, (n - 1).bit_length())
    widths: list[int] = [1]  # register 0: global doorway

    def bank(bank_widths: list[int]) -> int:
        widths.extend(bank_widths)
        return len(widths) - len(bank_widths)

    gw_base = tuple(bank([1] * size) for size in sizes)
    px_reg = tuple(bank([pid_w, 1]) for _ in range(K))
    le2_snaps = tuple(tas_snapshot(2, bank(tas_register_widths(2))) for _ in range(K))
    backstop_snap = tas_snapshot(n, bank(tas_register_widths(n)))
    return Layout(sizes, K, gw_base, px_reg, le2_snaps, backstop_snap, tuple(widths),
                  solo_step_bound(2), solo_step_bound(n))


class RandTas:
    """One shot of the pipeline: its layout, per-process programs, counters.

    `layout` is `layout(n)`, shared by every instance for n, and
    `backstop_index` is its K = len(gw_sizes(n)) + 1, the backstop's stage.

    Build a fresh instance per execution.  `entered[i]` counts compete()
    invocations of sifter i, `split_outcomes[i]` tallies splitter results,
    and `le2_claims` maps (stage, role) to the claiming pid, raising if any
    (stage, role) is claimed twice (that would mean the occupancy argument
    failed).  Counters are harness instrumentation: no program reads them.
    `process_rng` is the coin-stream hook: every sifter level and wrapper
    coin is drawn from it, so `perfbench/` and the backstop test replace it.
    """

    def __init__(self, n: int, seed: int = 0):
        self.n, self.seed = n, seed
        self.layout = layout(n)
        self.backstop_index = self.layout.K

        self.entered: Counter = Counter()
        self.split_outcomes: dict[int, Counter] = {}
        self.le2_claims: dict[tuple, int] = {}

    def memory(self) -> Memory:
        """Fresh registers; set `record_trace = True` on them to record accesses."""
        return Memory(self.layout.widths)

    def process_rng(self, pid: int) -> random.Random:
        """The coin stream of `pid`, created when it passes the doorway.

        Seeding one costs 8-10 us, mostly CPython's Mersenne Twister
        set-up (``random.Random(0)`` alone takes about 7.5 us), and it is
        the largest fixed cost of a process past the doorway.  It stays:
        any other seeding changes every draw.
        """
        return random.Random(f"rtas:{self.seed}:{pid}")

    def machines(self) -> list[StepMachine]:
        """The n processes, each poised at the doorway read (`_Caller`)."""
        return [_Caller(self, p) for p in range(self.n)]

    # -- sub-programs ---------------------------------------------------------

    def _claim_le2(self, stage: int, role: int, pid: int) -> None:
        key = (stage, role)
        if key in self.le2_claims:
            raise RuntimeError(
                f"LE2 stage {stage} role {role} claimed by pid "
                f"{self.le2_claims[key]} and pid {pid}"
            )
        self.le2_claims[key] = pid

    def _program(self, pid: int):
        """The pipeline of `pid` past the doorway, its tas() open."""
        lay = self.layout
        K = lay.K
        rng = self.process_rng(pid)  # seeded by pid, so creating it late changes no draw
        won_at = None
        i = 1
        while True:
            self.entered[i] += 1
            if i < K:
                out = yield from gw_steps(lay.gw_base[i - 1], lay.sizes[i - 1], rng)
            else:
                bit = yield from wrapped_tas_program(
                    _StageTas(pid, self.n), lay.backstop_snap, lay.bn, rng
                )
                out = WIN if bit == 0 else LOSE
            if out == LOSE:
                break
            x = lay.px_reg[i - 1]
            sp = yield from split_steps(x, x + 1, pid)
            tally = self.split_outcomes.get(i)
            if tally is None:
                tally = self.split_outcomes[i] = Counter()
            tally[sp] += 1
            if sp == LOSE:
                break
            if sp == WIN:
                won_at = i
                break
            if i == K:
                # the backstop admits at most one process, which then splits
                # alone and cannot continue
                raise RuntimeError("split returned continue at the last stage")
            i += 1
        if won_at is not None:
            for j in range(won_at, 0, -1):
                role = 0 if j == won_at else 1
                self._claim_le2(j, role, pid)
                bit = yield from wrapped_tas_program(
                    _StageTas(role, 2), lay.le2_snaps[j - 1], lay.b2, rng
                )
                if bit != 0:
                    break
            else:
                yield ("res", 0)
                return 0
        yield (WRITE, 0, 1)
        yield ("res", 1)
        return 1


_DOORWAY = (READ, 0)
_TAS = ("tas", ())


class _Caller(StepMachine):
    """A `RandTas` process: poised at the doorway read, its tas() pending,
    with no program until it reads 0 there (`shm.StepMachine._start`).

    Like any machine whose program is a generator, it can be neither
    cloned nor keyed, before its first step too.
    """

    def __init__(self, rt: RandTas, pid: int):
        Machine.__init__(self, pid)
        self.op = _DOORWAY
        self.gen = None
        self._pending_inv = _TAS
        self._open = None
        self._left = 0
        self._multi = self._got = None
        self.rt = rt

    def _start(self, memory: Memory, t: int, history) -> None:
        """Take the doorway read at t: return 1 on reading 1, else open the
        tas() and poise the pipeline's first op."""
        pid = self.pid
        d = memory.read(t, pid, 0) if memory.record_trace else memory.regs[0]
        self.steps = 1
        self._pending_inv = None
        if history is not None:
            history.events.append(new_event((2 * t, pid, "inv", "tas", (), None)))
        if d == 1:
            if history is not None:
                history.events.append(new_event((2 * t + 1, pid, "res", "tas", (), 1)))
            self.op = None
            self.done = True
            self.result = 1
            return
        self._open = _TAS
        self.gen = gen = self.rt._program(pid)
        self.op = gen.send(None)  # a sifter's write

    def clone(self):
        raise TypeError(f"pid {self.pid}: a generator program cannot be cloned")

    def key(self):
        raise TypeError(f"pid {self.pid}: a generator program cannot be keyed")
