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
(role 1), so roles never collide.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .atomic import register_program
from .randomized import wrap
from .shm import Memory, READ, WRITE, StepMachine
from .sifter import LOSE, WIN
from .tas_det import TasLogic, solo_step_bound, tas_register_widths, tas_snapshot

CONTINUE = "continue"
BETA = 16  # the 2-sized sifters number ceil(BETA * log2 n)


@dataclass(frozen=True)
class PipelineParams:
    """Stage sizes; stages = K sifters, K splitters, K LE2 chains."""

    s1: int  # size of the first sifter
    z: int  # size of sifters 2..ell_z+1
    ell_z: int  # how many z-sized sifters
    m: int  # how many 2-sized sifters

    @property
    def K(self) -> int:
        """Index of the backstop (sifters are 1..K)."""
        return self.ell_z + self.m + 2

    def gw_size(self, i: int) -> int:
        if i == 1:
            return self.s1
        if i <= 1 + self.ell_z:
            return self.z
        if i <= self.K - 1:
            return 2
        raise ValueError(f"sifter {i} is the backstop")


def pipeline_params(n: int) -> PipelineParams:
    if n < 1:
        raise ValueError("n must be >= 1")
    lg = math.log2(n) if n > 1 else 0.0
    llg = math.log2(lg) if lg > 1 else 0.0
    return PipelineParams(
        s1=max(2, math.ceil(lg)),
        z=max(2, math.ceil(2 * llg)),
        ell_z=max(1, math.ceil(llg * llg)),
        m=max(1, math.ceil(BETA * lg)),
    )


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


class RandTas:
    """One shot of the pipeline: layout, per-process programs, counters.

    Build a fresh instance per execution.  `entered[i]` counts compete()
    invocations of sifter i, `split_outcomes[i]` tallies splitter results,
    and `le2_claims` maps (stage, role) to the claiming pid, raising if any
    (stage, role) is claimed twice (that would mean the occupancy argument
    failed).  Counters are harness instrumentation: no program reads them.
    """

    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self.params = pipeline_params(n)
        self.seed = seed
        p = self.params
        pid_w = max(1, (n - 1).bit_length())

        widths: list[int] = [1]  # register 0: global doorway
        self.gw_base: dict[int, int] = {}
        for i in range(1, p.K):
            self.gw_base[i] = len(widths)
            widths += [1] * p.gw_size(i)
        self.px_reg: dict[int, int] = {}
        self.py_reg: dict[int, int] = {}
        for i in range(1, p.K + 1):
            self.px_reg[i] = len(widths)
            self.py_reg[i] = len(widths) + 1
            widths += [pid_w, 1]
        self.le2_base: dict[int, int] = {}
        for i in range(1, p.K + 1):
            self.le2_base[i] = len(widths)
            widths += tas_register_widths(2)
        self.backstop_base = len(widths)
        widths += tas_register_widths(n)
        self.widths = widths

        self.le2_snaps = {i: tas_snapshot(2, self.le2_base[i]) for i in range(1, p.K + 1)}
        self.backstop_snap = tas_snapshot(n, self.backstop_base)
        self.b2 = solo_step_bound(2)
        self.bn = solo_step_bound(n)

        self.entered: Counter = Counter()
        self.split_outcomes: dict[int, Counter] = {}
        self.le2_claims: dict[tuple, int] = {}

    @property
    def register_count(self) -> int:
        return len(self.widths)

    @property
    def backstop_index(self) -> int:
        return self.params.K

    def memory(self) -> Memory:
        """Fresh registers; set `record_trace = True` on them to record accesses."""
        return Memory(self.widths)

    def process_rng(self, pid: int) -> random.Random:
        """The coin stream of `pid`, created when it passes the doorway."""
        return random.Random(f"rtas:{self.seed}:{pid}")

    def machine(self, pid: int) -> StepMachine:
        return StepMachine(pid, self._program(pid))

    def machines(self) -> list[StepMachine]:
        return [self.machine(p) for p in range(self.n)]

    # -- sub-programs ---------------------------------------------------------

    def _wrapped_tas(self, pid: int, base: int, snap, n: int, b: int, rng):
        """A wrapped deterministic TAS program whose doorway is register base."""
        inner = register_program(TasLogic(pid, n), snap, base, history_ops=False)
        return wrap(inner, n, b, rng, dummy_reg=base)

    def _claim_le2(self, stage: int, role: int, pid: int) -> None:
        key = (stage, role)
        if key in self.le2_claims:
            raise RuntimeError(
                f"LE2 stage {stage} role {role} claimed by pid "
                f"{self.le2_claims[key]} and pid {pid}"
            )
        self.le2_claims[key] = pid

    def _program(self, pid: int):
        p = self.params
        yield ("inv", "tas", ())
        d = yield (READ, 0)
        if d == 1:
            yield ("res", 1)
            return 1
        rng = self.process_rng(pid)  # seeded by pid, so creating it late changes no draw
        won_at = None
        i = 1
        while True:
            self.entered[i] += 1
            if i < p.K:
                out = yield from gw_steps(self.gw_base[i], p.gw_size(i), rng)
            else:
                bit = yield from self._wrapped_tas(
                    pid, self.backstop_base, self.backstop_snap, self.n, self.bn, rng
                )
                out = WIN if bit == 0 else LOSE
            if out == LOSE:
                break
            sp = yield from split_steps(self.px_reg[i], self.py_reg[i], pid)
            self.split_outcomes.setdefault(i, Counter())[sp] += 1
            if sp == LOSE:
                break
            if sp == WIN:
                won_at = i
                break
            if i == p.K:
                # the backstop admits at most one process, which then splits
                # alone and cannot continue
                raise RuntimeError("split returned continue at the last stage")
            i += 1
        if won_at is not None:
            ok = True
            for j in range(won_at, 0, -1):
                role = 0 if j == won_at else 1
                self._claim_le2(j, role, pid)
                bit = yield from self._wrapped_tas(
                    role, self.le2_base[j], self.le2_snaps[j], 2, self.b2, rng
                )
                if bit != 0:
                    ok = False
                    break
            if ok:
                yield ("res", 0)
                return 0
        yield (WRITE, 0, 1)
        yield ("res", 1)
        return 1
