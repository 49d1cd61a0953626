"""Randomized wait-freedom for deterministic obstruction-free programs.

An obstruction-free program with solo step bound b finishes whenever it gets
b consecutive steps without interference.  Wrapping every process the same
way manufactures such windows under any schedule fixed in advance: before
its first step and then every b steps, a process tosses a coin that comes up
heads with probability 1/n.  On heads its next b steps are the program's
real steps; on tails they are dummy reads of one fixed register.  A block in
which one process drew heads and every potentially overlapping process drew
tails is an unobstructed solo window, and blocks are cheap enough that such
windows arrive after polynomially many steps with high probability.

The wrapper changes nothing else: it touches exactly the wrapped program's
registers (dummies are reads), and a process whose coins are all heads
behaves step-for-step like the unwrapped program.

A tails block is yielded as one block op, b reads of the dummy register
(see `shm`): the step machine takes the b reads in b schedule slots, each
traced and counted like any other step, and resumes the wrapper once, after
the last one, to flip the next coin.  The coin is thus flipped at the same
point of the run as if every dummy read were yielded on its own.

Against an adaptive scheduler this argument breaks down (the scheduler could
starve whoever draws heads), which is why schedules here are materialized
before any coin is drawn.
"""

from __future__ import annotations

import random
from typing import Optional

from .shm import READ, WRITE, Memory, StepMachine
from .tas_det import solo_step_bound, tas_machines, tas_program, tas_register_widths, tas_snapshot


def wrap(inner, n: int, b: int, rng, dummy_reg: int = 0):
    """Wrap a register-level program generator; see the module docstring.

    `rng` needs one method, randrange(n); a draw of 0 is heads.  A heads
    block yields the inner program's shared ops one per wrapped step; a
    tails block yields one block op ``(READ, dummy_reg, b)``, which
    `shm.StepMachine` runs as b reads in a row (bookkeeping yields pass
    through unchanged and uncounted).  Returns the inner program's return
    value.
    """
    if n < 1 or b < 1:
        raise ValueError("n and b must be positive")
    tails = (READ, dummy_reg, b)
    steps = 0  # real steps left in the current heads block
    res = None
    while True:
        try:
            item = inner.send(res)
        except StopIteration as e:
            return e.value
        if item[0] in (READ, WRITE):
            if steps == 0:
                while rng.randrange(n) != 0:
                    yield tails
                steps = b
            steps -= 1
        res = yield item


def wrapped_tas_program(logic, snap, n: int, b: int, rng, history_ops: bool = True):
    """The one wrapped TAS lowering: `logic` run on `snap` through `wrap`.

    Tails blocks read the TAS object's doorway bit, the register just below
    its chain snapshot (see `tas_det.tas_snapshot`).
    """
    return wrap(tas_program(logic, snap, history_ops), n, b, rng, dummy_reg=snap.base - 1)


def wrapped_tas_system(n: int, b: Optional[int] = None, seed: int = 0, coin_rngs=None):
    """The deterministic TAS with every process wrapped; the flagship use.

    Returns (machines, memory, logics).  `b` defaults to the registered solo
    step bound; `coin_rngs` (pid -> rng, for every pid) replaces the seeded
    per-process coin streams, e.g. with HeadsRng for the degenerate-coin checks.
    """
    if b is None:
        b = solo_step_bound(n)
    snap = tas_snapshot(n)
    logics = tas_machines(n)
    if coin_rngs is None:
        coin_rngs = {lg.pid: random.Random(f"coin:{seed}:{lg.pid}") for lg in logics}
    machines = [
        StepMachine(lg.pid, wrapped_tas_program(lg, snap, n, b, coin_rngs[lg.pid]))
        for lg in logics
    ]
    return machines, Memory(tas_register_widths(n)), logics


class HeadsRng:
    """Stub coin: always heads (the wrapped run equals the unwrapped one)."""

    def randrange(self, n: int) -> int:
        return 0


class TailsRng:
    """Stub coin: always tails (the inner program never advances)."""

    def randrange(self, n: int) -> int:
        return n - 1 if n > 1 else 0
