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

A tails block is yielded as one multi-read op, the dummy read b times (see
`shm`): the step machine takes the b reads in b schedule slots, each traced
and counted like any other step, and resumes the wrapper once, after the
last one, to flip the next coin.  The coin is thus flipped at the same
point of the run as if every dummy read were yielded on its own.  A
collect of the wrapped program (a scan's, a multi-read op over a tuple of
reads) is charged its length in real steps, and one that runs past the end
of its heads block is split there, so that each coin is again flipped
where its reads one by one would flip it.

Against an adaptive scheduler this argument breaks down (the scheduler could
starve whoever draws heads), which is why schedules here are materialized
before any coin is drawn.
"""

from __future__ import annotations

import random
from typing import Optional

from .atomic import register_program
from .shm import COLLECT, READ, WRITE, Memory, StepMachine
from .tas_det import solo_step_bound, tas_machines, tas_register_widths, tas_snapshot


def wrap(inner, n: int, b: int, rng, dummy_reg: int = 0):
    """Wrap a register-level program generator; see the module docstring.

    `rng` needs one method, randrange(n); a draw of 0 is heads.  A heads
    block yields the inner program's shared ops one per wrapped step; a
    tails block yields one multi-read op ``(COLLECT, (READ, dummy_reg), b)``,
    which `shm.StepMachine` runs as b reads in a row (bookkeeping yields
    pass through unchanged and uncounted).  A collect of k reads, the
    only multi-read op the inner program may yield (a block, as from a
    wrapped program, raises ValueError), takes k real steps: it is
    yielded whole if the heads block has k left, else in parts, each
    ending where a heads block ends, and the program receives the parts'
    answers joined (the values read, in order, or whether all of them
    matched).  Returns the inner program's return value.
    """
    if not isinstance(n, int) or not isinstance(b, int) or n < 1 or b < 1:
        raise ValueError(f"n and b must be positive integers, not {n!r} and {b!r}")
    tails = (COLLECT, (READ, dummy_reg), b)
    steps = 0  # real steps left in the current heads block
    res = None
    while True:
        try:
            item = inner.send(res)
        except StopIteration as e:
            return e.value
        kind = item[0]
        if kind == READ or kind == WRITE:
            if steps == 0:
                yield from _until_heads(rng, n, tails)
                steps = b
            steps -= 1
        elif kind == COLLECT:
            if item[2] is not None and type(item[2]) is not tuple:
                raise ValueError(f"wrap: the inner program yielded {item!r}, not a collect")
            if steps == 0:
                yield from _until_heads(rng, n, tails)
                steps = b
            if len(item[1]) > steps:
                res, steps = yield from _split(item, steps, b, rng, n, tails)
                continue
            steps -= len(item[1])
        res = yield item


def _until_heads(rng, n: int, tails: tuple):
    """Flip until heads, yielding a tails block per tails."""
    while rng.randrange(n) != 0:
        yield tails


def _split(collect: tuple, steps: int, b: int, rng, n: int, tails: tuple):
    """Yield `collect` in parts that end where heads blocks end, the
    first `steps` reads long; return the joined answer and the real steps
    left in the heads block after the last part."""
    _, reads, against = collect
    got = () if against is None else True
    while reads:
        if steps == 0:
            yield from _until_heads(rng, n, tails)
            steps = b
        k = min(steps, len(reads))
        if against is None:
            got += yield (COLLECT, reads[:k], None)
        else:
            got = (yield (COLLECT, reads[:k], against[:k])) and got
            against = against[k:]
        reads = reads[k:]
        steps -= k
    return got, steps


def wrapped_tas_program(logic, snap, b: int, rng):
    """The one wrapped TAS lowering: `register_program(logic, snap)` through `wrap`.

    Coins are drawn over snap.n; tails blocks read the TAS object's doorway
    bit, plain register 0, where the lowering puts it: `snap.plain_reg(0)`,
    just below the chain snapshot (see `tas_det.tas_snapshot`).
    """
    return wrap(register_program(logic, snap), snap.n, b, rng, dummy_reg=snap.plain_reg(0))


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
        StepMachine(lg.pid, wrapped_tas_program(lg, snap, b, coin_rngs[lg.pid]))
        for lg in logics
    ]
    return machines, Memory(tas_register_widths(n)), logics


class HeadsRng:
    """Stub coin: always heads (the wrapped run equals the unwrapped one)."""

    def randrange(self, n: int) -> int:
        return 0


class TailsRng:
    """Stub coin: tails whenever n > 1 (the inner program never advances);
    randrange(1) can only return 0, which is heads."""

    def randrange(self, n: int) -> int:
        return n - 1 if n > 1 else 0
