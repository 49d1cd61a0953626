"""Coin blocks turn obstruction-freedom into expected wait-freedom.

Every b-th own step each process flips a biased coin (heads with
probability 1/n).  Heads buys a block of b real steps; tails spends the
block on harmless dummy reads.  Most of the time at most one process is
executing real steps, so the solo-completion bound b finishes the whole
operation inside one lucky block, against any schedule fixed in advance.

Two structural facts make the wrapper honest, both shown below: an
all-heads coin stream reproduces the unwrapped system's register trace
exactly, and an all-tails stream never advances the program at all.
"""

import random
import statistics

from tasim.randomized import HeadsRng, TailsRng, wrapped_tas_system
from tasim.shm import History, make_schedule, run, run_live_uniform
from tasim.tas_det import tas_system
from tasim.verify import check_tas


def main():
    n = 3

    sched = make_schedule("random", n, 1200, seed=5)
    plain, mem_plain, _ = tas_system(n)
    mem_plain.record_trace = True
    run(plain, mem_plain, sched)
    wrapped, mem_wrapped, _ = wrapped_tas_system(
        n, b=60, coin_rngs={p: HeadsRng() for p in range(n)}
    )
    mem_wrapped.record_trace = True
    run(wrapped, mem_wrapped, sched)
    print(f"all-heads trace identical to unwrapped: {mem_wrapped.trace == mem_plain.trace}")

    stalled, mem_stall, _ = wrapped_tas_system(
        n, b=10, coin_rngs={p: TailsRng() for p in range(n)}
    )
    run(stalled, mem_stall, make_schedule("rr", n, 600))
    print(f"all-tails registers untouched: {mem_stall.regs == [0] * len(mem_stall.regs)}")

    # real coins: per-process step totals stay within a few multiples of b
    n = 4
    b = 1619  # measured solo-resume bound for n=4, with 25% headroom
    ratios = []
    for trial in range(50):
        machines, memory, logics = wrapped_tas_system(n, b=b, seed=trial)
        h = History()
        run_live_uniform(machines, memory, random.Random(trial), 400 * b, history=h)
        assert all(m.done for m in machines)
        assert check_tas(h).ok
        ratios.append(max(m.steps for m in machines) / b)
    print(f"wrapped n={n}, b={b}: worst process used "
          f"{statistics.mean(ratios):.1f}*b steps on average "
          f"(max over 50 runs: {max(ratios):.1f}*b)")


if __name__ == "__main__":
    main()
