"""The full randomized test-and-set: cheap rounds first, a safety net last.

Contenders pass through group-wise sifters (two shared steps each), then a
cascade of splitter + two-process elimination stages, and only in the rare
case that every stage stays crowded does anyone reach the wrapped
deterministic backstop.  Expected per-process work stays flat in n while
the register count grows far slower than linearly.
"""

import random
import statistics

from tasim.shm import History, run_live_uniform
from tasim.tas_rand import RandTas, gw_sizes, layout
from tasim.verify import check_tas


def main():
    print("n      registers   stages(K)   group sizes (s1, z)")
    for n in (16, 64, 256, 1024):
        s1, z = gw_sizes(n)[:2]
        lay = layout(n)
        print(f"{n:<6} {len(lay.widths):<11} {lay.K:<11} ({s1}, {z})")

    for n in (16, 256):
        means, backstops = [], 0
        for trial in range(40):
            rt = RandTas(n, seed=trial)
            machines = rt.machines()
            memory = rt.memory()
            h = History()
            run_live_uniform(machines, memory, random.Random(trial), 200_000_000, history=h)
            assert all(m.done for m in machines)
            results = [m.result for m in machines]
            assert results.count(0) == 1
            assert check_tas(h).ok
            if rt.entered[rt.backstop_index]:
                backstops += 1
            means.append(statistics.mean(m.steps for m in machines))
        print(f"n={n}: 40 runs, one winner each, mean per-process steps "
              f"{statistics.mean(means):.1f}, backstop reached {backstops} times")

    print("(mean steps do not grow with n; losers mostly exit after their "
          "first two-step sifter call)")


if __name__ == "__main__":
    main()
