"""Deterministic test-and-set: a chain of sifters plus a doorway bit.

Chaining levels of sifters shrinks k contenders to floor((2k+1)/3), then
again, until one remains; floor(log_{3/2} n) + 1 levels always suffice.
The whole chain lives in one multi-component snapshot, so the register
count stays at 6*floor(log_{3/2} n) + 8 including the doorway bit.

The price of determinism is progress: the object is obstruction-free but
not wait-free, and under a uniformly random live scheduler the scan retry
loop makes runs expensive as n grows.  The demo measures that directly.
"""

import random
import statistics

from tasim.shm import History, run_live_uniform
from tasim.tas_det import solo_step_bound, tas_register_widths, tas_system
from tasim.verify import check_tas


def main():
    for n in (2, 8, 64, 1024):
        print(f"n={n}: {len(tas_register_widths(n))} registers, "
              f"solo completion bound {solo_step_bound(n)} steps")

    for n in (2, 3, 4):
        steps = []
        for trial in range(5):
            machines, memory, logics = tas_system(n)
            h = History()
            run_live_uniform(machines, memory, random.Random(trial), 50_000_000, history=h)
            assert all(m.done for m in machines)
            results = sorted(lg.result for lg in logics)
            assert results == [0] + [1] * (n - 1)
            assert check_tas(h).ok
            steps.append(statistics.mean(m.steps for m in machines))
        print(f"n={n}: 5 random-schedule runs, one winner each, "
              f"mean per-process steps {statistics.mean(steps):.0f}")

    # contention hurts: mean steps grow much faster than the solo bound
    print("(the growth with n is the obstruction-free retry cost; the "
          "randomized wrapper in demo 05 is the cure)")


if __name__ == "__main__":
    main()
