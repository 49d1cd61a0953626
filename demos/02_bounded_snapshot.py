"""The M-component snapshot: cheap updates, scans that must not be fooled.

An update is always exactly two register writes (announce on the handshake
register, then publish the cell).  A scan double-collects and re-reads the
handshake register; if anything moved it retries, so a scan that overlaps
an update never returns a view that no moment in time ever held.

The retry is also the cost model's sharp edge: a scan running alone from a
fresh system takes 2M+2 steps, while from the worst reachable state it can
need up to 4M+3 before the view settles.
"""

import random

from tasim.shm import History, StepMachine, drain, run
from tasim.snapshot import BoundedSnapshot, ops_program
from tasim.verify import SnapshotSequential, check_linearizable


def main():
    m = 4
    snap = BoundedSnapshot(0, m, n=3, value_bits=8)
    memory = snap.fresh_memory()
    print(f"M={m}, 3 writers: {len(snap.register_widths())} registers, "
          f"cells {snap.cell_width} bits wide")

    writer = StepMachine(1, ops_program(snap, 1, [("update", 2, 99)]))
    drain([writer], memory, 10_000)
    print(f"solo update: {writer.steps} steps (always exactly 2)")

    scanner = StepMachine(0, ops_program(snap, 0, [("scan",)]))
    drain([scanner], memory, 10_000)
    print(f"solo scan:   {scanner.steps} steps (fresh bound 2M+2 = {2 * m + 2}); "
          f"view = {scanner.result[0]}")

    # an update landing mid-scan forces one retry
    snap2 = BoundedSnapshot(0, m, n=2, value_bits=8)
    mem2 = snap2.fresh_memory()
    scan2 = StepMachine(0, ops_program(snap2, 0, [("scan",)]))
    upd2 = StepMachine(1, ops_program(snap2, 1, [("update", 0, 7)]))
    run([scan2, upd2], mem2, [0, 0, 0, 1, 1] + [0] * 40)
    print(f"scan crossed by an update: {scan2.steps} steps "
          f"(one wasted attempt), view = {scan2.result[0]}")

    # random concurrent workloads still produce linearizable histories
    rng = random.Random(2)
    spec = SnapshotSequential(m, 0)
    for trial in range(5):
        s = BoundedSnapshot(0, m, n=3, value_bits=8)
        mem = s.fresh_memory()
        machines = []
        for pid in range(3):
            script = []
            for _ in range(rng.randrange(1, 3)):
                if rng.random() < 0.5:
                    script.append(("update", rng.randrange(m), rng.randrange(256)))
                else:
                    script.append(("scan",))
            machines.append(StepMachine(pid, ops_program(s, pid, script)))
        sched = [rng.randrange(3) for _ in range(400)]
        h = run(machines, mem, sched, History())
        print(f"random workload {trial}: linearizable = {check_linearizable(h, spec)}")


if __name__ == "__main__":
    main()
