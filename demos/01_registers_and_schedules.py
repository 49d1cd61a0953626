"""Shared registers, step machines, and why schedules decide outcomes.

Two processes each read a counter register and write back the value plus
one.  Under a round-robin schedule the reads interleave and one increment
is lost; run solo, both land.  The same programs, the same memory widths,
different schedule, different final state: the schedule is an input.
"""

from tasim.shm import Memory, StepMachine, make_schedule, run


def incr(pid, reg=0):
    def prog():
        v = yield ("r", reg)
        yield ("w", reg, v + 1)
        return v

    return StepMachine(pid, prog())


def final_counter(schedule):
    memory = Memory([4])
    machines = [incr(0), incr(1)]
    run(machines, memory, schedule)
    return memory.regs[0]


def main():
    lost = final_counter(make_schedule("rr", 2, 4))
    kept = final_counter([0, 0, 1, 1])
    print(f"round-robin interleaving: counter = {lost}  (one increment lost)")
    print(f"one-after-the-other:      counter = {kept}")

    memory = Memory([4], record_trace=True)
    run([incr(0), incr(1)], memory, make_schedule("rr", 2, 4))
    print("register trace of the racy run (t, pid, kind, reg, value):")
    for entry in memory.trace:
        print("   ", entry)

    # seeded random schedules reproduce byte for byte
    a = make_schedule("random", 2, 10, seed=7)
    b = make_schedule("random", 2, 10, seed=7)
    print(f"seeded schedule is reproducible: {a == b}")


if __name__ == "__main__":
    main()
