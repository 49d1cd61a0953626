"""Correctness oracles: test-and-set history checks, linearizability search,
and solo-progress probes.

Everything here is deliberately independent of the algorithm implementations:
the checkers consume interface histories (lists of `shm.Event`s, six-field
tuples) and sequential object semantics only,
so they can't inherit a bug from the code they are judging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .shm import History, drain, draw_pids, run


class SearchBudgetExceeded(RuntimeError):
    """The linearizability search ran out of budget: result is unknown.

    Raised instead of returning, so a truncated search can never be mistaken
    for a pass.
    """


@dataclass
class Verdict:
    ok: bool
    reason: Optional[str] = None
    winner: Optional[int] = None


# ---------------------------------------------------------------------------
# test-and-set histories


def check_tas(h: History, permissive: bool = False) -> Verdict:
    """Check a one-shot test-and-set history in one pass over its events,
    each unpacked once into its six fields (an `shm.Event` is a tuple, on
    which unpacking costs less than reading fields by name).

    A complete history is correct iff exactly one operation returned 0 and
    its invocation precedes every 1-response (equivalently: no loser finished
    before the winner was invoked; then "winner first, losers after" is a
    legal sequential witness).

    Strict mode requires a complete history and raises ValueError on pending
    operations.  Permissive mode accepts pending operations: if no 0-response
    exists, some pending operation must be invocable first, i.e. its
    invocation must precede every completed response (it is the notional
    winner whose response we never saw).

    A malformed history raises ValueError, first at the first event that
    cannot be paired, with `check_linearizable`'s message: an invocation
    while its pid has one open, a response without one, or an unknown kind.
    Otherwise for the first operation, in invocation order, that is not a
    ``tas`` (checked first) or responded with neither 0 nor 1; then, in
    strict mode, for a pending operation.
    """
    opened: dict = {}  # pid -> (invocation index, time) of its open op
    invoked = 0
    bad = None  # (invocation index, message) of the first malformed op
    zeros = []  # (pid, invocation time) per 0-response
    ones = []  # (invocation index, pid, response time) per 1-response
    for time, pid, kind, op, _, result in h.events:
        if kind == "inv":
            if pid in opened:
                raise ValueError(f"pid {pid}: invocation while one is open")
            if bad is None and op != "tas":
                bad = (invoked, f"non-tas operation {op!r} in history")
            opened[pid] = (invoked, time)
            invoked += 1
        elif kind == "res":
            rec = opened.pop(pid, None)
            if rec is None:
                raise ValueError(f"pid {pid}: response without invocation")
            if result == 0:
                zeros.append((pid, rec[1]))
            elif result == 1:
                ones.append((rec[0], pid, time))
            elif bad is None or rec[0] < bad[0]:  # a non-tas op set bad when invoked
                bad = (rec[0], f"tas returned {result!r}")
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    if bad is not None:
        raise ValueError(bad[1])
    if opened and not permissive:
        raise ValueError("incomplete history (use permissive=True)")
    if len(zeros) > 1:
        return Verdict(False, f"{len(zeros)} operations returned 0")
    if zeros:
        w, w_inv = zeros[0]
        early = [(i, pid) for i, pid, resp in ones if resp < w_inv]
        if early:
            return Verdict(
                False,
                f"pid {min(early)[1]} returned 1 before the 0-returner (pid {w}) was invoked",
            )
        return Verdict(True, winner=w)
    # no 0-response: every completed op returned 1
    if not ones:
        return Verdict(True)  # nothing observable happened (or only pendings)
    first_resp = min(resp for _, _, resp in ones)
    first = min(((i, pid) for pid, (i, inv) in opened.items() if inv < first_resp), default=None)
    if first is not None:
        return Verdict(True, winner=first[1])
    return Verdict(False, "no operation returned 0 and no pending op can be first")


# ---------------------------------------------------------------------------
# sequential object semantics for the linearizability checker


class TasSequential:
    """One-shot test-and-set: first operation sees 0, later ones see 1."""

    def initial(self):
        return 0

    def apply(self, state, op: str, args: tuple):
        if op != "tas":
            raise ValueError(f"unknown op {op!r}")
        return 1, state


class SnapshotSequential:
    """M-component snapshot: update replaces one component, scan returns all."""

    def __init__(self, m: int, init: Any = 0):
        self.m = m
        self.init = init

    def initial(self):
        return (self.init,) * self.m

    def apply(self, state, op: str, args: tuple):
        if op == "update":
            i, x = args
            return state[:i] + (x,) + state[i + 1 :], None
        if op == "scan":
            return state, state
        raise ValueError(f"unknown op {op!r}")


def _norm(v):
    return tuple(v) if isinstance(v, list) else v


def check_linearizable(h: History, spec, budget: int = 500_000) -> bool:
    """Exhaustive linearizability check against a sequential object.

    Depth-first search over linearization orders, memoized on the pair
    (set of linearized ops, object state); an operation may be linearized
    next only if no other un-linearized operation responded before it was
    invoked.  Completed operations must reproduce their recorded results;
    pending operations may be linearized with any result or left out.

    The set of linearized ops is an integer bitmask.  Each op i has a
    predecessor mask holding every op j (i itself included) with
    ``not inv[i] < resp[j]``, a pending op's response being at infinity, so
    i is enabled exactly when its mask has no un-linearized op in it.  An
    explicit stack takes the children in ascending index order and counts a
    node when it is entered, so the nodes, their order and the count at
    which the budget runs out are those of the recursive search.

    Raises SearchBudgetExceeded when more than `budget` search nodes are
    expanded: the answer is then unknown, never a silent pass.  One pass
    over the events, each unpacked once as in `check_tas`, pairs each
    invocation with its pid's next response and raises ValueError at the
    first event it cannot pair, as `check_tas` does.
    """
    INF = float("inf")
    ops: list = []  # per op: [inv, resp, op, args, completed, recorded result]
    opened: dict = {}  # pid -> its open op
    for time, pid, kind, name, args, result in h.events:
        if kind == "inv":
            if pid in opened:
                raise ValueError(f"pid {pid}: invocation while one is open")
            opened[pid] = op = [time, INF, name, args, False, None]
            ops.append(op)
        elif kind == "res":
            op = opened.pop(pid, None)
            if op is None:
                raise ValueError(f"pid {pid}: response without invocation")
            op[1], op[4], op[5] = time, True, _norm(result)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    n = len(ops)
    if n == 0:
        return True
    # per op, in descending index order so that pushes pop ascending:
    # (bit, predecessor mask, (op, args, must match, recorded result))
    enabling = [
        (1 << i, sum(1 << j for j in range(n) if not ops[i][0] < ops[j][1]), tuple(ops[i][2:]))
        for i in range(n - 1, -1, -1)
    ]
    all_completed = sum(1 << i for i in range(n) if ops[i][4])
    apply = spec.apply

    seen: set = set()
    nodes = 0
    # (done with the op, state before it, op); the op is applied when
    # popped, so spec.apply runs in the same order as in the recursive search
    stack: list = []
    done, state = 0, spec.initial()
    while True:
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"linearizability search exceeded {budget} nodes")
        if done & all_completed == all_completed:
            return True
        key = (done, state)
        if key not in seen:
            seen.add(key)
            live = ~done
            for bit, pred, move in enabling:
                if bit & live and not pred & live:
                    stack.append((done | bit, state, move))
        while True:
            if not stack:
                return False
            done, state, (name, args, must, want) = stack.pop()
            state, ret = apply(state, name, args)
            if not must or ret == want or isinstance(ret, list) and tuple(ret) == want:
                break

# ---------------------------------------------------------------------------
# solo-progress probes (obstruction freedom)


@dataclass
class SoloProbeReport:
    samples: int
    trivial: int = 0  # prefixes where every machine had already finished
    max_steps: int = 0
    steps: list[int] = field(default_factory=list)
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def probe_solo(
    factory: Callable,
    samples: int,
    bound: int,
    seed: int,
    prefix_max: int = 400,
) -> SoloProbeReport:
    """Sample reachable configurations; resume one unfinished process solo.

    `factory(rng)` must build a fresh system and return ``(machines,
    target)``: `shm.Machine`s over their store.  For each sample a random
    schedule prefix, run by `shm.run`, reaches a configuration; then
    `shm.drain` resumes a random unfinished machine alone for up to `bound`
    of its own steps, and the probe records how many steps it needed.  A
    machine still unfinished after `bound` solo steps (drain raises
    RuntimeError) is a violation: the algorithm would not be
    obstruction-free.
    """
    rng = random.Random(seed)
    report = SoloProbeReport(samples=samples)
    for s in range(samples):
        machines, target = factory(rng)
        pids = [m.pid for m in machines]
        plen = rng.randrange(prefix_max + 1)
        prefix = [pids[i] for i in draw_pids(rng, len(pids), plen)]
        run(machines, target, prefix)
        live = [m for m in machines if not m.done]
        if not live:
            report.trivial += 1
            continue
        m = live[rng.randrange(len(live))]
        before = m.steps
        try:
            drain([m], target, bound)
        except RuntimeError:
            report.violations.append((s, m.pid, m.steps - before))
            continue
        took = m.steps - before
        report.steps.append(took)
        report.max_steps = max(report.max_steps, took)
    return report
