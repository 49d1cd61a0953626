"""History checkers: TAS verdicts, brute-force linearizability, solo probes."""

import dataclasses
import gc
import random
import re
from dataclasses import dataclass
from typing import Any, Optional

import pytest

from tasim.shm import Event, History, Memory, StepMachine, drain, new_event, run
from tasim.tas_det import solo_op_bound, tas_machines, tas_store
from tasim.verify import (
    SearchBudgetExceeded,
    SnapshotSequential,
    TasSequential,
    Verdict,
    _norm,
    check_linearizable,
    check_tas,
    probe_solo,
)


def hist(*quads) -> History:
    """Build a history from (time, pid, kind, result_or_None) tas events."""
    h = History()
    for t, pid, kind, res in quads:
        h.events.append(Event(t, pid, kind, "tas", (), res))
    h.events.sort(key=lambda e: e.time)
    return h


def test_tas_winner_first_ok():
    h = hist((0, 0, "inv", None), (5, 0, "res", 0), (1, 1, "inv", None), (7, 1, "res", 1))
    v = check_tas(h)
    assert v.ok and v.winner == 0


def test_tas_loser_completed_before_winner_invoked():
    h = hist((0, 0, "inv", None), (2, 0, "res", 1), (3, 1, "inv", None), (5, 1, "res", 0))
    v = check_tas(h)
    assert not v.ok and "before" in v.reason


def test_tas_two_zero_responses():
    h = hist((0, 0, "inv", None), (2, 0, "res", 0), (1, 1, "inv", None), (3, 1, "res", 0))
    v = check_tas(h)
    assert not v.ok and "2 operations returned 0" in v.reason


def test_tas_no_zero_at_all():
    h = hist((0, 0, "inv", None), (2, 0, "res", 1))
    assert not check_tas(h).ok


def test_tas_concurrent_winner_ok():
    # winner invoked before the loser responded: legal even though the
    # loser's response comes first in wall-clock order
    h = hist((0, 1, "inv", None), (2, 0, "inv", None), (3, 1, "res", 1), (5, 0, "res", 0))
    assert check_tas(h).ok


def test_tas_strict_rejects_pending():
    h = hist((0, 0, "inv", None))
    with pytest.raises(ValueError, match="incomplete"):
        check_tas(h)


def test_tas_permissive_pending_winner():
    # no 0-response, but pid 0 is pending and was invoked before the only
    # completed response: it can be the unseen winner
    h = hist((0, 0, "inv", None), (1, 1, "inv", None), (3, 1, "res", 1))
    assert check_tas(h, permissive=True).ok
    # pending op invoked after the loser finished cannot explain the 1
    h2 = hist((0, 1, "inv", None), (1, 1, "res", 1), (2, 0, "inv", None))
    assert not check_tas(h2, permissive=True).ok


def test_tas_permissive_empty_and_only_pending():
    assert check_tas(hist(), permissive=True).ok
    assert check_tas(hist((0, 0, "inv", None)), permissive=True).ok


def test_tas_rejects_malformed():
    h = History()
    h.events.append(Event(0, 0, "inv", "scan", ()))
    h.events.append(Event(1, 0, "res", "scan", (), (0,)))
    with pytest.raises(ValueError, match="non-tas"):
        check_tas(h)
    h2 = hist((0, 0, "inv", None), (1, 0, "res", 7))
    with pytest.raises(ValueError, match="returned"):
        check_tas(h2)


@dataclass
class RefOp:
    """One operation as the references see it; `resp` is None while pending."""

    pid: int
    op: str
    args: tuple
    result: Any
    inv: int
    resp: Optional[int]

    @property
    def pending(self) -> bool:
        return self.resp is None


def pair_ops(h: History) -> list[RefOp]:
    """Reference pairing, apart from the checkers' own passes: each
    invocation with its pid's next response, in invocation order."""
    open_by_pid: dict[int, RefOp] = {}
    out: list[RefOp] = []
    for ev in h.events:
        if ev.kind == "inv":
            if ev.pid in open_by_pid:
                raise ValueError(f"pid {ev.pid}: invocation while one is open")
            rec = open_by_pid[ev.pid] = RefOp(ev.pid, ev.op, ev.args, None, ev.time, None)
            out.append(rec)
        elif ev.kind == "res":
            rec = open_by_pid.pop(ev.pid, None)
            if rec is None:
                raise ValueError(f"pid {ev.pid}: response without invocation")
            rec.result = ev.result
            rec.resp = ev.time
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")
    return out


def ops_check_tas(h: History, permissive: bool = False) -> Verdict:
    """Reference: `check_tas` judged over `pair_ops`' records."""
    ops = pair_ops(h)
    for o in ops:
        if o.op != "tas":
            raise ValueError(f"non-tas operation {o.op!r} in history")
        if o.resp is not None and o.result not in (0, 1):
            raise ValueError(f"tas returned {o.result!r}")
    pending = [o for o in ops if o.pending]
    if pending and not permissive:
        raise ValueError("incomplete history (use permissive=True)")
    completed = [o for o in ops if not o.pending]
    zeros = [o for o in completed if o.result == 0]
    ones = [o for o in completed if o.result == 1]
    if len(zeros) > 1:
        return Verdict(False, f"{len(zeros)} operations returned 0")
    if len(zeros) == 1:
        w = zeros[0]
        for o in ones:
            if o.resp < w.inv:
                return Verdict(
                    False,
                    f"pid {o.pid} returned 1 before the 0-returner (pid {w.pid}) was invoked",
                )
        return Verdict(True, winner=w.pid)
    if not completed:
        return Verdict(True)
    for p in pending:
        if all(p.inv < c.resp for c in completed):
            return Verdict(True, winner=p.pid)
    return Verdict(False, "no operation returned 0 and no pending op can be first")


def test_checkers_refuse_pairing_faults_alike():
    def inv(t, pid, op="tas"):
        return Event(t, pid, "inv", op, ())

    def res(t, pid, r):
        return Event(t, pid, "res", "tas", (), r)

    orphan = "pid 1: response without invocation"
    nested = "pid 0: invocation while one is open"
    unknown = "unknown event kind 'ack'"
    cases = [
        ([inv(0, 0), res(1, 1, 0), res(2, 0, 0)], orphan),
        ([inv(0, 0), inv(1, 0), res(2, 0, 0)], nested),
        ([inv(0, 0), Event(1, 0, "ack", "tas", ()), res(2, 0, 0)], unknown),
        # two faults: the first in event order wins
        ([inv(0, 0), res(1, 1, 1), inv(2, 0)], orphan),
        ([inv(0, 0), inv(1, 0), res(2, 1, 1)], nested),
        ([Event(0, 2, "ack", "tas", ()), inv(1, 0), inv(2, 0)], unknown),
        # a pairing fault comes before any judgment of the paired ops
        ([inv(0, 2, "scan"), res(1, 2, 7), res(2, 1, 0)], orphan),
    ]
    for events, message in cases:
        h = History(events)
        for check in (
            check_tas,
            lambda h: check_tas(h, permissive=True),
            lambda h: check_linearizable(h, TasSequential()),
        ):
            with pytest.raises(ValueError) as err:
                check(h)
            assert str(err.value) == message, events


def _tas_outcome(check, h: History, permissive: bool):
    try:
        return check(h, permissive)
    except ValueError as e:
        return ("ValueError", str(e))


def _malform(rng: random.Random, events: list, how: str) -> None:
    """Make one event list malformed in place, in the way `how` names."""
    i = rng.randrange(len(events))
    e = events[i]
    if how == "orphan response":  # a response without an invocation
        invs = [j for j, x in enumerate(events) if x.kind == "inv"]
        del events[rng.choice(invs)]
    elif how == "nested invocation":
        events.insert(i + 1, Event(e.time, e.pid, "inv", "tas", ()))
    elif how == "non-tas op":
        events[i] = Event(e.time, e.pid, e.kind, "scan", (), e.result)
    else:  # a result of 7, if anything responded
        res = [j for j, x in enumerate(events) if x.kind == "res"]
        if res:
            j = rng.choice(res)
            events[j] = Event(events[j].time, events[j].pid, "res", events[j].op, (), 7)


def test_checkers_judge_events_built_either_way():
    # the same events through Event(...) by keyword and through shm's
    # new_event: the same verdicts and the same pairing ValueErrors
    rng = random.Random(32)
    checks = (
        (check_tas, False),
        (check_tas, True),
        (lambda h, _: check_linearizable(h, TasSequential()), None),
    )
    names = [f.name for f in dataclasses.fields(Event)]
    seen = set()
    for trial in range(600):
        events = random_history(rng, "tas").events
        if trial % 3 == 0:
            _malform(rng, events, rng.choice(("orphan response", "nested invocation")))
        elif trial % 3 == 1:
            events.insert(rng.randrange(len(events) + 1), Event(0, 0, "ack", "tas", ()))
        by_name = History([Event(**dict(zip(names, ev))) for ev in events])
        by_tuple = History([new_event(tuple(ev)) for ev in events])
        assert by_name.events == by_tuple.events
        for check, permissive in checks:
            want = _tas_outcome(check, by_name, permissive)
            assert _tas_outcome(check, by_tuple, permissive) == want, events
            seen.add(
                re.sub(r"\d+", "N", want[1]) if type(want) is tuple else getattr(want, "ok", want)
            )
    assert {
        "pid N: invocation while one is open",
        "pid N: response without invocation",
        "unknown event kind 'ack'",
        True,
        False,
    } <= seen, seen


def test_one_pass_check_tas_matches_the_ops_reference():
    rng = random.Random(27)
    kinds = ("orphan response", "nested invocation", "non-tas op", "result 7")
    seen = {}
    for trial in range(3000):
        n = rng.randrange(2, 6)
        machines, store = tas_machines(n), tas_store(n)
        h = run(machines, store, [rng.randrange(n) for _ in range(rng.randrange(1, 25 * n))],
                History())
        mode = rng.choice(("clean", "pending", "flipped", "moved", "malformed", "synthetic"))
        if mode != "pending":
            drain(machines, store, solo_op_bound(n), h)
        if mode == "synthetic":  # random times: ties, early responses, any order
            h = random_history(rng, "tas")
        events = h.events
        res = [j for j, e in enumerate(events) if e.kind == "res"]
        if mode == "flipped":
            j = rng.choice(res)
            events[j] = Event(events[j].time, events[j].pid, "res", "tas", (), 1 - events[j].result)
        if mode == "moved":  # the 0 moves to another op, often one invoked late
            w = rng.choice(res)
            for j in res:
                events[j] = Event(events[j].time, events[j].pid, "res", "tas", (), int(j != w))
        if mode == "malformed" or rng.random() < 0.1:
            for how in rng.sample(kinds, rng.choice((1, 1, 2, 3))):
                _malform(rng, events, how)
        for permissive in (False, True):
            want = _tas_outcome(ops_check_tas, h, permissive)
            assert _tas_outcome(check_tas, h, permissive) == want, (mode, permissive, events)
            if isinstance(want, tuple):
                key = re.sub(r"\d+", "N", want[1])
            else:
                key = (want.ok, re.sub(r"\d+", "N", want.reason or ""), want.winner is not None)
            seen[key] = seen.get(key, 0) + 1
    # every verdict and every ValueError the generator can provoke
    assert seen.keys() == {
        (True, "", True),
        (True, "", False),
        (False, "N operations returned N", False),
        (False, "pid N returned N before the N-returner (pid N) was invoked", False),
        (False, "no operation returned N and no pending op can be first", False),
        "pid N: invocation while one is open",
        "pid N: response without invocation",
        "non-tas operation 'scan' in history",
        "tas returned N",
        "incomplete history (use permissive=True)",
    }, seen
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# brute-force linearizability


def snap_hist(*ops) -> History:
    """ops: (time_inv, time_res_or_None, pid, name, args, result)."""
    h = History()
    for ti, tr, pid, name, args, res in ops:
        h.events.append(Event(ti, pid, "inv", name, tuple(args)))
        if tr is not None:
            h.events.append(Event(tr, pid, "res", name, tuple(args), res))
    h.events.sort(key=lambda e: e.time)
    return h


def test_linearizable_empty_history():
    assert check_linearizable(History(), SnapshotSequential(2))


def test_sequential_specs_refuse_an_unknown_op():
    with pytest.raises(ValueError, match="unknown op 'scan'"):
        TasSequential().apply(0, "scan", ())
    with pytest.raises(ValueError, match="unknown op 'tas'"):
        SnapshotSequential(2).apply((0, 0), "tas", ())


def test_linearizable_sequential_update_scan():
    h = snap_hist(
        (0, 1, 0, "update", (1, 5), None),
        (2, 3, 0, "scan", (), (0, 5)),
    )
    assert check_linearizable(h, SnapshotSequential(2, 0))


def test_linearizable_mutated_scan_fails():
    # same shape, but the scan's return matches no instantaneous vector
    h = snap_hist(
        (0, 1, 0, "update", (1, 5), None),
        (2, 3, 0, "scan", (), (7, 5)),
    )
    assert not check_linearizable(h, SnapshotSequential(2, 0))


def test_linearizable_concurrent_scan_may_see_either():
    # update overlaps the scan: both the old and the new vector are legal
    old = snap_hist((0, 5, 0, "update", (0, 3), None), (1, 4, 1, "scan", (), (0, 0)))
    new = snap_hist((0, 5, 0, "update", (0, 3), None), (1, 4, 1, "scan", (), (3, 0)))
    bad = snap_hist((0, 5, 0, "update", (0, 3), None), (1, 4, 1, "scan", (), (9, 0)))
    spec = SnapshotSequential(2, 0)
    assert check_linearizable(old, spec)
    assert check_linearizable(new, spec)
    assert not check_linearizable(bad, spec)


def test_linearizable_respects_real_time_order():
    # scan completed strictly before the update began, yet saw its value
    h = snap_hist(
        (0, 1, 1, "scan", (), (3, 0)),
        (2, 3, 0, "update", (0, 3), None),
    )
    assert not check_linearizable(h, SnapshotSequential(2, 0))


def test_linearizable_pending_op_may_take_effect_or_not():
    spec = SnapshotSequential(1, 0)
    # pending update explains the scan's view
    h = snap_hist((0, None, 0, "update", (0, 9), None), (1, 2, 1, "scan", (), (9,)))
    assert check_linearizable(h, spec)
    # and may equally be dropped
    h2 = snap_hist((0, None, 0, "update", (0, 9), None), (1, 2, 1, "scan", (), (0,)))
    assert check_linearizable(h2, spec)


def test_linearizable_list_results_normalized():
    h = snap_hist((0, 1, 0, "scan", (), [0, 0]))
    assert check_linearizable(h, SnapshotSequential(2, 0))


def test_linearizable_budget_exceeded_raises():
    # 10 pairwise-concurrent updates on distinct components: huge order space
    ops = [(i, 100 + i, i, "update", (i, 1), None) for i in range(10)]
    ops.append((50, 120, 10, "scan", (), (9,) * 10))  # unsatisfiable
    h = snap_hist(*ops)
    with pytest.raises(SearchBudgetExceeded):
        check_linearizable(h, SnapshotSequential(10, 0), budget=200)


def test_tas_checker_agrees_with_bruteforce_on_samples():
    rng = random.Random(1)
    spec = TasSequential()
    for _ in range(300):
        k = rng.randrange(2, 5)
        events = []
        t = 0
        for pid in range(k):
            events.append((t, pid, "inv", None)); t += 1
        order = list(range(k))
        rng.shuffle(order)
        for pid in order:
            if rng.random() < 0.2:
                continue  # leave pending
            events.append((t, pid, "res", rng.choice([0, 1]))); t += 1
        h = hist(*events)
        fast = check_tas(h, permissive=True).ok
        slow = check_linearizable(h, spec)
        assert fast == slow, f"disagreement on {events}"


def frozenset_search(h: History, spec) -> tuple[bool, int]:
    """Reference: the recursive frozenset search, unbudgeted, with its node count."""
    ops = pair_ops(h)
    n = len(ops)
    if n == 0:
        return True, 0
    INF = float("inf")
    inv = [o.inv for o in ops]
    resp = [o.resp if o.resp is not None else INF for o in ops]
    results = [_norm(o.result) for o in ops]
    completed = [o.resp is not None for o in ops]
    all_completed = frozenset(i for i in range(n) if completed[i])
    seen: set = set()
    nodes = 0

    def rec(done: frozenset, state) -> bool:
        nonlocal nodes
        nodes += 1
        if all_completed <= done:
            return True
        key = (done, state)
        if key in seen:
            return False
        seen.add(key)
        live = [i for i in range(n) if i not in done]
        min_resp = min(resp[i] for i in live)
        for i in live:
            if inv[i] < min_resp:
                state2, ret = spec.apply(state, ops[i].op, ops[i].args)
                if completed[i] and _norm(ret) != results[i]:
                    continue
                if rec(done | {i}, state2):
                    return True
        return False

    return rec(frozenset(), spec.initial()), nodes


def random_history(rng: random.Random, kind: str) -> History:
    """1-7 ops, one pid each, on small integer times so that equal
    invocation/response times are common.  Results come from a sequential
    run in the order of random linearization points inside the intervals;
    then one result may be made wrong, some ops stay pending and a few
    respond before they were invoked."""
    spec = TasSequential() if kind == "tas" else SnapshotSequential(2, 0)
    k = rng.randrange(1, 8)
    span = rng.randrange(1, 2 * k + 2)
    ops = []
    for pid in range(k):
        if kind == "tas":
            name, args = "tas", ()
        elif rng.random() < 0.5:
            name, args = "update", (rng.randrange(2), rng.randrange(1, 3))
        else:
            name, args = "scan", ()
        point = rng.randrange(span)
        ti = point - rng.randrange(span)
        ops.append([rng.random(), point, pid, name, args, ti, point + rng.randrange(span), None])
    state = spec.initial()
    for op in sorted(ops, key=lambda op: (op[1], op[0])):
        state, op[7] = spec.apply(state, op[3], op[4])
    if rng.random() < 0.4:
        op = rng.choice(ops)
        op[7] = 1 - op[7] if kind == "tas" else (rng.randrange(3), rng.randrange(3))
    h = History()
    for _, _, pid, name, args, ti, tr, res in ops:
        h.events.append(Event(ti, pid, "inv", name, args))
        u = rng.random()
        if u < 0.15:
            continue  # pending
        if u < 0.18:
            tr = ti - rng.randrange(1, 3)  # malformed: responds before invoked
        if name == "scan" and u < 0.4:
            res = list(res)
        h.events.append(Event(tr, pid, "res", name, args, res))
    return h


def test_bitmask_search_matches_frozenset_search():
    rng = random.Random(15)
    specs = {"tas": TasSequential(), "snapshot": SnapshotSequential(2, 0)}
    verdicts = {True: 0, False: 0}
    ties = pending = 0
    for trial in range(2400):
        kind = "tas" if trial % 2 else "snapshot"
        h = random_history(rng, kind)
        ops = pair_ops(h)
        times = [o.inv for o in ops] + [o.resp for o in ops if o.resp is not None]
        ties += len(set(times)) < len(times)
        pending += any(o.pending for o in ops)
        want, nodes = frozenset_search(h, specs[kind])
        verdicts[want] += 1
        assert check_linearizable(h, specs[kind], budget=nodes) == want, ops
        with pytest.raises(SearchBudgetExceeded):
            check_linearizable(h, specs[kind], budget=nodes - 1)
    assert min(verdicts.values()) >= 400 and min(ties, pending) >= 400, (verdicts, ties, pending)


def test_linearizability_check_leaves_no_reference_cycle():
    good = hist((0, 0, "inv", None), (1, 1, "inv", None), (2, 0, "res", 0), (3, 1, "res", 1))
    bad = hist((0, 0, "inv", None), (1, 0, "res", 1), (2, 1, "inv", None), (3, 1, "res", 0))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for h, want in ((good, True), (bad, False)):
            gc.collect()
            assert check_linearizable(h, TasSequential()) is want
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# solo probes


def _probe_factory(loop_forever: bool):
    def prog(pid):
        if loop_forever and pid == 0:
            while True:
                yield ("r", 0)
        for _ in range(3):
            yield ("w", 0, pid)
        return pid

    def factory(rng):
        mem = Memory([4])
        machines = [StepMachine(p, prog(p)) for p in range(3)]
        return machines, mem

    return factory


def test_probe_solo_clean_and_deterministic():
    r1 = probe_solo(_probe_factory(False), samples=50, bound=10, seed=4)
    r2 = probe_solo(_probe_factory(False), samples=50, bound=10, seed=4)
    assert r1.ok and r1.max_steps <= 3
    assert (r1.steps, r1.trivial, r1.violations) == (r2.steps, r2.trivial, r2.violations)


def test_probe_solo_detects_nontermination():
    r = probe_solo(_probe_factory(True), samples=40, bound=10, seed=4, prefix_max=5)
    assert not r.ok
    assert any(pid == 0 for _, pid, _ in r.violations)


def test_probe_solo_trivial_configurations():
    def prog():
        yield ("w", 0, 1)
        return 0

    def factory(rng):
        machines = [StepMachine(0, prog())]
        mem = Memory([4])
        return machines, mem

    # prefixes long enough that the single machine always finishes first
    r = probe_solo(factory, samples=20, bound=5, seed=0, prefix_max=0)
    # prefix_max=0 -> prefix empty -> machine unfinished, runs solo in 1 step
    assert r.trivial == 0 and r.max_steps == 1

    def factory_long(rng):
        machines, mem = factory(rng)
        run(machines, mem, [0, 0])  # pre-finish before the probe's prefix
        return machines, mem

    r2 = probe_solo(factory_long, samples=20, bound=5, seed=0)
    assert r2.trivial == 20 and r2.ok
