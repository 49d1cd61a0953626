"""History checkers: TAS verdicts, brute-force linearizability, solo probes."""

import random

import pytest

from tasim.shm import Event, History, Memory, StepMachine, run
from tasim.verify import (
    SearchBudgetExceeded,
    SnapshotSequential,
    TasSequential,
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
        run(machines, mem, [0, 0], record=False)  # pre-finish before the probe's prefix
        return machines, mem

    r2 = probe_solo(factory_long, samples=20, bound=5, seed=0)
    assert r2.trivial == 20 and r2.ok
