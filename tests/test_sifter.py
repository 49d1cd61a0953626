"""Sifter: winner bounds, solo costs, knockout necessity, codecs."""

import itertools
import random

import pytest

from tasim.atomic import explore
from tasim.shm import drain, make_schedule, run
from tasim.sifter import (
    B_EMPTY,
    LOSE,
    S_MAX,
    WIN,
    NaiveSifterLogic,
    SifterLogic,
    _first_other,
    _outnumbered,
    _pos_rule,
    _rival_twice,
    sifter_machines,
    sifter_snapshot,
    sifter_store,
    sifter_system,
    value_bits,
)
from tasim.tas_det import f
from tasim.verify import probe_solo


def test_helpers():
    assert not _outnumbered((0, 1, None), 0)
    assert _outnumbered((1, 1, 0), 0)
    assert not _outnumbered((None, None, 0), 0)  # None is not a competitor
    assert _pos_rule((5, None, None), 5) == 1
    assert _pos_rule((5, 5, None), 5) == 2
    assert _pos_rule((5, 3, 5), 5) == 1
    with pytest.raises(RuntimeError):
        _pos_rule((None, None, None), 5)  # p absent: no valid pos
    with pytest.raises(RuntimeError):
        _pos_rule((5, 5, 5), 5)  # p everywhere: no valid pos either


def test_solo_compete_wins_in_exactly_12_ops():
    m = SifterLogic(3)
    drain([m], sifter_store(), 50)
    assert m.result == WIN and m.steps == 12
    with pytest.raises(RuntimeError, match="advance on finished machine"):
        m.advance(None)
    # write A0, scan, knockout (3 writes + 3 scans), write A1, scan,
    # write A2, scan: the lone-entry signature sends it through B once


def test_solo_register_level_wins_in_96_steps():
    for n in (2, 4, 7):
        machines, memory, logics = sifter_system(n)
        m = machines[n - 1]
        drain([m], memory, 500)
        assert logics[n - 1].result == WIN
        # 6 updates (2 steps) + 6 scans (2*6+2 steps), independent of n
        assert m.steps == 6 * 2 + 6 * 14 == 96


def test_exhaustive_k2_exactly_one_winner():
    def make():
        return sifter_machines(range(2)), sifter_store()

    terminals, states = explore(make)
    # the exact merged space: a change to the engine or the decision logic
    # that merges or splits states shows here
    assert states == 1765
    assert terminals == {(WIN, LOSE): 41, (LOSE, WIN): 41}


def test_exact_solo_maximum_over_the_k2_closure():
    # from every state of the k=2 closure, each live machine runs alone to
    # its end; the longest such run is the exact solo maximum at k=2, the
    # same 12 ops as a fresh solo compete, well inside S_MAX
    solo = []

    def drain_each(machines, store):  # shared representatives: drain clones
        for m in machines:
            if not m.done:
                c = m.clone()
                drain([c], store.clone(), S_MAX)
                solo.append(c.steps - m.steps)

    _, states = explore(lambda: (sifter_machines(range(2)), sifter_store()), drain_each)
    assert states == 1765 and max(solo) == 12


def test_random_schedules_respect_winner_bounds():
    rng = random.Random(12)
    for trial in range(300):
        k = rng.randrange(2, 6)
        machines = sifter_machines(range(k))
        store = sifter_store()
        sched = [rng.randrange(k) for _ in range(rng.randrange(5, 60 * k))]
        run(machines, store, sched)
        drain(machines, store, S_MAX)
        wins = sum(1 for m in machines if m.result == WIN)
        loses = sum(1 for m in machines if m.result == LOSE)
        assert 1 <= wins <= f(k), f"trial {trial}: {wins} wins with k={k}"
        assert wins + loses == k


# The decision helpers as first written, with generators: the oracle for
# the count- and index-based versions the sifter now uses.


def _old_num(v, xs):
    return sum(1 for x in xs if x == v)


def _old_pos_rule(a, p):
    cands = [i for i in range(3) if a[i] != p and a[(i - 1) % 3] == p]
    if len(cands) != 1:
        raise RuntimeError(f"pos rule ambiguous: a={a!r} p={p}: {cands}")
    return cands[0]


def _old_outnumbered(a, p):
    mine = _old_num(p, a)
    return any(q is not None and q != p and _old_num(q, a) > mine for q in a)


def _old_rival_twice(b_hat, p, sig):
    return any(
        q is not None and q != p and _old_num((q, sig), b_hat) >= 2
        for (q, _) in b_hat
    )


def _old_first_other(b_hat, mine):
    return min(i for i in range(3) if b_hat[i] != mine)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError:
        return RuntimeError


def test_decision_helpers_match_generator_oracle():
    ids = (0, 1, 2)
    a_triples = list(itertools.product((None,) + ids, repeat=3))
    for a in a_triples:
        for p in ids:
            assert a.count(p) == _old_num(p, a)
            assert _outnumbered(a, p) == _old_outnumbered(a, p), (a, p)
            assert _outcome(_pos_rule, a, p) == _outcome(_old_pos_rule, a, p), (a, p)
    # B triples p can read at its knockout scan with signature sig (an A
    # triple holding p once): every entry is empty or (q, s) with q once in
    # s, where s is sig or one of q's first three signatures, so at least two
    # signatures per q other than sig tell equal entries from unequal ones
    checked = 0
    for p in ids:
        for sig in a_triples:
            if sig.count(p) != 1:
                continue
            mine = (p, sig)
            values = [B_EMPTY]
            for q in ids:
                own = [s for s in a_triples if s.count(q) == 1]
                values += [(q, s) for s in [sig] + own[:3] if s.count(q) == 1]
            values = list(dict.fromkeys(values))
            for b in itertools.product(values, repeat=3):
                assert b.count(mine) == _old_num(mine, b)
                assert _rival_twice(b, p, sig) == _old_rival_twice(b, p, sig), (b, p)
                if b.count(mine) != 3:
                    assert _first_other(b, mine) == _old_first_other(b, mine)
                checked += 1
    assert checked == 132_992


# Schedule found by breadth-first search over the knockout-free variant's
# state graph: it drives four of five processes to "win", exceeding the
# floor((2k+1)/3) = 3 cap that the full protocol enforces.
NAIVE_BREAKER = [0, 0, 1, 1, 1, 1, 1, 1, 0, 2, 0, 2, 0, 0, 0, 0,
                 2, 3, 2, 3, 2, 2, 2, 2, 3, 4, 3, 3, 3, 3, 3]


def test_knockout_phase_is_load_bearing():
    naive = [NaiveSifterLogic(p) for p in range(5)]
    store = sifter_store()
    run(naive, store, NAIVE_BREAKER)
    naive_wins = sum(1 for m in naive if m.result == WIN)
    assert naive_wins == 4 > f(5)

    full = sifter_machines(range(5))
    store2 = sifter_store()
    run(full, store2, NAIVE_BREAKER)
    drain(full, store2, S_MAX)
    wins = sum(1 for m in full if m.result == WIN)
    assert 1 <= wins <= f(5) == 3


def test_naive_variant_still_has_a_winner():
    # the fixture keeps not-all-lose; only the upper bound is broken
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randrange(2, 6)
        machines = [NaiveSifterLogic(p) for p in range(k)]
        store = sifter_store()
        run(machines, store, [rng.randrange(k) for _ in range(40)])
        drain(machines, store, 100)
        assert any(m.result == WIN for m in machines)


def test_solo_resume_bound_atomic():
    def factory(rng):
        k = rng.randrange(2, 6)
        machines = sifter_machines(range(k))
        return machines, sifter_store()

    rep = probe_solo(factory, samples=2000, bound=S_MAX, seed=31, prefix_max=200)
    assert rep.ok, rep.violations[:3]
    assert rep.max_steps <= S_MAX


def test_codec_roundtrip():
    # exhaustive over the reachable domain: an A value is an id, a B value is
    # (p, sig) with p in sig exactly once; everything else must be refused
    for n in range(1, 9):
        codec = sifter_snapshot(n).codec
        enc, dec, owner = codec.encode, codec.decode, codec.owner
        vb = value_bits(n)
        entries = [None] + list(range(n))
        for comp in (0, 2, 7):  # A components across two chained levels
            for p in range(n):
                w = enc(comp, p)
                assert 0 < w < (1 << vb)
                assert dec(comp, w) == p and owner(comp, w) == p
        codes = set()
        for p in entries:
            for sig in itertools.product(entries, repeat=3):
                v = (p, sig)
                if p is None or sig.count(p) != 1:
                    with pytest.raises(ValueError):
                        enc(3, v)
                    continue
                w = enc(3, v)
                assert 0 < w < (1 << vb)
                assert dec(3, w) == v and owner(3, w) == p
                assert enc(9, v) == w and dec(9, w) == v
                codes.add(w)
        assert len(codes) == 3 * n**3  # one-to-one
        for bad in ((n, (n, None, None)), (0, (0, n, None)), (0, (0, None))):
            with pytest.raises(ValueError):
                enc(3, bad)
        assert dec(0, 0) is None
        assert dec(3, 0) == B_EMPTY  # unwritten register reads as empty
        assert owner(0, 0) is None and owner(3, 0) is None


def test_owner_tagged_snapshot_refuses_foreign_values():
    n = 3
    snap = sifter_snapshot(n)
    enc = snap.codec.encode
    assert snap.cell_width == value_bits(n) + 1
    sub, parity = snap.update_steps(1, 0, enc(0, 1), 0)
    assert len(list(sub)) == 2
    w = enc(3, (1, (1, 2, None)))
    assert snap.codec.owner(3, w) == 1
    for b in (0, 1, 0):  # an owner-tagged cell is (w << 1) | b
        sub, parity = snap.update_steps(1, 3, w, parity)
        steps = list(sub)
        assert steps == [("w", snap.s_reg, 1), ("w", snap.a_reg(3), (w << 1) | b)]
        assert steps[1][2] < 1 << snap.cell_width
    for comp, w in ((0, enc(0, 2)), (3, enc(3, (2, (2, 1, None)))), (0, 0), (3, 0)):
        with pytest.raises(ValueError, match="writer"):
            list(snap.update_steps(1, comp, w, parity))


def test_register_level_concurrent_outcomes():
    for seed in range(30):
        n = 3
        machines, memory, logics = sifter_system(n)
        sched = make_schedule("random", n, 250, seed=seed)
        run(machines, memory, sched)
        drain(machines, memory, 600)
        assert all(m.done for m in machines)
        wins = sum(1 for lg in logics if lg.result == WIN)
        assert 1 <= wins <= f(n)
