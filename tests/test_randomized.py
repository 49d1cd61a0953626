"""Coin-block wrapper: pass-through equality, dummy blocks, coin cadence."""

import random

import pytest

from tasim.randomized import HeadsRng, TailsRng, wrap, wrapped_tas_system
from tasim.shm import History, Memory, StepMachine, drain, make_schedule, run, run_live_uniform
from tasim.tas_det import solo_step_bound, tas_system
from tasim.verify import check_tas


class SeqRng:
    """Scripted coin: pops provided draws, then heads forever."""

    def __init__(self, vals):
        self.vals = list(vals)

    def randrange(self, n):
        return self.vals.pop(0) if self.vals else 0


class CountingRng:
    """Wraps an rng and counts draws; audits when coins are drawn."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        return self.rng.randrange(n)


SOLO_STEPS_N2 = 337  # 1 doorway read + 2 levels * (6 updates + 6 scans of 26)


def test_all_heads_equals_unwrapped_trace_for_trace():
    n = 3
    sched = make_schedule("random", n, 900, seed=21)

    plain, mem_plain, logics_plain = tas_system(n)
    mem_plain.record_trace = True
    run(plain, mem_plain, sched)

    wrapped, mem_wrapped, logics_wrapped = wrapped_tas_system(
        n, b=50, coin_rngs={p: HeadsRng() for p in range(n)}
    )
    mem_wrapped.record_trace = True
    run(wrapped, mem_wrapped, sched)

    assert mem_wrapped.trace == mem_plain.trace
    assert [lg.result for lg in logics_wrapped] == [lg.result for lg in logics_plain]
    assert [m.steps for m in wrapped] == [m.steps for m in plain]


def test_all_tails_never_advances_the_program():
    n = 2
    machines, memory, logics = wrapped_tas_system(
        n, b=9, coin_rngs={p: TailsRng() for p in range(n)}
    )
    memory.record_trace = True
    run(machines, memory, make_schedule("rr", n, 300))
    assert all(not m.done for m in machines)
    assert all(lg.stage == "dr" for lg in logics)  # still before the doorway
    assert len(memory.trace) == 300
    assert all(kind == "R" and reg == 0 for (_, _, kind, reg, _) in memory.trace)
    assert memory.regs == [0] * len(memory.regs)  # dummies write nothing


def test_coin_drawn_before_first_step_and_every_b_steps():
    b = 7
    coins = {0: CountingRng(HeadsRng()), 1: CountingRng(HeadsRng())}
    machines, memory, logics = wrapped_tas_system(2, b=b, coin_rngs=coins)
    run(machines, memory, [0] * 400)
    assert machines[0].done and machines[0].steps == SOLO_STEPS_N2
    # draws at steps 0, b, 2b, ...: one more than full blocks completed
    assert coins[0].draws == (SOLO_STEPS_N2 - 1) // b + 1
    # poising the first op draws the first coin, even when never scheduled;
    # coins are independent of the schedule, so the timing is unobservable
    assert coins[1].draws == 1


def test_tails_block_costs_exactly_b_dummy_reads():
    b = 10
    coins = {0: SeqRng([1]), 1: HeadsRng()}
    machines, memory, logics = wrapped_tas_system(2, b=b, coin_rngs=coins)
    memory.record_trace = True
    run(machines, memory, [0] * 500)
    m = machines[0]
    assert m.done and logics[0].result == 0
    assert m.steps == b + SOLO_STEPS_N2
    head = memory.trace[:b]
    assert all(kind == "R" and reg == 0 for (_, _, kind, reg, _) in head)


def test_wrapped_runs_complete_and_linearize():
    for seed in range(5):
        n = 4
        machines, memory, logics = wrapped_tas_system(n, seed=seed)
        h = History()
        run_live_uniform(machines, memory, random.Random(seed), 5_000_000, history=h)
        assert all(m.done for m in machines)
        assert sorted(lg.result for lg in logics) == [0, 1, 1, 1]
        assert check_tas(h).ok


def test_coin_mapping_must_hold_every_pid():
    # an empty or partial mapping raises instead of falling back to seeded coins
    for coins in ({}, {0: HeadsRng()}):
        with pytest.raises(KeyError):
            wrapped_tas_system(2, coin_rngs=coins)


def test_default_block_length_is_the_solo_bound():
    # a lone all-heads process must finish within one block: real steps only
    machines, memory, logics = wrapped_tas_system(1)
    drain(machines, memory, solo_step_bound(1))
    assert machines[0].done and logics[0].result == 0
    assert machines[0].steps <= solo_step_bound(1)


def test_wrap_validates_parameters():
    def prog():
        yield ("r", 0)

    with pytest.raises(ValueError):
        next(wrap(prog(), 0, 5, HeadsRng()))
    with pytest.raises(ValueError):
        next(wrap(prog(), 2, 0, HeadsRng()))
    # a fractional block length would count past 0 and stop flipping coins
    with pytest.raises(ValueError, match="integers"):
        next(wrap(prog(), 2, 2.5, HeadsRng()))
    with pytest.raises(ValueError, match="integers"):
        next(wrap(prog(), 2.0, 3, HeadsRng()))


def test_wrap_passes_through_immediate_return():
    def prog():
        if False:
            yield
        return 42

    gen = wrap(prog(), 2, 3, HeadsRng())
    with pytest.raises(StopIteration) as ei:
        next(gen)
    assert ei.value.value == 42


def test_wrap_forwards_bookkeeping_without_spending_block_budget():
    def prog():
        yield ("inv", "tas", ())
        yield ("r", 5)
        yield ("res", 1)
        return 1

    rng = CountingRng(HeadsRng())
    gen = wrap(prog(), 2, 4, rng)
    items = []
    try:
        item = gen.send(None)
        while True:
            items.append(item)
            item = gen.send(0 if item[0] == "r" else None)
    except StopIteration as e:
        assert e.value == 1
    assert items == [("inv", "tas", ()), ("r", 5), ("res", 1)]
    assert rng.draws == 1  # only the real shared step consulted the coin


def test_tails_rng_degenerate_n1():
    assert TailsRng().randrange(1) == 0  # heads probability 1/n is 1 here
    assert TailsRng().randrange(5) == 4


def test_tails_block_resumes_the_wrapped_generator_once():
    b = 10
    ops = []  # shared ops the wrapped generator yields, one per resume

    def inner():
        v = yield ("r", 1)
        return v

    def counted(gen):
        item = gen.send(None)
        while True:
            ops.append(item)
            try:
                item = gen.send((yield item))
            except StopIteration as e:
                return e.value

    m = StepMachine(0, counted(wrap(inner(), 2, b, SeqRng([1, 1]))))
    memory = Memory([1, 4], record_trace=True)
    memory.regs[1] = 3
    run([m], memory, [0] * (2 * b + 5))
    assert m.done and m.result == 3 and m.steps == 2 * b + 1
    # two tails blocks, one op each, then the real read
    assert ops == [("c", ("r", 0), b), ("c", ("r", 0), b), ("r", 1)]
    assert [(kind, reg) for (_, _, kind, reg, _) in memory.trace] == [("R", 0)] * (2 * b) + [
        ("R", 1)
    ]


class SlotRecorder:
    """Scripted coin that records, at each draw, how many steps its
    process had taken: the slot the coin is flipped at."""

    def __init__(self, vals, memory):
        self.vals, self.memory, self.at = list(vals), memory, []

    def randrange(self, n):
        self.at.append(len(self.memory.trace))
        return self.vals.pop(0) if self.vals else 0


def test_a_collect_straddling_a_heads_block_flips_where_single_reads_do():
    reads = tuple(("r", r) for r in (1, 2, 1, 3, 2, 1, 3))

    def inner(whole):
        yield ("w", 3, 4)
        if whole:
            c1 = yield ("c", reads, None)
            same = yield ("c", reads, c1)
        else:
            c1 = ()
            for op in reads:
                c1 += ((yield op),)
            same = True
            for op, v in zip(reads, c1):
                same = (yield op) == v and same
        yield ("w", 2, 1)
        return c1, same

    runs = []
    for b in (1, 2, 3, 5, 7, 20):
        for whole in (False, True):
            memory = Memory([8] * 4, record_trace=True)
            memory.regs[1] = 6
            coin = SlotRecorder([1, 0, 2, 1, 0, 0, 3, 0, 1, 1, 0], memory)
            m = StepMachine(0, wrap(inner(whole), 4, b, coin))
            run([m], memory, [0] * 400)
            assert m.done
            runs.append((memory.trace, coin.at, m.result, m.steps))
        assert runs[-1] == runs[-2], b
    assert runs[0][2] == ((6, 0, 6, 4, 0, 6, 4), True)


def test_wrapped_run_untraced_equals_traced():
    # untraced, run_live_uniform counts tails blocks down in place and in bulk
    outs = []
    for traced in (True, False):
        machines, memory, _ = wrapped_tas_system(4, b=1619, seed=2)
        memory.record_trace = traced
        h = History()
        run_live_uniform(machines, memory, random.Random(2), 50_000_000, history=h)
        assert all(m.done for m in machines)
        outs.append((h.events, [(m.steps, m.result) for m in machines], memory.regs))
    assert outs[0] == outs[1]
