"""Pinned executions of the register-level builders.

Each digest is the sha256 of one run's full register trace and its
per-process results.  The register-level sifter and TAS builders run in no
benchmark workload, so these digests are what shows that a refactor of the
lowering path (codec, snapshot, register mapping, wrapper) left every
register access unchanged.
"""

import hashlib
import json
import random

from tasim.randomized import wrapped_tas_system
from tasim.shm import drain, make_schedule, run, run_live_uniform
from tasim.sifter import sifter_system
from tasim.tas_det import tas_system
from tasim.tas_rand import RandTas

SOLO = 100_000  # solo burst that finishes any unfinished process
LIVE_CAP = 50_000_000
DIGESTS = {
    "sifter_system": "f3a83429337ea091a2f25aaf05e055dff62a224b970231973af56c37c1e212c9",
    "tas_system": "b22d0f1f0e9b27a6ca2921701814a73e2fd4719f931941fe6c0d5bc3c1d07e14",
    "wrapped_tas_system": "03ed0fd06546df87c44f0f9c9f483748e547092e8e1e36e8802c6a249762afca",
    "rand_tas": "09256fd70fa6029fa36b60a7b310137bd57dbc04f49d33fc326f3fd025bd5936",
    "rand_tas_1024": "e9ab954a5b8addb54a32db274f93dad6308f87b154923b999c1520353c41b93e",
}


def _digest(memory, machines) -> str:
    assert all(m.done for m in machines)
    blob = json.dumps([memory.trace, [m.result for m in machines]])
    return hashlib.sha256(blob.encode()).hexdigest()


def _scheduled_then_drained(machines, memory, schedule) -> str:
    _, t = run(machines, memory, schedule, record=False)
    drain(machines, memory, SOLO, t=t)
    return _digest(memory, machines)


def _live_uniform(machines, memory, seed: int) -> str:
    memory.record_trace = True
    run_live_uniform(machines, memory, random.Random(f"sched:{seed}"), LIVE_CAP)
    return _digest(memory, machines)


def test_sifter_system_pinned():
    machines, memory, _, _ = sifter_system(3, record_trace=True)
    got = _scheduled_then_drained(machines, memory, make_schedule("random", 3, 600, seed=7))
    assert got == DIGESTS["sifter_system"]


def test_tas_system_pinned():
    machines, memory, _, _ = tas_system(3, record_trace=True)
    got = _scheduled_then_drained(machines, memory, make_schedule("random", 3, 600, seed=7))
    assert got == DIGESTS["tas_system"]


def test_wrapped_tas_system_pinned():
    machines, memory, _ = wrapped_tas_system(4, b=1619, seed=3)
    assert _live_uniform(machines, memory, 3) == DIGESTS["wrapped_tas_system"]


def test_rand_tas_pinned():
    rt = RandTas(16, seed=5)  # reaches LE2 stages 1 and 2
    assert _live_uniform(rt.machines(), rt.memory(), 5) == DIGESTS["rand_tas"]


def test_rand_tas_1024_pinned():
    # the live count falls through every power of two from 1024 to 1; most
    # callers leave at the doorway and two reach LE2, whose tails blocks
    # run while few processes are live
    rt = RandTas(1024, seed=1)
    memory = rt.memory(record_trace=True)
    assert _live_uniform(rt.machines(), memory, 1) == DIGESTS["rand_tas_1024"]
