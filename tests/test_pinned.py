"""Pinned executions of the register-level builders and of the CLI.

Each builder digest is the sha256 of one run's full register trace and its
per-process results.  The register-level sifter and TAS builders run in no
benchmark workload, so these digests are what shows that a refactor of the
lowering path (codec, snapshot, register mapping, wrapper) left every
register access unchanged.  The CLI digests are the sha256 of `tasim`'s
stdout and of `--trace` exports of every object, so a refactor of the CLI
that changes a byte of its output fails them.
"""

import hashlib
import json
import random

import pytest

from tasim import cli
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
    "wrapped_short_blocks": "a8d7c75f8828a47ed00a93efcd218f2a6fef4ec30d61153f0a4ecc1299d367a4",
}


def _digest(memory, machines) -> str:
    assert all(m.done for m in machines)
    blob = json.dumps([memory.trace, [m.result for m in machines]])
    return hashlib.sha256(blob.encode()).hexdigest()


def _scheduled_then_drained(machines, memory, schedule) -> str:
    memory.record_trace = True
    run(machines, memory, schedule)
    drain(machines, memory, SOLO)
    return _digest(memory, machines)


def _live_uniform(machines, memory, seed: int) -> str:
    memory.record_trace = True
    run_live_uniform(machines, memory, random.Random(f"sched:{seed}"), LIVE_CAP)
    return _digest(memory, machines)


def test_sifter_system_pinned():
    machines, memory, _ = sifter_system(3)
    got = _scheduled_then_drained(machines, memory, make_schedule("random", 3, 600, seed=7))
    assert got == DIGESTS["sifter_system"]


def test_tas_system_pinned():
    machines, memory, _ = tas_system(3)
    got = _scheduled_then_drained(machines, memory, make_schedule("random", 3, 600, seed=7))
    assert got == DIGESTS["tas_system"]


def test_wrapped_tas_system_pinned():
    machines, memory, _ = wrapped_tas_system(4, b=1619, seed=3)
    assert _live_uniform(machines, memory, 3) == DIGESTS["wrapped_tas_system"]


def test_wrapped_blocks_shorter_than_a_scan_pinned():
    # b = 9 against 24-cell collects (a scan attempt is 50 steps): heads
    # blocks end inside most collects; the cap stops the run before its end
    machines, memory, _ = wrapped_tas_system(4, b=9, seed=6)
    memory.record_trace = True
    assert run_live_uniform(machines, memory, random.Random("sched:6"), 10_000) == 10_000
    blob = json.dumps([memory.trace, [(m.done, m.result, m.steps) for m in machines]])
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGESTS["wrapped_short_blocks"]


def test_rand_tas_pinned():
    rt = RandTas(16, seed=5)  # reaches LE2 stages 1 and 2
    assert _live_uniform(rt.machines(), rt.memory(), 5) == DIGESTS["rand_tas"]


def test_rand_tas_1024_pinned():
    # the live count falls through every power of two from 1024 to 1; most
    # callers leave at the doorway and two reach LE2, whose tails blocks
    # run while few processes are live
    rt = RandTas(1024, seed=1)
    assert _live_uniform(rt.machines(), rt.memory(), 1) == DIGESTS["rand_tas_1024"]


CLI_DIGESTS = {
    "simulate --object sifter --n 7 --trials 20 --seed 3":
        "868d43a45b00020d7c540b859a75698f02029c2f3282d2670c06deb60fc46c1d",
    "simulate --object sifter --n 7 --trials 20 --seed 3 --schedule rr":
        "154c51712371ef0a431a05d9bcb9de2a3c1cc42e1c7ce99b69252b7d648db568",
    "simulate --object sifter --n 7 --trials 20 --seed 3 --schedule solo --burst 3":
        "154c51712371ef0a431a05d9bcb9de2a3c1cc42e1c7ce99b69252b7d648db568",
    "simulate --object snapshot --n 3 --trials 5 --seed 3":
        "95a3d1b8dda6e162da4570e8ca5e58dbb04de33c864013b67122e80a216a04db",
    "simulate --object tas_det --n 7 --trials 20 --seed 3":
        "d4b759aac25fbc10ade01371cb22e00392bc78e5a4f6ae86e0703790943205f5",
    "simulate --object tas_det --n 7 --trials 20 --seed 3 --schedule rr":
        "7dec8eb8de80c1d46e6e3b42f993005c9469c787de3243da7e825c8e398aeede",
    "simulate --object tas_det --n 7 --trials 20 --seed 3 --schedule solo --burst 3":
        "7dec8eb8de80c1d46e6e3b42f993005c9469c787de3243da7e825c8e398aeede",
    "simulate --object tas_rand --n 8 --trials 3 --seed 1":
        "3a9c2fce08287f27b19d062fa87ff85a65503b3fee3d2e1a55ff5227736eb400",
    "simulate --object wrapped --n 3 --trials 2 --seed 1":
        "438e748377f106a4867b60ff8f50ede21b7286bf3581a23a377ad65361157440",
    "simulate --object wrapped --n 3 --trials 2 --seed 1 --b 37":
        "6402a988cc8037dc776114890550cc5bf72f47b638e6934bc78ee2b81d599980",
    "sweep --object tas_det --n-list 4,8 --trials 10 --seed 0":
        "c910047decdf389db77585dbba1042b9c40fc76ff28b321b19a0b595362cd96f",
    "sweep --object tas_rand --n-list 4,16 --trials 5 --seed 0":
        "f63b4e9783c1863574447709dfe313fec5ab43175cb555a2b5088ebf3cecf78b",
}

# --trace exports of every object; sifter and tas_det re-run their trial at
# register level under every schedule kind, which the builder digests above
# do not; snapshot's rr and solo --burst 2 runs print the same line, so only
# their traces tell them apart
TRACE_DIGESTS = {
    "simulate --object sifter --n 3 --trials 1 --seed 2 --schedule solo --burst 3":
        "c30b4d0c9d87fbf67dcba7e9e94fb6dbd65523c9e08929ce7f362cc3ad58c6fe",
    "simulate --object sifter --n 3 --trials 1 --seed 2 --schedule random":
        "c5d109fdd811a4ea3ab6f098946208af996e2ec724d9b2bf1287c5b6e3f01c87",
    "simulate --object snapshot --n 3 --trials 1 --seed 2":
        "d426d39b39a37515311e6d52fa2775d072c99c0127921b101d1e0eded067dfb8",
    "simulate --object snapshot --n 3 --trials 1 --seed 2 --schedule rr":
        "f2d6a10b033a4ae3d8cbfd84d1117eb7d04280c995aaad9e406071b1c872e9b9",
    "simulate --object snapshot --n 3 --trials 1 --seed 2 --schedule solo --burst 2":
        "2da02e523bc2510ab4fd459e793b7971d23b9b393f77c03d7c790c7648a91485",
    "simulate --object tas_det --n 3 --trials 1 --seed 2 --schedule rr":
        "b70f68883412acd7ee77b0b157198cc53c9d556dbb4e9a4bf63c6cb9ea29be0c",
    "simulate --object tas_det --n 3 --trials 1 --seed 2 --schedule solo --burst 3":
        "f888c47ee1bff8f6e663bcfb31053ebec444d2bfeac1498222f95dd20f64210b",
    "simulate --object tas_rand --n 8 --trials 1 --seed 2":
        "62f1e71f912d526c527567479fe9f3b85ed20c5ec60e8bd90fb22bc006fdadd2",
    "simulate --object wrapped --n 3 --trials 1 --seed 2":
        "e53f860ea0186c27cf4e1a06fc11e5d5b31efa124dfff0ce220fd91faa8aaf38",
}


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
def test_cli_stdout_pinned(argv, capsys):
    assert cli.main(argv.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == CLI_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(TRACE_DIGESTS))
def test_cli_trace_pinned(argv, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert cli.main(argv.split() + ["--trace", str(trace)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_DIGESTS[argv]
