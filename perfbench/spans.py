"""Spans, counts and pass-through counting wrappers for the traced run.

Spans are recorded only here, around the benchmark's own calls into each
tasim module, and kept in memory until the run ends.  Counting wrappers
forward every call unchanged, so a traced job executes exactly the steps of
the untraced one; run.py checks this by comparing the two fingerprints.
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one call, nothing is wrapped or recorded."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN

    def coin_rngs(self, n: int, seed: int):
        return None


class _Span:
    __slots__ = ("tracer", "name", "idx", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr.open.append(self.idx)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.open.pop()
        parent = tr.open[-1] if tr.open else -1
        tr.spans[self.idx] = (self.name, self.start, end, parent)
        return False


class Tracer:
    """Tracing on: records spans (name, start, end, parent) and counts."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def process_rng(self, factory):
        """Wrap RandTas.process_rng so each process gets a counting coin."""
        return lambda pid: CountingCoin(factory(pid), self.counts)

    def coin_rngs(self, n: int, seed: int):
        """Counting coins with wrapped_tas_system's own seed strings."""
        return {
            p: CountingCoin(random.Random(f"coin:{seed}:{p}"), self.counts)
            for p in range(n)
        }

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        total: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total


class CountingCoin:
    """Forwards randrange/getrandbits; counts wrapper coin flips and heads.

    `randomized.wrap` flips with randrange(n) and reads 0 as heads; the
    group-wise sifters draw levels with getrandbits, which is forwarded
    uncounted.
    """

    __slots__ = ("rng", "counts")

    def __init__(self, rng, counts: Counter):
        self.rng = rng
        self.counts = counts

    def randrange(self, n: int) -> int:
        r = self.rng.randrange(n)
        self.counts["randomized.flips"] += 1
        if r == 0:
            self.counts["randomized.heads"] += 1
        return r

    def getrandbits(self, k: int) -> int:
        return self.rng.getrandbits(k)


@contextlib.contextmanager
def counting_scans(snapshot_cls, counts: Counter):
    """Patch BoundedSnapshot.scan_steps to count scans and scan attempts.

    An attempt starts with the scanner's write of the handshake register S,
    so S writes issued inside scan_steps are the attempts.  Every yielded
    step and every response is forwarded unchanged.
    """
    original = snapshot_cls.scan_steps

    def scan_steps(self, pid):
        counts["snapshot.scans"] += 1
        gen = original(self, pid)
        s_write = ("w", self.s_reg, pid)
        try:
            item = next(gen)
            while True:
                if item == s_write:
                    counts["snapshot.scan_attempts"] += 1
                item = gen.send((yield item))
        except StopIteration as stop:
            return stop.value

    snapshot_cls.scan_steps = scan_steps
    try:
        yield
    finally:
        snapshot_cls.scan_steps = original
