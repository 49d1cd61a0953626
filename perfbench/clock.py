"""Host time scaled to a reference speed.

The benchmark runs on a shared 2-CPU box whose speed swings by up to 2x
for seconds to minutes at a time: the same job's raw wall time moved by
20-25% (quartile distance over median) between runs a minute apart.  So
every PROBE_EVERY_S of work the benchmark times a fixed pure-Python loop,
the probe, and scales each stretch of host time between two probes by
PROBE_NOMINAL_S over the mean of those two probe times.  A scaled time
reads as seconds at the probe's nominal speed: a change to tasim moves it
as it moves raw host time, while a stretch in which the whole box runs
slower moves it far less.  Probe time itself is left out.  The probe uses
nothing from tasim, so no change to the library can change it.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_right
from time import perf_counter

PROBE_EVERY_S = 0.1
PROBE_LOOPS = 15_000
PROBE_NOMINAL_S = 0.001  # the probe's typical time on a 2-CPU x86 box


def _probe_loop(n: int) -> int:
    x = 0
    for i in range(n):
        x += i & 7
    return x


class Clock:
    """Probe log of one process; converts raw intervals to scaled seconds."""

    def __init__(self, span=lambda name: contextlib.nullcontext()):
        self.span = span  # probes are traced, so layer self times exclude them
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.next_at = 0.0

    def probe(self) -> None:
        with self.span("bench.probe"):
            t0 = perf_counter()
            _probe_loop(PROBE_LOOPS)
            t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.factors.append(PROBE_NOMINAL_S / (t1 - t0))
        self.next_at = t1 + PROBE_EVERY_S

    def tick(self) -> None:
        """Probe when the last probe is old; call between units of work."""
        if perf_counter() >= self.next_at:
            self.probe()

    def _factor(self, k: int) -> float:
        """Scale of the stretch between probe k-1 and probe k."""
        if k == 0:
            return self.factors[0]
        if k == len(self.factors):
            return self.factors[-1]
        return (self.factors[k - 1] + self.factors[k]) / 2

    def scaled(self, a: float, b: float, scale: bool = True) -> float:
        """Seconds of [a, b] outside probes, scaled unless `scale` is off."""
        k = bisect_right(self.starts, a)
        t = max(a, self.ends[k - 1]) if k else a
        total = 0.0
        while t < b:
            stop = self.starts[k] if k < len(self.starts) else b
            total += (min(b, stop) - t) * (self._factor(k) if scale else 1.0)
            if stop >= b:
                break
            t = self.ends[k]
            k += 1
        return total
