"""Machine-speed tracking, so that timings survive a host whose speed drifts.

On the shared 2-CPU host this benchmark was built on, other tenants change
the speed of pure-Python code by up to 2x over tens of seconds.  A
Speedometer times a fixed loop at checkpoints: at every pass boundary, and
inside a pass whenever a probe calls check() after INTERVAL_S of program
time.  Each stretch between two checkpoints gets the factor
REFERENCE_S / (mean loop time at its two ends), and reported durations are
raw durations times the factor of the stretch they fall in: seconds on a
machine where the loop takes REFERENCE_S.

Time spent in the loop itself is excluded: clock() runs only while the
program does, so pass and item durations read from it never include a
checkpoint.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

REFERENCE_S = 0.09
INTERVAL_S = 1.0


def _loop() -> int:
    seen: dict = {}
    acc = 0
    for i in range(15_000):
        key = (i & 255, i >> 8)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc ^ (key[0] << 3) ^ len(seen)) & 0xFFFF
    return acc


def machine_time() -> float:
    """Time of twelve runs of a fixed pure-Python loop (about 0.1 s), with
    the cyclic collector held off so the loop leaves the program's
    collection schedule alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(12):
            _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    def __init__(self):
        machine_time()  # warm-up: the first loops after start-up run slow
        self.paused = 0.0
        self.times: list[float] = []  # checkpoint positions on clock()
        self.loops: list[float] = []  # machine_time() at each checkpoint
        self.checkpoint()

    def clock(self) -> float:
        """perf_counter() minus all time spent in checkpoints."""
        return perf_counter() - self.paused

    def checkpoint(self) -> None:
        t0 = perf_counter()
        self.times.append(t0 - self.paused)
        self.loops.append(machine_time())
        self.paused += perf_counter() - t0

    def check(self) -> None:
        """Checkpoint if INTERVAL_S of program time passed since the last."""
        if self.clock() - self.times[-1] >= INTERVAL_S:
            self.checkpoint()

    def factor(self, t: float) -> float:
        """Speed factor of the stretch holding clock() time t."""
        i = min(max(bisect.bisect_right(self.times, t), 1), len(self.times) - 1)
        return REFERENCE_S / ((self.loops[i - 1] + self.loops[i]) / 2)

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] on clock(), each stretch scaled."""
        total = 0.0
        edges = [start] + [t for t in self.times if start < t < end] + [end]
        for a, b in zip(edges, edges[1:]):
            total += (b - a) * self.factor(a)
        return total
