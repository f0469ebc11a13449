"""Rescaling of timed work to a fixed machine speed.

The benchmark runs on shared machines whose speed drifts with the load of
other tenants: the same training step takes 0.6 s in one minute and 0.9 s
in the next, and a slow spell can outlast a whole run. Every piece of code
slows down together, so `SpeedProbe` times a fixed pure-Python loop at short
intervals while the workload runs, and rescales each stretch of the
workload's time between two probes by how slow the loop ran around it.

The result is the time the workload would take on this machine when the
loop takes `REF_S`, its duration when nothing else contends: the figures
read as those of an uncontended machine. Wall times are kept beside them.

The loop only measures the machine if the program leaves it alone while it
runs: `interference` lists anything of the program's that would slow the
loop too (another Python thread, a trace or profile hook), which the caller
reports as a failed check.
"""

from __future__ import annotations

import statistics
import sys
import threading
from time import perf_counter

from tracing import Patcher

REF_ITERATIONS = 10_000
REF_S = 0.6e-3          # the loop's duration on an uncontended 2.1 GHz Xeon core
EVERY_S = 0.05          # the shortest gap between two probes
NEIGHBOURS = 5          # probes whose median sets a stretch's speed


def reference_loop() -> None:
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i


class SpeedProbe:
    """Times `reference_loop` on entering and leaving its ``with`` block and,
    inside it, before calls of the watched program functions, at most every
    `EVERY_S` seconds.

    ``watched`` holds ``(module, name, ...)`` tuples: functions called often
    enough that no stretch between probes is much longer than `EVERY_S`.
    """

    def __init__(self, watched=()):
        self.watched = watched
        self.runs: list[tuple[float, float]] = []   # (start, end) of each loop
        self.interference: set[str] = set()
        self._next = 0.0
        self._patcher = Patcher()

    def _probe(self) -> None:
        if threading.active_count() > 1:
            self.interference.add(f"{threading.active_count()} Python threads")
        if sys.gettrace() is not None or sys.getprofile() is not None:
            self.interference.add("a trace or profile hook")
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.runs.append((start, end))
        self._next = end + EVERY_S

    def _watch(self, module, name: str) -> None:
        def make(fn):
            def probed(*args, **kwargs):
                if perf_counter() >= self._next:
                    self._probe()
                return fn(*args, **kwargs)
            return probed
        self._patcher.replace(module, name, make)

    def __enter__(self):
        for module, *names in self.watched:
            for name in names:
                self._watch(module, name)
        self._probe()
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        self._probe()
        return False

    def scaled_s(self) -> float:
        """Time of the workload between the first and the last probe,
        probes excluded, each stretch between two probes scaled by
        ``REF_S`` over the median loop time of the `NEIGHBOURS` probes
        around it."""
        loops = [end - start for start, end in self.runs]
        half = NEIGHBOURS // 2
        total = 0.0
        for j in range(len(self.runs) - 1):
            lo = max(0, min(j - half + 1, len(loops) - NEIGHBOURS))
            speed = REF_S / statistics.median(loops[lo:lo + NEIGHBOURS])
            total += (self.runs[j + 1][0] - self.runs[j][1]) * speed
        return total

    def wall_s(self) -> float:
        """Wall time between the first and the last probe, probes excluded."""
        return sum(b[0] - a[1] for a, b in zip(self.runs, self.runs[1:]))

    def summary(self) -> dict:
        loops = sorted(end - start for start, end in self.runs)
        return {"probes": len(loops), "loop_ms_median": 1e3 * statistics.median(loops),
                "loop_ms_min": 1e3 * loops[0], "ref_ms": 1e3 * REF_S}
