"""How fast the host runs right now, from a fixed pure-Python job.

The benchmark runs on shared hosts whose speed swings by up to 1.5x,
in runs of tens of milliseconds, with a mix of fast and slow that
drifts over minutes.  A fastest-of-N time does not see through that.
So after each item, off the clock, the benchmark runs the reference
job below for a time in proportion to the item's time.  The reference
job's mean time near an item (its own probe and WINDOW probes on each
side), over its nominal time, is the slowdown the item ran at, and the
item's time is divided by it.  The job uses the same kinds of
operation as gracetree (small ints, tuples, lists, dicts, calls), so
both slow down alike.
"""

from __future__ import annotations

import time

# Mean seconds of one reference chunk on a shared 2-vCPU x86-64 VM
# running CPython 3.11, about the median over 170 passes of forty runs.
# Its fastest passes ran the chunk in 0.36 ms, its slowest in 0.73 ms.
NOMINAL_CHUNK_S = 0.00055
# Reference time run after an item, as a share of the item's time.
SHARE = 0.15
# Probes on each side of an item that its slowdown is taken over.
WINDOW = 2


def _chunk() -> int:
    seen: dict = {}
    stack = [(0, 1)]
    total = 0
    for i in range(480):
        a, b = stack[-1]
        key = (a + i) % 37, b % 11
        seen[key] = seen.get(key, 0) + 1
        stack.append((b, (a + b + i) % 1009))
        if len(stack) > 8:
            total += max(stack)[1] - min(stack)[0]
            del stack[1:5]
        total += _step(a, b)
    return total + len(seen)


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 255 if a < b else abs(a - b)


class SpeedProbe:
    """Reference times, one probe per item, over one pass."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, int]] = []  # (seconds, chunks)

    def after_item(self, item_s: float) -> None:
        k = max(1, round(item_s * SHARE / NOMINAL_CHUNK_S))
        perf = time.perf_counter
        t0 = perf()
        for _ in range(k):
            _chunk()
        self.probes.append((perf() - t0, k))

    def slowdown(self) -> float:
        """Mean chunk time over the pass, over its nominal time: 1 at the
        usual speed."""
        return _slowdown(self.probes)

    def item_slowdowns(self) -> list[float]:
        """The slowdown around each item, in item order."""
        p = self.probes
        return [_slowdown(p[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(p))]


def _slowdown(probes: list[tuple[float, int]]) -> float:
    return sum(s for s, _ in probes) / sum(k for _, k in probes) / NOMINAL_CHUNK_S
