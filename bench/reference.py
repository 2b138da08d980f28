"""A fixed pure-Python kernel that measures how fast the machine runs right now.

On a shared host the speed of a core swings by half or more for minutes at a
time, as other tenants load it; no run length averages that away.  The
benchmark runs this kernel right before every timed op, on the same CPU,
and reports the op's time as a multiple of the kernel's time around it,
scaled by ``REFERENCE_S``.  Both slow down together, so the figure
holds still while the raw wall time swings.

The kernel does the kinds of work the program's inner loops do: float
arithmetic, small objects with slots, list appends and indexing, ``bisect``
lookups, a bounded heap, dict construction.  It never imports ``ccbound``, so
a change to the program leaves it alone and shows in full in the figures.
Changing the kernel or ``REFERENCE_S`` changes every timing the benchmark
reports; do it only with a new ``BENCH_VERSION``.
"""

from __future__ import annotations

import bisect
import heapq
import math
import statistics
import time

# The scale of every reported time: the kernel's wall time on an unloaded core
# of a 2-core Intel Xeon VM at 2.0 GHz under CPython 3.11 (4.3-5.2 ms there).
# Reported times are wall times at that speed.
REFERENCE_S = 0.005
CELLS = 3000
# Kernel runs on either side of an op's own that estimate the machine's speed
# during the op.
WINDOW = 8


class _Cell:
    __slots__ = ("t", "rate", "bits")

    def __init__(self, t: float, rate: float, bits: float):
        self.t = t
        self.rate = rate
        self.bits = bits


def kernel(n: int = CELLS) -> float:
    cells = []
    x = 0.5
    for i in range(n):
        x = 3.9 * x * (1.0 - x)  # logistic map: a float stream without a library
        cells.append(_Cell(i * 0.01, 10e6 + 90e6 * x, 0.0))
    times = [c.t for c in cells]
    heap: list = []
    total = 0.0
    for i, c in enumerate(cells):
        j = bisect.bisect_right(times, c.t + 0.005 * (i % 7)) - 1
        c.bits = total = total + c.rate * 0.01
        heapq.heappush(heap, (c.rate, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        d = {"t": c.t, "j": j, "r": math.sqrt(c.rate)}
        total += d["r"] * 1e-9
    return total


def run() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at reference speed, given the kernel's times around it."""
    return wall / ((before + after) / 2) * REFERENCE_S


def local_times(times: list[float]) -> list[float]:
    """For each kernel run, the median of the runs up to WINDOW away from it.

    One kernel run lasts milliseconds and an op up to a second, and bursts
    of contention come and go within that: the runs around an op estimate
    the machine's speed over the op better than the one right before it.
    """
    return [statistics.median(times[max(0, j - WINDOW):j + WINDOW + 1])
            for j in range(len(times))]


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``: the interquartile mean."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)
