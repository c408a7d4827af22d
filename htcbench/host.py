"""Host-speed calibration for the benchmark's wall-clock metrics.

On a shared VM the host's speed swings by up to 2x within minutes (wall
time equals CPU time there, so it is not preemption: the same
instructions simply take longer). A fixed pure-Python loop, timed right
after each measured interval, tracks those swings. Scaling the interval
by ``REFERENCE_S / loop time`` reports it in *reference seconds*: what
it would have taken on a host that runs the loop in ``REFERENCE_S``.
A program change moves reference seconds exactly as it moves raw
seconds; a host slowdown moves the loop and the interval together and
cancels. Raw seconds are printed next to every normalized metric.

The loop's working set is a few hundred bytes on purpose. A loop that
scans a large structure runs cold after each simulated step, so its
time would depend on how much of the cache the program just used, and
a program change would move the calibration along with the metric.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: The loop's time on the reference host (a 2-core x86-64 VM, quiet).
REFERENCE_S = 3.0e-4

#: Calibration samples on either side of a step that smooth its factor.
WINDOW = 4


def calibrate() -> float:
    """Time one pass of the loop: dict, heap and call traffic like the
    simulator's own inner loops, about 0.3 ms on the reference host."""
    started = time.perf_counter()
    table: dict = {}
    heap: List[tuple] = []
    get = table.get
    for i in range(500):
        key = i & 63
        table[key] = get(key, 0) + i
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return time.perf_counter() - started


def factor() -> float:
    """Reference seconds per raw second, right now (median of three)."""
    return REFERENCE_S / statistics.median(calibrate() for _ in range(3))


def step_factors(samples: List[float]) -> List[float]:
    """Per-step factors from one calibration sample per step, each the
    median of a window of neighbouring samples (one sample is noisy)."""
    return [
        REFERENCE_S
        / statistics.median(samples[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(samples))
    ]
