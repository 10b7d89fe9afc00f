"""The benchmark's pace loop: a fixed pure-Python loop timed between the
program's ops, outside the timed sections.

The shared machine runs a process up to 1.5x slower for minutes at a time
when its neighbours are busy, and the program slows with it.  Timing the
same fixed loop through the run measures how fast the machine is running
at the time, and ``scale`` turns the program's seconds into reference
seconds: seconds on the machine at the speed where one loop takes
``REFERENCE_S``.  The loop does not touch the program, so a change to the
program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 50_000
# The loop's time at a quiet moment of the 2-core Xeon VM (Python 3.11.7)
# where the benchmark was built.  It only sets the level of the scaled
# times; any fixed value would do.
REFERENCE_S = 0.0035


def pace_loop() -> float:
    """Seconds for one run of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def pace_samples(count: int) -> list[float]:
    return [pace_loop() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor from seconds measured while the loop took ``samples`` to
    reference seconds."""
    return REFERENCE_S / statistics.median(samples)
