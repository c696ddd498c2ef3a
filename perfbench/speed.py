"""Host speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts, by
up to about 1.5x, over seconds to minutes.  A timed run therefore samples a
small fixed reference kernel (pure Python: objects, dicts, sets, tuples and
a sort, like the program's own hot loops) between its items, at most every
SAMPLE_INTERVAL_S.  A sample runs the kernel once untimed, since its first
run after the program's work is slower, then RUNS times, and keeps the
median; so its level does not hang on how long the items are.  An item's
time is scaled by REF_S over the mean of the two samples that bracket it,
so a drift that slows the program and the kernel alike cancels, while a
change to the program does not: the kernel never calls it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: About the kernel's time on the host the bounds were set on (2 vCPUs,
#: Python 3.11.7).  A scaled time reads as seconds on that host.
REF_S = 0.0075
SAMPLE_INTERVAL_S = 0.5
RUNS = 3


class _Cell:
    __slots__ = ("x", "y", "d")

    def __init__(self, x, y):
        self.x, self.y, self.d = x, y, None


def kernel(n: int = 40, reps: int = 2) -> int:
    """BFS over an n x n grid of small objects, then a sort; returns a checksum."""
    total = 0
    for _ in range(reps):
        cells = {(x, y): _Cell(x, y) for x in range(n) for y in range(n)}
        start = cells[(0, 0)]
        start.d = 0
        frontier, seen = [start], {(0, 0)}
        while frontier:
            nxt = []
            for c in frontier:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    key = (c.x + dx, c.y + dy)
                    other = cells.get(key)
                    if other is not None and key not in seen:
                        seen.add(key)
                        other.d = c.d + 1
                        nxt.append(other)
            frontier = nxt
        total += sum(d for d, _, _ in sorted((c.d, c.x, c.y) for c in cells.values()))
    return total


class Probe:
    """Kernel samples taken between items: (perf_counter() at the end, seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._ends: list[float] = []

    def sample(self) -> None:
        kernel()
        times = []
        for _ in range(RUNS):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        t1 = perf_counter()
        self.samples.append((t1, statistics.median(times)))
        self._ends.append(t1)

    def tick(self) -> None:
        """Call before each item; samples when SAMPLE_INTERVAL_S has passed."""
        if not self._ends or perf_counter() - self._ends[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the mean of the last sample before start and the first
        after end (call sample() once after the last item)."""
        before = max(0, bisect.bisect_right(self._ends, start) - 1)
        after = min(len(self._ends) - 1, bisect.bisect_left(self._ends, end))
        return REF_S / statistics.mean((self.samples[before][1], self.samples[after][1]))
