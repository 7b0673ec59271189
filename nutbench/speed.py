"""Machine speed, measured between requests, to take drift out of the times.

On a shared host the speed of a CPU drifts by tens of percent over minutes,
longer than a run, so the median of a run's samples drifts with it. Between
requests, outside their timed windows, the harness times a fixed piece of
work that belongs to the benchmark and never changes (a calibration point).
Each request latency is then scaled by the work's reference time over its
time measured around that request: the result is the latency the request
would have had on a machine running the calibration work in its reference
time. A change to the program moves the scaled times as it moves the raw
ones; only a change of machine speed cancels out.

Drift does not slow every kind of work alike: interpreter-bound code gains
or loses more than arithmetic on arrays larger than the caches. So there are
interpreter-bound calibration work alone, and a mix of it with array work,
and each workload uses the one like the work it spends its time on.
"""

from __future__ import annotations

import gc
import json
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# Calibration takes this share of the time: a point after a long request,
# or before one expected to be long, makes more calls.
SHARE = 0.03
MIN_CALLS, MAX_CALLS = 3, 150
# Between requests a new point is taken once the last is this old.
POINT_EVERY_S = 0.2
# A sample is scaled by the median of the calls within this many seconds of
# it; the window doubles until it holds MIN_WINDOW_CALLS calls.
WINDOW_S = 1.0
MIN_WINDOW_CALLS = 6

_SIZE = 20
# A fixed integer matrix with entries below 32.
_MATRIX = [[(7 * i * i + 13 * j + 3 * i * j + 5) % 32 for j in range(_SIZE)]
           for i in range(_SIZE)]
_NODES = 200


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids: list[int] = []


def _walk(nodes: list[_Node], i: int, depth: int) -> int:
    if depth == 0:
        return nodes[i].key
    return sum(_walk(nodes, kid, depth - 1) for kid in nodes[i].kids[:2])


def interpreter_work() -> int:
    """Interpreter-bound work in two halves: fraction-free elimination on
    Python integers, and object-heavy code (allocation, calls and recursion,
    dict updates, sorting, JSON encoding). Returns a checksum."""
    m = [row[:] for row in _MATRIX]
    prev = 1
    for c in range(_SIZE - 1):
        pivot = m[c][c] or 1
        row_c = m[c]
        for i in range(c + 1, _SIZE):
            row_i = m[i]
            head = row_i[c]
            for j in range(c + 1, _SIZE):
                row_i[j] = (pivot * row_i[j] - head * row_c[j]) // prev
        prev = pivot
    nodes = [_Node(i) for i in range(_NODES)]
    counts: dict[tuple[int, int], int] = {}
    for i, node in enumerate(nodes):
        node.kids = [(7 * i + j) % _NODES for j in range(5)]
        counts[i % 37, i % 11] = counts.get((i % 37, i % 11), 0) + len(node.kids)
    total = sum(_walk(nodes, i, 4) for i in range(20))
    ranked = sorted(((v, k) for k, v in counts.items()), reverse=True)
    return m[-1][-1] + total + len(json.dumps([str(item) for item in ranked]))


_STEPS = np.arange(1, 1 << 18, dtype=np.uint64)
_Q = np.uint64(2_147_483_647)


def array_work() -> int:
    """Modular arithmetic on numpy arrays of 2 MiB, larger than the caches:
    a geometric progression modulo a prime, as the lemma sweep computes.
    Returns a checksum."""
    g = _STEPS * np.uint64(48271) % _Q
    g = g * np.uint64(16807) % _Q
    return int(g[::4097].sum())


def mixed_work() -> int:
    """Both kinds of work, for code that does both in about equal parts."""
    return interpreter_work() + array_work()


# Each kind of work with the time of one call on the machine where the
# benchmark was defined (a 2-CPU Xeon virtual machine, Python 3.11), in a
# calm period. Scaled times are in seconds of that machine.
WORK = {"interpreter": (interpreter_work, 0.0023), "mixed": (mixed_work, 0.0058)}


# The start-up reference: a fresh interpreter that imports numpy, which,
# like the set-up of the program, is mostly loading modules and C extensions;
# with its time at reference speed.
STARTUP_CODE = "import numpy"
STARTUP_REFERENCE_S = 0.2


class SpeedTrack:
    """Calibration calls of one run: when each ended and how long it took."""

    def __init__(self, kind: str = "interpreter") -> None:
        self.work, self.reference = WORK[kind]
        self.times: list[float] = []
        self.seconds: list[float] = []

    def point(self, ahead: float = 0.0, force: bool = True) -> None:
        """Take a calibration point of calls in proportion to the time since
        the last point or `ahead`, the expected length of the next request,
        whichever is longer. Unless forced, only when one of them is long."""
        now = perf_counter()
        since = now - self.times[-1] if self.times else 0.0
        if not force and self.times and max(since, ahead) < POINT_EVERY_S:
            return
        calls = round(SHARE * max(since, ahead) / self.reference)
        collecting = gc.isenabled()
        gc.disable()  # the work makes no cycles; a collection would time other objects
        try:
            for _ in range(min(MAX_CALLS, max(MIN_CALLS, calls))):
                start = perf_counter()
                self.work()
                end = perf_counter()
                self.times.append(end)
                self.seconds.append(end - start)
        finally:
            if collecting:
                gc.enable()

    def local(self, start: float, end: float) -> float:
        """Calibration time around the window [start, end]: the median of the
        calls within WINDOW_S of it, widened until it holds enough calls."""
        window = WINDOW_S
        while True:
            lo = bisect_left(self.times, start - window)
            hi = bisect_right(self.times, end + window)
            if hi - lo >= min(MIN_WINDOW_CALLS, len(self.times)):
                return statistics.median(self.seconds[lo:hi])
            window *= 2

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured in [start, end] into reference seconds."""
        return self.reference / self.local(start, end)

    def mean(self) -> float:
        return statistics.fmean(self.seconds)
