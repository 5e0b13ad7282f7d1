"""How slow the host is right now, from two fixed loops that do not
touch nanoread.

The shared host's speed drifts by up to 1.6x for tens of seconds at a
time, and process CPU time slows with it.  ``HostSpeed`` times the loops
between a workload's operations and rescales the work done in between
to the speed at which the loops take their reference times.  One loop
is pure Python over small tuples and sets, like the oracles and the
decoders; the other is a numpy histogram over arrays larger than a core's
cache, like the run-length counts of the bounds.  Their slowdowns are
averaged, so one reference serves every workload.
"""

from __future__ import annotations

import statistics
import time

# The loops' times on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4) at its
# fastest: rescaled timings read as seconds on that host at that speed.
PYTHON_LOOP_S = 0.0018
NUMPY_LOOP_S = 0.0010
REPEAT = 3  # timings of each loop per measurement; their median is used
NUMPY_WORDS = 1 << 18  # 2 MB per array


def python_loop() -> int:
    """Deletion balls of 10-bit words, built as sets of tuple slices."""
    seen = set()
    total = 0
    for i in range(0, 1024, 3):
        w = tuple((i >> k) & 1 for k in range(10))
        ball = {w[:j] + w[j + 1:] for j in range(10)}
        seen |= ball
        total += len(ball)
    return total + len(seen)


def numpy_loop(np, words, buf) -> int:
    """A 2^16-bin histogram of a fixed function of every word, in place."""
    np.right_shift(words, 1, out=buf)
    np.bitwise_xor(buf, words, out=buf)
    np.bitwise_and(buf, 0xFFFF, out=buf)
    return int(np.bincount(buf, minlength=1 << 16).argmax())


def _median_time(fn, *args) -> float:
    times = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class HostSpeed:
    def __init__(self) -> None:
        import numpy as np  # here, so that setup_s does not pay for it

        self._np = np
        self._words = np.arange(NUMPY_WORDS, dtype=np.intp) * 2654435761 % (1 << 20)
        self._buf = np.empty_like(self._words)
        self.spent = 0.0  # seconds spent in the loops
        self.last = self._measure()

    def _measure(self) -> float:
        """How many times slower than the reference the host runs now."""
        t0 = time.perf_counter()
        slow = (_median_time(python_loop) / PYTHON_LOOP_S
                + _median_time(numpy_loop, self._np, self._words, self._buf) / NUMPY_LOOP_S) / 2
        self.spent += time.perf_counter() - t0
        return slow

    def rescale(self, work: float) -> float:
        """``work`` seconds, done since the last call, at the reference speed."""
        now = self._measure()
        scaled = work / ((self.last + now) / 2)
        self.last = now
        return scaled
