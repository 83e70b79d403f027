"""A clock that runs at a fixed reference speed, whatever the host's speed.

On a shared host the same interpreter work can take 1.5-2x longer for
seconds at a time, as neighbours compete for the cores and their caches.
CPU time swings with wall time, since the guest is not descheduled, so
neither clock alone separates the program's speed from the host's.

``ReferenceClock`` samples the host's speed while a measurement runs. An
interval timer (``SIGALRM``: no thread or process is started) runs a fixed
CPython kernel twice every ``PERIOD_S`` seconds of wall time, in the main
thread between two bytecodes of whatever runs, and times the second run:
the first brings back the code and data the measured program evicted since
the last tick, and a cold kernel slows more than the program on a slow
host. Between two ticks the clock advances at wall speed times
``REFERENCE_S`` over the median of the last ``WINDOW`` kernel times; while
a tick runs it stands still. A difference of two readings is therefore the
measured code's time on a host where the kernel takes ``REFERENCE_S``
seconds. The kernel mixes the
operations the detectors spend their time on (splitting text, parsing
numbers, dict updates, ``sin`` over float lists), so a slower host slows it
in about the same proportion.

The kernel, ``REFERENCE_S``, ``PERIOD_S`` and ``WINDOW`` define the unit of
every timing the benchmark reports: change none of them between two
measurements that are compared.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from collections import deque
from contextlib import contextmanager

CLOCK = time.perf_counter
REFERENCE_S = 160e-6  # the warm kernel's time on the reference host
PERIOD_S = 0.01
WINDOW = 5
WARM_UP = 8

_LINES = tuple(f"i{k % 37},j{k % 11},{1.0 + k / 64!r},{k // 5}" for k in range(144))


def kernel() -> float:
    """Fixed interpreter work, about 0.2 ms: parse lines, count, integrate."""
    table: dict = {}
    total = 0.0
    for line in _LINES:
        i, j, w, tau = line.split(",")
        key = (i, j)
        table[key] = table.get(key, 0) + int(tau)
        total += float(w)
    sin = math.sin
    theta = [0.1 * k for k in range(24)]
    for _ in range(24):
        theta = [t + 0.01 * sin(theta[k - 1] - t) for k, t in enumerate(theta)]
    return total + theta[0] + len(table)


class ReferenceClock:
    def __init__(self) -> None:
        self.kernel_s = array("d")  # every timed (warm) kernel run, in wall seconds
        self.wall_in_kernel = 0.0  # wall seconds the ticks took, bookkeeping included
        self._recent: deque = deque(maxlen=WINDOW)
        # (reference seconds at ``since``, wall ``since``, reference per wall
        # second), replaced in one assignment so a reading never mixes two.
        self._state = (0.0, CLOCK(), 1.0)

    def now(self) -> float:
        """Reference seconds. A tick between the two reads below leaves
        ``since`` after ``t``: the reading is then the tick's start."""
        t = CLOCK()
        base, since, scale = self._state
        return base + max(t - since, 0.0) * scale

    def _sample(self) -> float:
        kernel()
        start = CLOCK()
        kernel()
        took = CLOCK() - start
        self._recent.append(took)
        self.kernel_s.append(took)
        return REFERENCE_S / statistics.median(self._recent)

    def _tick(self, signum, frame) -> None:
        entered = CLOCK()
        base, since, scale = self._state
        base += (entered - since) * scale
        scale = self._sample()
        left = CLOCK()
        self._state = (base, left, scale)
        self.wall_in_kernel += left - entered

    @contextmanager
    def running(self):
        """Sample the host's speed while the block runs."""
        for _ in range(WARM_UP):
            scale = self._sample()
        self._state = (self.now(), CLOCK(), scale)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def summary(self) -> dict:
        samples = list(self.kernel_s)
        return {"reference_kernel_s": REFERENCE_S, "period_s": PERIOD_S,
                "kernel_runs": len(samples),
                "kernel_median_s": statistics.median(samples) if samples else None,
                "wall_in_kernel_s": self.wall_in_kernel}
