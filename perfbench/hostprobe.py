"""Host-speed calibration.

On a shared host the same computation can run up to ~1.8x slower for spells
of a fraction of a second to minutes, and CPU time slows with wall time, so
neither longer runs nor CPU clocks remove the drift.  A run therefore times
a fixed probe kernel (a Python loop, small numpy calls and 64 x 64 LAPACK
determinants, the same mix as mixdisc's own work) between items, at most
every ``EVERY_S``, and scales each item's time by REF_S over the mean of the
probes just before and just after it: times are reported at the speed at
which the probe takes ``REF_S``.  On a 2-core Xeon whose speed wandered by
40% (interquartile range over two minutes), item and probe times correlated
at 0.85-0.93 with a log-log slope near 1.  Raw times stay in the report.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

REF_S = 1.0e-3
EVERY_S = 0.02


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        # Bound now, so a tracer installed later does not slow the probe.
        self._det = np.linalg.det
        self._big = rng.standard_normal((64, 64))
        self._small = rng.standard_normal((20, 4, 4))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        for _ in range(40):
            self._det(self._small)
            np.dot(self._small[0], self._small[1]).sum()
        for _ in range(3):
            self._det(self._big)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        return t1 - t0

    def maybe(self) -> None:
        """Sample if EVERY_S has passed since the last sample ended."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured between ``start`` and ``end``: REF_S over
        the mean of the last probe before it and the first probe after it."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.durations[i] for i in (before, after) if 0 <= i < len(self.durations)]
        return REF_S * len(near) / sum(near)
