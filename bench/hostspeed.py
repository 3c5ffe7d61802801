"""Host speed factor from a fixed reference kernel run between requests.

A shared host can switch between speeds for seconds to minutes at a
time.  On the 2-vCPU KVM guest used for the baseline, the same requests
ran up to 1.6x slower from one stretch to the next, and the time counted
to the process grew with them: the guest is not descheduled (that would
show as steal time) but runs slower.  The kernel does the program's kind
of work (small complex matrices, fancy indexing, outer products, float
formatting in rectangular and polar form, and parsing) but never calls
the program, so it runs the same on every commit.

``factor()`` runs the kernel ``SAMPLES`` times and returns the median
time over ``NOMINAL_S``.  A request time divided by the factor is the
time it would take on a host where the kernel takes ``NOMINAL_S``.

Taken often, the kernel follows the host: on the baseline host, over
6.5 minutes of 1001-point ideal sweeps with three kernel runs after
every request, 27 s windows of request time spread by 9 % (q3 - q1 over
the median) and by 3 to 4 % once divided by the kernel's mean time in
the same window.  The fastest of the three runs follows the host much
less well than their median, and a kernel taken every few seconds
only, less well than one taken after every request.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.004  # about the kernel's median on the baseline host
SAMPLES = 3  # kernel runs per measurement; the median is kept


def _matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(20100)
    return [0.05 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
            for _ in range(4)]


class HostSpeed:
    """Measures the reference kernel; keeps every measurement."""

    def __init__(self):
        self._mats = _matrices()
        self.measurements: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for m in self._mats:
            s = m
            while s.shape[0] > 2:
                keep = list(range(2, s.shape[0]))
                d = (1.0 - s[0, 1]) * (1.0 - s[1, 0]) - s[0, 0] * s[1, 1]
                s = s[np.ix_(keep, keep)] + (
                    np.outer(s[keep, 1], s[0, keep]) * (1.0 - s[1, 0])
                    + np.outer(s[keep, 0], s[1, keep]) * (1.0 - s[0, 1])
                ) / d
            text = " ".join(format(float(v), ".12g") for v in m.real.ravel())
            polar = " ".join(f"{abs(z):.12g} {math.degrees(cmath.phase(z)):.12g}"
                             for z in m.ravel().tolist())
            acc += (abs(s[0, 0]) + sum(float(t) for t in text.split())
                    + sum(float(t) for t in polar.split()))
        return acc

    def factor(self) -> float:
        """Measure now: the median of ``SAMPLES`` kernel runs over NOMINAL_S."""
        times = []
        for _ in range(SAMPLES):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        median = statistics.median(times)
        self.measurements.append(median)
        return median / NOMINAL_S
