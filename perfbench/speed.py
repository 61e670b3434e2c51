"""Machine-speed normalisation of wall times.

On a shared 2-core machine identical ops differ by up to ~40% in wall time
(CPU time equal to wall time): the host runs this process faster or slower
for stretches of seconds to minutes.  A fixed pure-Python loop, timed
between ops, slows down by the same factor.  A scaled time is the wall time
times REFERENCE_S over the mean of the loop times just before and just after
the interval: seconds at the speed where the loop takes REFERENCE_S.
"""

import bisect
import time

LOOP = 500_000
REFERENCE_S = 0.060  # the loop on a quiet 2-core VM, CPython 3.11
SPACING_S = 1.0  # between ops, sample at most this often


def calibration():
    """Seconds for the fixed loop."""
    t = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


class SpeedLog:
    """Loop timings over the run, and scaling of wall intervals by them."""

    def __init__(self):
        self.begins = []
        self.ends = []
        self.seconds = []

    def sample(self):
        begin = time.perf_counter()
        s = calibration()
        self.begins.append(begin)
        self.ends.append(begin + s)
        self.seconds.append(s)

    def maybe_sample(self):
        """Sample unless the last sample ended less than SPACING_S ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= SPACING_S:
            self.sample()

    def scale(self, start, end):
        """(end - start) at reference speed, from the samples that bracket it."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.begins, end)
        near = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        if not near:
            raise ValueError("no calibration sample near the interval")
        return (end - start) * REFERENCE_S / (sum(near) / len(near))
