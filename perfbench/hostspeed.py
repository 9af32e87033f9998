"""Host speed: fixed reference loops timed next to the ops.

The benchmark runs on a few vCPUs of a shared host whose speed swings by a
factor of up to 1.8 in phases of seconds to minutes, which no run length
averages out: two runs of the same inputs a few minutes apart differ by more
than any bound worth setting.  So every run also times a reference loop that
uses no dopshift code, between its ops, and scales each op time by
``nominal / reference``, the reference loop's time on the calibration host
over its time at that moment.  A scaled time reads what the op would have
taken on the calibration host in its fast phase; the raw times are in the
facts line.

The scaling holds while the op slows down like its reference loop.  Each
workload names the loop that resembles its work: interpreted complex
arithmetic and 2 x 2 numpy solves for `scan` and `saddle`, large-array numpy
for `oracle`.  An op
whose code changes character (say from a Python loop to array kernels) is
scaled too far in a slow phase, which favours it.
"""

import bisect
import cmath
import statistics
import time

import numpy as np

WINDOW_S = 2.0      # reference samples within this time of an op scale it
MIN_SAMPLES = 3     # else the nearest this many samples do
EVERY_S = 0.25      # least time between two reference samples

_GRID = np.linspace(0.0, 1.0, 1 << 18)


def scalar_loop():
    """Interpreted complex scalar arithmetic and 2 x 2 numpy solves, like
    dispersion.sample and the Newton steps of stationary_phase; about 2 ms."""
    z = 0j
    for i in range(3000):
        w = 1.0 + i * 1e-4
        z += cmath.sqrt((w * w - 2.0 + 0.1j * w) / (w * w - 1.5 + 0.05j * w))
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    for i in range(150):
        z += float(np.linalg.solve(a, np.array([1.0, i]))[0])
    return z


def array_loop():
    """One complex exponential over 2^18 points, like a quadrature block of
    the oracle; about 14 ms."""
    return complex(np.exp(30j * _GRID).sum())


LOOPS = {"scalar": scalar_loop, "array": array_loop}
# seconds of each loop on the calibration host (2-vCPU shared Xeon VM,
# Python 3.11, numpy 2.4) in its fast phase: the lowest 10th percentile of
# three sets of 300 runs
NOMINAL_S = {"scalar": 1.88e-3, "array": 13.9e-3}


class Clock:
    """Reference samples of one run and the scale factor at any moment."""

    def __init__(self, loop):
        self.loop = LOOPS[loop]
        self.nominal = NOMINAL_S[loop]
        self.t, self.ref = [], []

    def sample(self, force=False):
        """Time the loop once, unless the last sample is under EVERY_S old."""
        now = time.perf_counter()
        if force or not self.t or now - self.t[-1] >= EVERY_S:
            self.loop()
            self.t.append(now)
            self.ref.append(time.perf_counter() - now)

    def factor(self, t):
        """nominal / reference around time t: the median of the samples
        within WINDOW_S of t, or of the MIN_SAMPLES nearest ones."""
        lo = bisect.bisect_left(self.t, t - WINDOW_S)
        hi = bisect.bisect_right(self.t, t + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            i = bisect.bisect_left(self.t, t)
            lo = max(0, min(i - MIN_SAMPLES // 2, len(self.t) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return self.nominal / statistics.median(self.ref[lo:hi])

    def median_ref(self):
        return statistics.median(self.ref)
