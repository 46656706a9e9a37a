"""How fast the machine is at each moment, and times scaled by it.

A shared machine slows down by up to 1.8x for seconds at a time, and a
workload's raw wall time swings with it from run to run.  A fixed
calibration loop, timed every ``PERIOD_S`` from a ``SIGALRM`` handler
while the work runs, shows the slowdown as it happens.  ``Sampler.scaled``
turns a stretch of wall time into the time it would have taken at the
reference speed, at which the loop takes ``REFERENCE_S``: every moment
counts ``REFERENCE_S / loop time``, the loop time being the median of
the ``WINDOW`` samples nearest to it.  The handler's own time is left
out.  The reference is a constant, so scaled times of different runs,
and of different versions of the program, compare directly.

The loop is small and compute-bound.  Work with a larger memory
footprint slows somewhat more than it when other tenants contend for
caches, so scaling removes most of a slowdown but not all of it.  A
loop that also walked a large buffer tracked some workloads better and
others worse; the sampler must run inside the worker, because the
other vCPU's speed does not follow this one's.
"""

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
LOOP = 3000
REFERENCE_S = 180e-6  # the loop's time at the fast end of a 2-vCPU VM, Python 3.11
WINDOW = 5


def calibrate() -> float:
    """Time one run of the calibration loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def speed_now(samples: int = WINDOW) -> float:
    """The reference time over the median loop time, measured now."""
    return REFERENCE_S / statistics.median(calibrate() for _ in range(samples))


class Sampler:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibrate()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)
        self._prepare()

    def _prepare(self) -> None:
        """Cumulative scaled time at each sample's end, so that ``scaled``
        is a lookup.  The gap after sample ``i`` runs at speed ``rate[i]``."""
        loops = [b - a for a, b in zip(self.starts, self.ends)]
        half = WINDOW // 2
        self.rate = [
            REFERENCE_S / statistics.median(loops[max(0, i - half): i + half + 1])
            for i in range(len(loops))
        ]
        self.cum = [0.0]
        for i in range(len(loops) - 1):
            self.cum.append(self.cum[-1] + (self.starts[i + 1] - self.ends[i]) * self.rate[i])

    def _at(self, t: float) -> float:
        i = max(0, bisect.bisect_right(self.ends, t) - 1)
        if i + 1 < len(self.starts):
            t = min(t, self.starts[i + 1])  # a moment inside a sample counts as its start
        return self.cum[i] + (t - self.ends[i]) * self.rate[i]

    def scaled(self, a: float, b: float) -> float:
        """Time from ``a`` to ``b`` (``perf_counter`` readings between the
        first and the last sample) at the reference speed."""
        return self._at(b) - self._at(a)
