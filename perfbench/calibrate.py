"""Calibrated time: timings scaled by the machine's speed at the moment.

On a shared host the speed of a vCPU drifts with its neighbours' load.  On
the 2-vCPU box this benchmark was written on, the kernel below ran up to
twice as slow from one moment to the next, and raw run times of a fixed
workload spread by about 20% (interquartile range over median).

So the benchmark samples the kernel between requests and, from a timer
signal, every ``INTERVAL_S`` inside each request.  It reads the speed at a
sample as ``REFERENCE_S`` divided by the kernel's time, interpolates it
linearly between samples, and reports an interval's length as the
integral of the speed over it, less the samples taken inside it: the time
the interval would have taken on a machine on which the kernel runs in
``REFERENCE_S``.  The kernel does what lmov's kernels do: dict updates
keyed by tuples, with ``Fraction`` and integer arithmetic.  It uses only
the standard library, and it runs with the garbage collector off, so that
a sample taken inside a request never collects the objects lmov keeps
alive and lmov's GC settings (thresholds, ``gc.freeze``) cannot reach it.
It still shares the process's memory allocator with lmov.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

REFERENCE_S = 0.002  # kernel time that defines one calibrated second
INTERVAL_S = 0.25  # sampling period inside a request
_REPEATS = 2  # a sample is the fastest of this many kernel runs


def _kernel() -> None:
    acc = {}
    for i in range(500):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * (i % 5)


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Speed samples ``(start, end, kernel seconds)`` on the monotonic clock,
    which all processes of the machine share."""

    def __init__(self, samples=()):
        self.samples = sorted(tuple(s) for s in samples)
        self._curve = None  # (sample count, midpoints, speeds)

    def sample(self) -> None:
        start = time.monotonic()
        k = kernel_seconds()
        bisect.insort(self.samples, (start, time.monotonic(), k))

    def extend(self, samples) -> None:
        for s in samples:
            bisect.insort(self.samples, tuple(s))

    def busy(self, t0: float, t1: float) -> tuple[float, float]:
        """(calibrated, raw) seconds of [t0, t1] outside the samples taken
        within it."""
        inside = [(s, e) for s, e, _ in self.samples if t0 <= s and e <= t1]
        calibrated = self.scaled(t0, t1) - sum(self.scaled(s, e) for s, e in inside)
        return calibrated, (t1 - t0) - sum(e - s for s, e in inside)

    def scaled(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the interval [t0, t1]."""
        if not self.samples:
            raise ValueError("no speed samples")
        if self._curve is None or self._curve[0] != len(self.samples):  # samples only grow
            mids = [(s + e) / 2 for s, e, _ in self.samples]
            self._curve = (len(mids), mids, [REFERENCE_S / k for _, _, k in self.samples])
        _, mids, speeds = self._curve

        def speed(t: float) -> float:
            i = bisect.bisect_left(mids, t)
            if i == 0:
                return speeds[0]
            if i == len(mids):
                return speeds[-1]
            w = (t - mids[i - 1]) / (mids[i] - mids[i - 1]) if mids[i] > mids[i - 1] else 0.0
            return speeds[i - 1] + w * (speeds[i] - speeds[i - 1])

        points = [t0] + mids[bisect.bisect_right(mids, t0) : bisect.bisect_left(mids, t1)] + [t1]
        ys = [speed(t) for t in points]
        return sum((b - a) * (ya + yb) / 2 for a, b, ya, yb in zip(points, points[1:], ys, ys[1:]))


@contextmanager
def sampling(log: SpeedLog):
    """Add a sample to ``log`` every ``INTERVAL_S`` seconds of wall time,
    from a SIGALRM handler, until the block ends."""
    old = signal.signal(signal.SIGALRM, lambda *_: log.sample())
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield log
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
