"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants, the same deterministic Python work
runs up to 1.8 times slower for seconds to minutes at a time, and process
CPU time slows with it, so neither wall nor CPU time of one run is steady.
The benchmark therefore times a fixed reference kernel alongside the work
and scales each measured duration by REFERENCE_S / kernel time: durations
come out in seconds of a host running the kernel in REFERENCE_S.

During a timed pass a Sampler runs the kernel from a SIGALRM handler every
INTERVAL_S of wall time, so that even a 30-second operation is scaled by
the speed the host had while it ran; the handler's own time is taken off
the operation.  The kernel is exact rational polynomial arithmetic written
here, without heightlab, so that no change to the library changes the
yardstick, and its inputs are fixed, so every call does the same work.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# median kernel time measured on a 2-core x86-64 virtual machine, Python 3.11
REFERENCE_S = 0.0017
# wall time between kernel samples during a timed pass
INTERVAL_S = 0.1
SAMPLES = 3

_REDUCTION = tuple(Fraction(c) for c in (-1, 3, 0, -5, 0, 3))
_A = tuple(Fraction(n, d) for n, d in ((1, 2), (-3, 1), (2, 3), (5, 1), (-1, 4), (7, 5)))
_B = tuple(Fraction(n, d) for n, d in ((3, 7), (1, 1), (-2, 9), (4, 3), (1, 6), (-5, 2)))


def kernel():
    """A fixed amount of Fraction work: ten products of two degree-5
    polynomials reduced modulo a sextic."""
    for _ in range(10):
        conv = [Fraction(0)] * 11
        for i, p in enumerate(_A):
            for j, q in enumerate(_B):
                conv[i + j] += p * q
        for k in range(10, 5, -1):
            c = conv[k]
            for i in range(6):
                conv[k - 6 + i] += c * _REDUCTION[i]
    return conv


def kernel_seconds() -> float:
    """Median time of SAMPLES kernel calls, with the cyclic collector off so
    that garbage left by the measured work is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor() -> float:
    """REFERENCE_S over the kernel time now."""
    return REFERENCE_S / kernel_seconds()


def scaled(measure):
    """Call measure() -> (seconds, value) and return (seconds scaled by the
    mean of the factors taken just before and just after, value)."""
    before = factor()
    seconds, value = measure()
    return seconds * (before + factor()) / 2, value


class Sampler:
    """Kernel samples taken every INTERVAL_S from a SIGALRM handler, for
    use as a context manager around a timed pass."""

    def __init__(self):
        self.factors = []
        self.spent = 0.0  # time the handler has taken from the measured work
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            kernel_end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.factors.append(REFERENCE_S / (kernel_end - start))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """State before an operation, for `scale`."""
        return len(self.factors), self.spent

    def scale(self, mark, raw: float):
        """(measured seconds without the handler's time, those seconds
        scaled by the mean factor sampled while the operation ran, or by
        the last factor before it when none was)."""
        first, spent = mark
        measured = raw - (self.spent - spent)
        during = self.factors[first:] or self.factors[first - 1:first]
        return measured, measured * statistics.fmean(during)
