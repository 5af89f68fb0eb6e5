"""Machine-speed probe: a fixed pure-Python kernel timed every 20 ms.

On a shared host the speed of one core drifts by 10-40% over tens of
seconds, as other tenants load the machine, and that drift would swamp the
differences the benchmark is meant to show.  While a run measures, a
``SIGALRM`` timer interrupts the main thread every ``INTERVAL_S`` and times
``_kernel``, which does the same interpreter work every time: composing
permutations stored as tuples, dict lookups and set inserts, the operations
of sigmagraph's hot loops.  The probe then gives two things:

* ``clock()``: ``time.perf_counter`` minus the time spent in the kernel, so
  no measured interval includes the probe's own work;
* ``scale(t0, t1)``: ``REFERENCE_S`` over the mean kernel time sampled
  between two ``clock()`` readings, widened to at least ``MIN_WINDOW_S``,
  leaving out the slowest ``TRIM`` of the samples.
  Multiplying a time by it expresses the time at the reference speed, the
  speed at which the kernel takes ``REFERENCE_S``.  Samples are spread
  evenly in time, so their mean tracks the average slowdown.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.02
MIN_WINDOW_S = 1.0
REFERENCE_S = 0.0005  # kernel time on an unloaded core of the 2-core host
# share of the slowest samples left out of a mean: a sample during which the
# process was preempted reads many times too slow
TRIM = 0.1

_PERMS = [tuple(random.Random(k).sample(range(8), 8)) for k in range(24)]
_INDEX = {p: i for i, p in enumerate(_PERMS)}


def _kernel() -> int:
    seen = set()
    total = 0
    for p in _PERMS:
        for q in _PERMS:
            r = tuple(q[x] for x in p)
            total += _INDEX.get(r, 0)
            seen.add(r)
    return total + len(seen)


class SpeedProbe:
    """Use as a context manager around everything the run measures."""

    def __init__(self):
        self.spent = 0.0
        self.times: list[float] = []   # clock() at each sample, ascending
        self.kernel: list[float] = []  # kernel seconds of each sample
        self._previous = None
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        # a tick that arrives while the kernel runs (the process was
        # preempted) must not sample again: its kernel time would be counted
        # twice and clock() would go backwards
        if self._sampling:
            return
        self._sampling = True
        try:
            t = time.perf_counter()
            _kernel()
            d = time.perf_counter() - t
            self.times.append(t - self.spent)
            self.kernel.append(d)
            self.spent += d
        finally:
            self._sampling = False

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        mid, half = (t0 + t1) / 2, max(t1 - t0, MIN_WINDOW_S) / 2
        lo = bisect.bisect_left(self.times, mid - half)
        hi = bisect.bisect_right(self.times, mid + half)
        inside = sorted(self.kernel[lo:hi] or self.kernel)  # or: a run shorter than one interval
        kept = inside[:max(1, int(len(inside) * (1 - TRIM)))]
        return REFERENCE_S / statistics.fmean(kept)

    def untimed(self, fn) -> None:
        """Run fn with the clock stopped and no sample taken."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t = time.perf_counter()
            fn()
            self.spent += time.perf_counter() - t
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
