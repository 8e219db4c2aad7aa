"""Machine-speed calibration for a shared, noisy host.

On a small shared VM the same Python work runs up to twice as slow in
phases that last from seconds to minutes, set by load outside the VM:
CPU time slows as much as wall time, the VM's idle counters show nothing,
and a probe on the other vCPU does not see the same phases.  The benchmark
therefore measures the speed of the CPU it runs on with a fixed reference
loop and rescales each timing to the loop's unloaded speed::

    normalized = (wall - time spent in the reference loop)
                 * REFERENCE_S / mean reference loop time

While a timed operation runs, a ``Sampler`` interrupts it every
``PERIOD_S`` (SIGALRM) to run the loop once, so the speed is sampled across
the whole operation; the loop's own time is subtracted.  Operations too
short to sample use ``reference_time()`` right before and after them, in
the same process, since each vCPU has its own slow phases.  The loop
mimics the program's hot path (small slotted objects, tuple
comprehensions, float products, dict stores), so host slow-downs hit both
alike.  The loop runs with the garbage collector off, so a sample never
pays for a collection triggered by the program's allocations and does not
slow down as the program's heap grows.  The host's slow-downs come in
bursts shorter than an operation, so a preempted sample is evidence, not
noise: the mean of the samples estimates the average slow-down the
operation saw, where their median misses the bursts and makes runs
spread two to three times as much.
``REFERENCE_S`` is the loop's time on an unloaded 2-vCPU Intel
Xeon VM (Python 3.11), so normalized times read as seconds on that machine.
Raw wall times are kept next to the normalized ones in every record.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.00060
PERIOD_S = 0.05
_ITERATIONS = 300
_ROUNDS = 9

perf_counter = time.perf_counter


class _Dual:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def __add__(self, other):
        return _Dual(self.v + other.v,
                     tuple(a + b for a, b in zip(self.g, other.g)))

    def __mul__(self, other):
        return _Dual(self.v * other.v,
                     tuple(self.v * b + other.v * a
                           for a, b in zip(self.g, other.g)))


def _reference_loop():
    x = _Dual(0.5, (1.0, 0.0, 0.0))
    y = _Dual(0.25, (0.0, 1.0, 0.0))
    acc = _Dual(0.0, (0.0, 0.0, 0.0))
    keep = {}
    for i in range(_ITERATIONS):
        acc = acc + x * y
        keep[i & 255] = acc
    return acc.v


def _timed_loop():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_time():
    """Median time of _ROUNDS back-to-back runs of the reference loop."""
    # no statistics import: set-up probes time imports after this module
    return sorted(_timed_loop() for _ in range(_ROUNDS))[_ROUNDS // 2]


class Sampler:
    """Context manager sampling the reference loop every PERIOD_S of wall
    time while the body runs (main thread only)."""

    def __init__(self):
        self.samples = []

    @property
    def spent(self):
        return sum(self.samples)

    def speed(self):
        """Mean reference loop time during the body, None without
        samples."""
        return sum(self.samples) / len(self.samples) if self.samples else None

    def _on_alarm(self, signum, frame):
        self.samples.append(_timed_loop())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
