"""Drift-corrected timing: a fixed calibration kernel runs between slices of work.

The reference machine gives the benchmark two cores of a shared host, and
its speed drifts: a fixed pure-Python loop runs up to 1.5 times slower for
tens of seconds when the host is busy, and process CPU time drifts with wall
time, so no clock hides it. A workload's raw time therefore moves with the
host, not with the program.

A Meter interrupts the workload every INTERVAL_S (SIGALRM, handled between
bytecodes) and times one run of a calibration kernel: fixed code of the
benchmark's own, modular arithmetic on mid-size integers in an interpreted
loop like the program's hot layers, that never calls fibtower. Work between
two kernel runs is divided by the kernel's time around it (the median of
the five nearest kernel runs), so a cost reads in kernel-times ("kt"): the
same on a slow minute as on a fast one. The kernel's own time is excluded
from every work interval. A change that makes the program faster lowers its
cost in kt; nothing the program does changes the kernel.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from math import gcd

INTERVAL_S = 0.05
# Kernel runs on each side of a work interval whose median divides it.
_SMOOTH = 2
_KERNEL_N = (2**400 // 3) | 1
_BIG_A = (1 << 150_000) // 3 + 1
_BIG_B = (1 << 150_001) // 7 + 3


def kernel() -> int:
    """Fixed work, 1-3 ms on the reference machine: rho-style steps modulo
    a 400-bit number. Of the kernels tried (this one, fast doubling modulo
    61- to 521-bit numbers, small-int trial division, big-integer products),
    the first two tracked the drift of the four workloads best."""
    n = _KERNEL_N
    x = 2
    q = 1
    for _ in range(900):
        x = (x * x + 1) % n
        q = q * abs(x - 2) % n
    return gcd(q, n)


def big_kernel() -> int:
    """kernel() plus one product of two 150 000-bit integers, 8-12 ms.

    For oracle_grid, whose time is mostly products of huge integers: these
    slow down more than kernel() when the host is busy, and over 3 minutes
    of oracle passes the time of 20-second stretches, divided by this
    kernel, spread 0.13 where divided by kernel() it spread 0.22.
    """
    return kernel() ^ (_BIG_A * _BIG_B).bit_length()


class Meter:
    """Runs ``kernel`` when started, every INTERVAL_S after, and when stopped."""

    def __init__(self, kernel=kernel) -> None:
        self.kernel = kernel
        self.k_start = array("q")
        self.k_end = array("q")
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter_ns()
        self.kernel()
        self.k_start.append(t0)
        self.k_end.append(time.perf_counter_ns())

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        # Re-armed only now, so a slow kernel run cannot nest another.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        for _ in range(2):  # the first run warms the kernel's own code
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and fix the kernel times that cost() divides by."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()
        # Drop the warm-up run.
        self._starts, self._ends = list(self.k_start[1:]), list(self.k_end[1:])
        raw = self.kernel_ns()[1:]
        self._kt = [
            statistics.median(raw[max(0, j - _SMOOTH) : j + _SMOOTH + 1]) for j in range(len(raw))
        ]

    def kernel_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.k_start, self.k_end)]

    def cost(self, t0: int, t1: int) -> tuple[float, int]:
        """(work in kt, work in ns) of the interval [t0, t1), kernel runs excluded."""
        starts, ends, kt = self._starts, self._ends, self._kt
        # Kernel runs inside the interval split it into pieces; each piece is
        # divided by the smoothed time of the kernel run before it.
        j = bisect.bisect_right(ends, t0) - 1
        total_kt = 0.0
        total_ns = 0
        at = t0
        while True:
            nxt = j + 1
            inside = nxt < len(starts) and starts[nxt] < t1
            piece = max(0, (starts[nxt] if inside else t1) - at)
            total_kt += piece / kt[max(j, 0)]
            total_ns += piece
            if not inside:
                return total_kt, total_ns
            at = ends[nxt]
            j = nxt
