"""Speed normalisation against a fixed reference kernel.

On a shared machine this process's speed moves between a fast and a slow
mode, 1.4 to 1.8 times apart, for anything from a fraction of a second to
whole runs. Raw timings then differ between runs by more than any bound
worth setting. So while a run measures, an interval timer runs a small
fixed kernel (integer arithmetic, dicts, small objects, tiny matrix
products and one NumPy draw) every PERIOD seconds, inside operations as well as between them. Each
stretch of measured work is scaled by REF_S over the kernel time measured
next to it, and the kernel's own time is taken out. The result reads as
seconds on this machine at the speed where the kernel takes REF_S. The
kernel is benchmark code that no change to ifrsim can touch, so a slower
program still reads slower.

Not all code slows down alike: NumPy work on large arrays moves less
between the modes than the interpreter does. So a clock takes a `slope`,
the log-log slope at which the measured work's time follows the kernel's,
and scales by (REF_S / kernel time) ** slope.
"""
from __future__ import annotations

import bisect
import contextlib
import enum
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# About the kernel time in the fast mode of a 2-CPU x86_64 machine with
# Python 3.11 and NumPy 2.4 (about 0.95 ms fast, 1.8 ms slow).
REF_S = 0.95e-3
PERIOD = 0.02


class _Unit(enum.Enum):
    A = 1
    B = 2
    C = 3


_UNITS = tuple(_Unit)
_STEP = np.full((3, 3), 1.0 / 3.0)
_LAST = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class _Packet:
    a: int
    b: int


def kernel() -> int:
    """Integer arithmetic, enum-keyed dict traffic and frozen dataclass
    creation, as in run_core; 3x3 vector-matrix products, as in the
    uniformization series of death_probability, which otherwise drifted
    by up to 14% against the kernel from one process to the next; and one
    NumPy draw. Fitted over minutes of changing load, run_core and
    death_probability times moved with this kernel at log-log slopes of
    0.8 to 1.05, and markov-oracle passes at 0.78."""
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFF
    counts = dict.fromkeys(_UNITS, 0)
    for i in range(600):
        counts[_UNITS[i % 3]] += 1
    packets: dict = {}
    for i in range(400):
        packet = _Packet(i, acc)
        packets[(packet.a & 7, packet.b & 3)] = packet
        acc = (acc + len(packets)) & 0xFFFF
    vec = np.array([1.0, 0.0, 0.0])
    for _ in range(100):
        vec = vec @ _STEP
        acc = (acc + int(vec @ _LAST * 7.0)) & 0xFFFF
    draws = np.random.default_rng(acc).exponential(1.0, 20000)
    return acc + counts[_Unit.A] + int(draws.argmin())


class RefClock:
    """Kernel samples on a SIGALRM interval timer while the clock runs.

    Use as a context manager around the measured part of a run; the timer
    is stopped and the previous handler restored on exit.
    """

    def __init__(self, slope: float = 1.0):
        self.slope = slope
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._previous = None
        for _ in range(3):
            kernel()  # first calls pay for allocation and NumPy set-up

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.tick()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.tick()

    def tick(self) -> None:
        """Time the kernel once."""
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        finally:
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)

    def _speed(self, first: int, last: int) -> float:
        """REF_S over the mean kernel time of samples first..last, to the
        power `slope`."""
        first, last = max(first, 0), min(last, len(self.starts) - 1)
        total = sum(self.ends[i] - self.starts[i] for i in range(first, last + 1))
        return (REF_S * (last - first + 1) / total) ** self.slope

    def work(self, start: float, end: float) -> float:
        """Reference seconds of this thread's work in [start, end]: the
        kernel runs inside are left out, and each stretch between them is
        scaled by the samples on either side. Needs a sample after `end`."""
        inside = bisect.bisect_left(self.starts, start)
        after = bisect.bisect_left(self.starts, end)
        total, cursor = 0.0, start
        for i in range(inside, after):
            total += (self.starts[i] - cursor) * self._speed(i - 1, i)
            cursor = self.ends[i]
        return total + (end - cursor) * self._speed(after - 1, after)

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer while another process works, so the kernel does
        not compete with it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
