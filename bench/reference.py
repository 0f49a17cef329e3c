"""The reference loop, the benchmark's yardstick for the machine's speed.

On a small shared machine the speed of a core drifts by up to 2x over
minutes, as other tenants come and go, so plain seconds drift with it.  The
benchmark gives times in units of a reference chunk instead: a fixed loop
that evaluates a quadratic exactly with Fractions and stores the values in a
dict, the kind of work the program's hot loops do.  This module uses the
standard library only, so no change to the program moves it, and a fresh
interpreter can time it without importing the program.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

REF_CHUNKS = 16  # reference chunks timed back to back between two ops
REF_EVERY_S = 0.025  # and one more every this many seconds of wall time during an op

_REF_COEFFS = (Fraction(6), Fraction(-6), Fraction(3, 2), Fraction(-2), Fraction(3, 2))


def reference_chunk() -> int:
    a, b, c, d, e = _REF_COEFFS
    seen = {}
    for x in range(6):
        for y in range(6):
            seen[int(a * x * x + b * x * y + c * y * y + d * x + e * y)] = (x, y)
    return len(seen)


class ReferenceClock:
    """Samples the machine's speed as the (wall, CPU) seconds of one reference chunk.

    ``block`` times chunks back to back between two ops.  Inside ``during``,
    an interval timer runs one chunk from a SIGALRM handler every
    ``REF_EVERY_S`` seconds, so that the speed is sampled over the whole op
    and not only at its ends; ``spent`` is the handler's (wall, CPU) time,
    which the caller takes out of the op's own times.  Pool workers do not
    inherit the timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = (0.0, 0.0)

    def _time_chunk(self) -> tuple[float, float]:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        reference_chunk()
        sample = (time.perf_counter() - wall0, time.process_time() - cpu0)
        self.samples.append(sample)
        return sample

    def block(self, chunks: int = REF_CHUNKS) -> None:
        for _ in range(chunks):
            self._time_chunk()

    def _on_alarm(self, signum, frame) -> None:
        wall0 = time.perf_counter()
        _, cpu = self._time_chunk()
        wall, spent_cpu = self.spent
        self.spent = (wall + time.perf_counter() - wall0, spent_cpu + cpu)

    @contextlib.contextmanager
    def during(self):
        self.spent = (0.0, 0.0)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> tuple[float, float]:
        """Mean (wall, CPU) of the samples since the last ``take``, without
        the slowest and fastest 5%.  A mean and not a median, because the op
        is slowed by the same stalls that make a few samples slow."""
        walls, cpus = zip(*self.samples)
        self.samples = []
        return _trimmed_mean(walls), _trimmed_mean(cpus)


def _trimmed_mean(values, share: float = 0.05) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])
