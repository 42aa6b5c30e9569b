"""Core speed, sampled while the workload runs, to rescale its timings.

On a shared virtual machine the speed of a core drifts by half or more
over seconds, with neighbours' load, so raw pass times of one input spread
by a third between runs.  A fixed calibration kernel run at regular
intervals of process CPU time measures that speed where the workload
runs.  Rescaling a measured time by the mean of REFERENCE / kernel time
over the samples turns it into seconds at the reference speed, at which
the kernel takes REFERENCE seconds: a run at half speed gets half the
weight per second.  The rescaled times of one input repeat within a few
per cent, where the raw ones do not.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE = 0.4e-3  # seconds of the kernel at the reference speed
INTERVAL = 0.02  # seconds of process CPU time between samples


def kernel() -> Fraction:
    """Fixed interpreter work of the kind canring does: Fraction and
    integer arithmetic and small-dict updates."""
    total = Fraction(0)
    acc = 0
    table = {}
    for i in range(1, 150):
        total += Fraction(i, i + 1)
        acc = (acc * 31 + i * i) % 1000003
        table[i & 63] = acc
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_of(samples: list[float]) -> float:
    """Mean speed relative to the reference over kernel times."""
    return statistics.fmean(REFERENCE / s for s in samples)


class Sampler:
    """Runs the kernel from a SIGPROF handler every INTERVAL of CPU time.

    ``spent`` is the time taken by the kernel itself, which callers take
    off their measured intervals; ``samples`` are the kernel times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        took = time_kernel()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def speed(self, since: int = 0) -> float:
        """Mean speed over the samples taken since index ``since``; one
        fresh sample when none were taken (an interval shorter than
        INTERVAL)."""
        samples = self.samples[since:] or [time_kernel()]
        return speed_of(samples)
