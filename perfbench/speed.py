"""Machine-speed calibration for the time metrics.

The benchmark runs on shared machines whose speed drifts: the same
operation runs 20-25% slower or faster from one call to the next and
from one minute to the next, and the process's CPU time grows as much
as its wall time, so neither longer runs nor CPU time remove the drift.
A fixed calibration loop, sampled just before and just after each timed
step, slows with the step: on the warm operations it halves their spread.
Every end-to-end time is therefore reported scaled to the machine's
reference speed, step by step:

    reported = measured * REFERENCE_S / median(samples before and after)

On a machine running at its reference speed the scale is 1 and the
reported time is the wall time; the scales and the unscaled times are
printed beside the metrics.

The loop does the kind of work that tracks the program's slow-downs:
exact float sums (``math.fsum``) over an array the size of an N = 3
rule, which is how the program reduces, vectorised numpy arithmetic,
and interpreted Python.  It is fixed: changing it changes the unit of
every time metric.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0100  # median sample time on the reference machine (see README.md)
EDGE_SAMPLES = 8  # samples before the first step of a clock
SHARE = 0.05  # calibration time after a step, as a share of the step's time

_X = np.linspace(0.5, 2.0, 55296)


def sample() -> float:
    """Time one pass of the calibration loop, in seconds."""
    start = perf_counter()
    y = np.sin(_X) * _X + np.sqrt(_X)
    math.fsum(y)
    math.fsum(_X)
    math.fsum(_X)
    d: dict = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0.0) + i
    return perf_counter() - start


def samples(count: int) -> list:
    return [sample() for _ in range(count)]


def scale(calibration: list) -> float:
    """Factor from measured to reference-speed time."""
    return REFERENCE_S / statistics.median(calibration)


class Clock:
    """Times a sequence of steps and scales each by the calibration
    samples taken just before and just after it.  The samples after a
    step take about ``SHARE`` of its time (at least two) and are also
    the samples before the next step; none of them is timed."""

    def __init__(self):
        self.raw: list = []
        self.scaled: list = []
        self.scales: list = []
        self._before = samples(EDGE_SAMPLES)

    def record(self, elapsed: float) -> None:
        """Record a step of ``elapsed`` seconds that has just ended."""
        after = samples(max(2, round(SHARE * elapsed / REFERENCE_S)))
        factor = scale(self._before + after)
        self._before = after
        self.raw.append(elapsed)
        self.scaled.append(elapsed * factor)
        self.scales.append(factor)

    def time(self, call, *args, **kwargs):
        """Call ``call`` as one step; a step that raises is still recorded."""
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.record(perf_counter() - start)


sample()  # the first pass pays for numpy's lazy set-up
