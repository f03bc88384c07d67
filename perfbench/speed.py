"""Machine-speed probe for timings taken on a shared host.

On the KVM guests this benchmark was built on, co-tenant load changes the
speed of the same interpreter-bound code by up to 2x, in phases lasting
from a second to over a minute, while steal time stays at zero. Medians
within one run cannot remove a phase that outlasts the run, so every
timed interval is also reported at a fixed reference speed.

While the probe is active a SIGALRM every PERIOD_S runs a fixed unit of
work and records its duration. The unit mixes the program's two kinds of
cost, interpreter-bound small numpy calls and dict updates, and passes
over arrays the size of the encoder's embedding table; it uses no
hyperclass code, so a faster program cannot make the unit faster. An interval [a, b]
then has
    raw seconds        = b - a - (probe time inside [a, b])
    reference seconds  = raw * REFERENCE_UNIT_S * mean(1 / unit times near [a, b])
where "near" widens intervals shorter than WINDOW_S to that length around
their middle. Work done is the time integral of speed, and speed is the
inverse of the unit time, so the mean is taken over 1 / unit time: speed
flips between two levels within a second, and an average of unit times
would weight the slow level too heavily.
The handler runs in the main thread between bytecodes, so it samples the
speed throughout any workload without changing the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
WINDOW_S = 1.0
# Unit time at the reference speed: about the uncontended time on a
# 2-core Intel Xeon KVM guest (numpy 2.4.6, Python 3.11). A scale factor.
REFERENCE_UNIT_S = 0.0025

_X = np.linspace(0.0, 1.0, 64)
_TABLE = np.linspace(0.0, 1.0, 701 * 64).reshape(701, 64)
_H = np.linspace(0.0, 1.0, 128)


def unit_s() -> float:
    """Seconds taken by one calibration unit."""
    start = perf_counter()
    acc: dict[int, float] = {}
    for i in range(2000):
        acc[i % 97] = acc.get(i % 97, 0.0) + float(np.dot(_X, _X))
    for _ in range(12):
        table = np.zeros_like(_TABLE)
        table += _TABLE
        acc[0] += float(table.sum() + np.outer(_H, _X).sum())
    return perf_counter() - start


class SpeedProbe:
    """Context manager that samples machine speed on a timer signal."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []
        self.units: list[float] = []
        self.costs: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        unit = unit_s()
        self.starts.append(start)
        self.units.append(unit)
        self.costs.append(perf_counter() - start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """(raw, reference) seconds of the interval, probe time excluded."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.costs[i:j])
        pad = max(0.0, WINDOW_S - (end - start)) / 2
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_left(self.starts, end + pad)
        units = self.units[lo:hi] or self.units[max(lo - 1, 0) : lo + 1]
        return raw, raw * REFERENCE_UNIT_S / statistics.harmonic_mean(units)

    def speed(self) -> float:
        """Mean machine speed over the probe's life; 1.0 = reference."""
        return REFERENCE_UNIT_S / statistics.harmonic_mean(self.units)
