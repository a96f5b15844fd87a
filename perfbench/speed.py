"""Machine-speed sampler for a shared host.

On a host whose cores are shared with other tenants, the same pure-Python
work can take 1.5 times longer from one minute to the next.  The sampler
measures that drift inside the process whose time is being measured: every
``INTERVAL_S`` a timer signal runs a fixed calibration slice of exact rational
arithmetic and records how long it took.  A slice time over ``SLICE_REF_S`` is
the slowdown at that moment.

The benchmark divides each measured time by the slowdown over the same
interval, so it reports seconds on a machine where one slice takes
``SLICE_REF_S``.  A change to kwall moves the request time but not the
slices, so the normalized time moves with it.  The slices' own time is
subtracted from every measured interval.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
SLICE_REF_S = 1e-4


def calibration_slice() -> Fraction:
    """Fixed exact work, about 0.1 ms on an idle core of the reference host."""
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return s


class SpeedSampler:
    """Runs a calibration slice on every SIGALRM tick of a real-time timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0  # total seconds inside slices

    def _tick(self, signum, frame) -> None:
        # the first slice brings its code and data back into cache; only the
        # second is timed, so the sample does not depend on what kwall evicted
        t0 = perf_counter()
        calibration_slice()
        t1 = perf_counter()
        calibration_slice()
        t2 = perf_counter()
        self.samples.append((t1, t2 - t1))
        self.spent += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def report(self) -> dict:
        return {"spent_s": self.spent, "slices_s": [dt for _, dt in self.samples],
                "starts": [t for t, _ in self.samples]}

