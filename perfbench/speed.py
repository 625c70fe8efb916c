"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared virtual machine the speed of one fixed pure-Python loop
drifts by up to 40% within a minute, so the wall time of an unchanged,
deterministic pass drifts as much between runs, and more passes in a run
do not average it out.  The probe runs a short reference loop every
``PERIOD_S`` seconds from a SIGALRM handler, in the measuring thread, and
each sample gives the machine's speed as ``NOMINAL_S`` over the loop's
duration.  A measured interval, minus the time spent in the probe, times
the mean speed sampled during it (and just before and after it) is the
interval in seconds at the reference speed: the time the same work would
take on a machine where the reference loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import contextlib
import math
import signal
from time import perf_counter

STEPS = 20000
#: Reference-loop duration that defines the unit; about its typical
#: duration on the 2-core x86-64 VM the baseline was measured on.
NOMINAL_S = 0.010
PERIOD_S = 0.25


def reference_seconds() -> float:
    t0 = perf_counter()
    z = 0j
    s = 0.0
    for i in range(1, STEPS):
        z = z * 0.5 + complex(math.sin(i), 1.0 / i)
        s += abs(z)
    return perf_counter() - t0


def speed_now(samples: int = 4) -> float:
    """Mean speed over a few back-to-back samples."""
    return sum(NOMINAL_S / reference_seconds() for _ in range(samples)) / samples


class SpeedProbe:
    """Speed samples and the time spent taking them."""

    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.speeds.append(NOMINAL_S / reference_seconds())
        self.spent += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every ``PERIOD_S`` seconds for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
