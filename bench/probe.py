"""Host speed probe: a fixed reference loop timed all through a measurement.

On a shared machine other tenants slow this process down by up to half, for
fractions of a second to tens of seconds at a time, without showing as CPU
steal (seen on a 2-vCPU cloud VM: 30 s runs of the same work differing by
40 %).  Such drift swamps the differences the benchmark exists to resolve.
The probe runs a small pure-Python loop from a timer signal every PERIOD
seconds, between the program's own bytecodes, and records how long it took.
An operation's time divided by the loop's median time around it is its time
in reference-loop units, from which the host's drift largely cancels.

The loop's code is the benchmark's, not the program's, so a change to the
program moves only the operation times.  The probe adds its own run time,
about 1 % of wall time, to every operation it interrupts.

Set-up is too short for the timer, so loop_time() runs the loop a few times
in a row right after it; REF_LOOP_S turns a time in loop units back into
seconds on a host where the loop takes that long.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array

PERIOD = 0.05    # s between probe ticks
WINDOW = 0.5     # s either side of an operation whose ticks set its speed
REF_LOOP_S = 5e-4  # nominal loop time: about its uncontended time on a 2-vCPU cloud VM
_DATA = [float(i) for i in range(200)]


def reference_loop() -> None:
    """Interpreter-bound work of fixed size: float math and dict stores."""
    for _ in range(12):
        d = {}
        for x in _DATA:
            d[x] = math.sqrt(x * x + 1.0) + len(d)


def loop_time(repeats: int = 15) -> float:
    """Median time of the reference loop run `repeats` times in a row."""
    took = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        took.append(time.perf_counter() - t0)
    return statistics.median(took)


class SpeedProbe:
    """Context manager that samples the reference loop's time on a timer."""

    def __init__(self):
        self.at = array("d")     # perf_counter at each tick
        self.took = array("d")   # reference loop time at each tick, s
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def ref_units(self, t0: float, duration: float) -> float:
        """Operation time over the reference loop's median time near it."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t0 + duration + WINDOW)
        if lo == hi:
            raise RuntimeError(f"no probe tick within {WINDOW} s of an operation")
        return duration / statistics.median(self.took[lo:hi])
