"""CPU speed probe for one benchmark child.

The benchmark host is shared: the same code runs anywhere from about 0.7x
to 1.4x its typical speed, and the speed drifts over seconds and minutes as
other tenants load the machine.  Within a child the wall time equals its CPU
time, so the slowdown is in the CPU itself (cache and core contention,
clock), not in scheduling, and no amount of repetition averages it away
when it lasts for minutes.

The probe measures that speed while the program runs.  ``SpeedProbe.start``
arms a CPU-time interval timer; at every tick the signal handler runs a
small fixed piece of work (``reference_work``, Fraction arithmetic on dicts
of tuple keys, like the package's form kernels) and records how long it
took.  The work is the benchmark's own code, so a change to the package
does not change it.  Ticks are spread evenly over the child's time, so the
harmonic mean of the probe durations is the child's average speed, and

    ref_s = (measured_s - time spent in probes) * REFERENCE_PROBE_S / harmonic mean

is the time the same work would take on a CPU whose probe takes
``REFERENCE_PROBE_S``.  ``calibrate`` does the same for a short stretch
(set-up) by running the probe back to back instead.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# the nominal probe duration that defines a reference second; fixed, so
# reference times of different commits compare
REFERENCE_PROBE_S = 1.0e-3
# CPU time between two probes while the program runs (about 2% overhead)
INTERVAL_S = 0.05


def reference_work() -> Fraction:
    """Fixed work of about a millisecond: sparse polynomial products over
    the rationals, the package's dominant kind of work."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
    b = {(i, j): Fraction(j - 1, i + 3) for i in range(3) for j in range(4)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return sum(out.values(), Fraction(0))


def _timed_probe() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(durations: list[float]) -> float:
    """Slowdown against the reference CPU: >1 when slower."""
    return statistics.harmonic_mean(durations) / REFERENCE_PROBE_S


def calibrate(count: int = 40) -> list[float]:
    """Probe durations of ``count`` back-to-back probes (after two warm-up
    probes)."""
    for _ in range(2):
        _timed_probe()
    return [_timed_probe() for _ in range(count)]


class SpeedProbe:
    """Probes the CPU speed at regular CPU-time ticks while armed."""

    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.durations.append(_timed_probe())

    def start(self) -> None:
        for _ in range(2):
            _timed_probe()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def factor(self, fallback: float) -> float:
        """The speed factor over the armed time; ``fallback`` when it was
        too short for a single tick."""
        return speed_factor(self.durations) if self.durations else fallback

    def reference_s(self, measured_s: float, fallback: float) -> float:
        """``measured_s`` without the probes' own time, in reference
        seconds."""
        return (measured_s - sum(self.durations)) / self.factor(fallback)
