"""Machine-speed calibration for the benchmark's timings.

On a shared VM the speed of identical work drifts by up to 2x, in phases
of seconds to a minute, because of load the guest cannot see.  While a
timed region runs, an interval timer interrupts it every INTERVAL_S and
runs a fixed reference probe (small numpy arrays, a Python loop, a small
complex matrix product: the kind of work clarklab does) twice, timing the
second run.  The first run brings the probe's code and data back into the
caches the program has filled, so the timed run measures the machine's
speed on warm work, as the program runs, and not how much of the cache
the program used.  The time of both runs is taken out of every measured
time, and a run's times are reported at nominal machine speed: each is
multiplied by NOMINAL_PROBE_S over the mean probe time of the run.  Over
ten seeds, 20-second means then spread by 3% to 11% of their median.
probecheck.py measures that
the program's own work, threaded BLAS included, does not move the probe
time (README.md gives the figures).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Probe time at full speed on the 2-vCPU VM the reference figures come from.
NOMINAL_PROBE_S = 0.002

_T = np.linspace(-1.0, 1.0, 48)
_M = np.linspace(0.5, 1.5, 48) / 48.0
_A = np.exp(1j * np.arange(144.0).reshape(12, 12)) / 12.0


def probe() -> float:
    """Fixed reference work; returns a value so nothing is optimized away."""
    x = np.linspace(-0.99, 0.99, 24)
    b = _A
    acc = 0.0
    for _ in range(100):
        x = x - 1e-7 * np.sum(_M[None, :] / (_T[None, :] - x[:, None]), axis=1)
        acc += math.fsum(float(v) for v in x[:8])
        b = _A @ b
    return acc + float(abs(b[0, 0]))


class Calibrator:
    """Runs the probe on a timer inside a `with` block and keeps its times.

    `spent` is the total time of the handler so far, untimed probe runs
    included; a caller subtracts its growth over a measured interval.
    Single-threaded use only: the handler runs in the main thread between
    bytecodes.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        timed = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Nominal over measured probe time: multiply a raw time by it."""
        if not self.samples:  # the timed region was shorter than INTERVAL_S
            self._tick(None, None)
        return NOMINAL_PROBE_S / statistics.fmean(self.samples)
