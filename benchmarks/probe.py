"""Host-speed probe: states measured times for a host of fixed speed.

On a shared host the same pass can take 1.5 times longer from one second to
the next, and whole runs minutes apart differ as much, because the CPU is
slower while other tenants are busy; CPU time slows with wall time, so
measuring CPU time does not help.  A sampler thread in the benchmark process
runs a fixed probe every ``PERIOD_S`` seconds and records the probe's CPU
time.  The process is pinned to one CPU first, so the probe runs on the CPU
the work runs on.

A stretch of work during which the probe took ``m`` seconds on average is
scaled by ``NOMINAL_S / m``: the result is the time the work would take on a
host on which the probe takes ``NOMINAL_S``.  A change to eqnf moves the
measured time and not the probe, so it shows in the scaled time in full.
"""
from __future__ import annotations

import os
import threading
import time

PERIOD_S = 0.05
# The probe took 0.7 to 1.1 ms on a 2-core Xeon VM, 0.8 ms or less while
# the host was fast, so scaled times stay close to the seconds measured
# there on a fast host.
NOMINAL_S = 0.8e-3


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the threads and processes it starts later) to
    the lowest CPU it may run on; return that CPU, or None where the
    platform has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Runs the probe every ``period`` seconds on a sampler thread;
    ``readings`` holds (perf_counter at start, probe CPU seconds).

    The probe is a chain of 6 x 6 matrix operations, bound by the cost of a
    numpy call like the small Newton steps of nf-sweep and reduce, and a
    chain of 96 x 96 matrix products, bound by BLAS like nf-wide.  Of
    probes timed beside repeated passes of each workload on a 2-core Xeon
    VM (a Python loop, each chain alone, mixes), this one left the least
    spread in the scaled pass times over all three workloads: 2 to 3% in
    place of 7 to 10% unscaled.
    """

    def __init__(self, period: float = PERIOD_S):
        self._period = period
        self._stop = threading.Event()
        self._thread = None
        self._small = self._large = None
        self.readings = []

    def __enter__(self):
        import numpy as np
        self._small = np.linspace(-1.0, 1.0, 6 * 6).reshape(6, 6)
        self._large = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
        self._probe()  # first call outside the readings
        self._thread = threading.Thread(target=self._sample, name="speed-probe",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _probe(self):
        a = b = self._small
        for _ in range(120):
            b = (a @ b) * 0.1 + a.T
        c = d = self._large
        for _ in range(6):
            d = (c @ d) * 0.1 + c.T
        return b, d

    def _sample(self):
        while not self._stop.wait(self._period):
            t0 = time.perf_counter()
            c0 = time.thread_time()
            self._probe()
            self.readings.append((t0, time.thread_time() - c0))

    def between(self, a: float, b: float) -> list:
        """CPU times of the readings that started in [a, b)."""
        return [c for t, c in self.readings if a <= t < b]


def scale_factor(inside) -> float:
    """``NOMINAL_S`` over the mean of the (non-empty) readings ``inside`` a
    stretch of work."""
    return NOMINAL_S * len(inside) / sum(inside)
