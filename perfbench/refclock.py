"""Timings in reference seconds, which cancel the host's changes of speed.

The machine the benchmark was built on, a 2-vCPU VM on a shared host,
changes speed by up to 2x, with no steal time reported: the same ridge
fits took 0.52 s in one stretch and 0.95 s in the next, and one vCPU's
probe time (below) jumped between 11 and 22 ms from one tenth of a second
to the next. CPU time slows just as wall time does. Over a run, raw wall
time then says mostly how much of the run fell in slow stretches, and
ten runs of identical work spread by 9-42%.

So the speed is read off a fixed probe that does not call poisonbench:
small least-squares solves and coordinate-descent sweeps, the mix
poisonbench spends its time on. The probe runs before and after every
timed step, and every SAMPLE_EVERY_S inside it, from a SIGALRM handler
on the main thread. A step's reference time is its raw seconds times
REF_PROBE_S over the mean of those probe readings. A probe reads its own
thread's CPU time, so it measures the host's speed and not the time it
waited for a vCPU that pool workers keep busy. When the host runs at the
speed the constant was taken at, reference and raw seconds agree. Raw
seconds are kept beside every reference figure. A change to poisonbench
moves raw and reference seconds alike, because the probe does not run
its code.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# CPU seconds of one probe on the reference host (2-vCPU Intel Xeon VM)
# in its fast state; it only sets the scale of the reported figures
REF_PROBE_S = 0.0200
PROBE_BLOCKS = 80
SAMPLE_EVERY_S = 0.4

_rng = np.random.default_rng(12345)
_X = _rng.random((300, 6))
_Y = _rng.random(300)


def probe() -> float:
    """CPU seconds for a fixed run of small numpy calls and scalar Python."""
    t0 = time.thread_time()
    x, y = _X, _Y
    for _ in range(PROBE_BLOCKS):
        theta = np.linalg.lstsq(np.hstack([x, np.ones((300, 1))]), y, rcond=None)[0]
        resid = y - x @ theta[:6] - theta[6]
        w = np.zeros(6)
        for _ in range(8):
            for j in range(6):
                col = x[:, j]
                rho = col @ resid + w[j]
                new = math.copysign(max(abs(rho) - 0.01, 0.0), rho) / 100.0
                resid += col * (w[j] - new)
                w[j] = new
            resid -= float(np.mean(resid))
    return time.thread_time() - t0


class Clock:
    """Times steps in raw and reference seconds."""

    def __init__(self, sample: bool = True):
        # a traced pass does not sample inside steps, so no span is
        # charged with probe time
        self.sample_every_s = SAMPLE_EVERY_S if sample else 0.0
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probes: list[float] = []
        self.last_probe = self._probe()

    def _probe(self) -> float:
        self.probes.append(probe())
        return self.probes[-1]

    def time(self, fn, *args, in_process: bool = True):
        """(fn's result, raw seconds, speed factor). Reference seconds are
        raw seconds times the factor. When fn runs in this process, the
        probes inside it delay it, and their time is taken out of the raw
        seconds; when it waits on a child process, they do not."""
        readings = [self.last_probe]
        probing = 0.0

        def sample(signum, frame):
            nonlocal probing
            t = time.perf_counter()
            readings.append(self._probe())
            probing += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.sample_every_s, self.sample_every_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = time.perf_counter() - t0 - (probing if in_process else 0.0)
        self.last_probe = self._probe()
        factor = REF_PROBE_S / statistics.mean(readings + [self.last_probe])
        self.raw_s += raw
        self.ref_s += raw * factor
        return result, raw, factor
