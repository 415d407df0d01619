"""Core-speed sampler that corrects timings for load from other tenants.

On a shared host, other tenants slow the core this benchmark runs on, in
CPU time as well as wall time, in episodes lasting seconds to minutes. On
the 2-vCPU Intel Xeon VM the figures here come from (Python 3.11.7, numpy
2.4.6, OpenBLAS 0.3.31 on one thread), the fixed loop of numpy-scalar code
below takes about 125 µs back to back on a quiet core and 180-280 µs in
those episodes. A run catches a varying share of them, so raw wall times of
the same code spread by 6-30% between runs. The episodes are per core: the
loop's speeds on the two vCPUs correlate at 0.2, so the speed has to be
sampled on the core the program runs on.

Every PERIOD_S seconds a SIGALRM handler runs that reference loop twice and
times the second run. The first run only warms the caches and branch
predictors with the loop's own code and data, so the timed run does not
depend on what the interrupted program left in them: the loop's first run
after a load with a small, a 64 MB or a BLAS footprint took 1.08, 1.16
and 1.16 times its back-to-back time, the timed second run 0.99-1.01 times
(``footprint_check.py``). Ticks are evenly spaced in wall time, so the mean
of 1/d over the ticks inside an interval is the core's average speed over
it. A timed interval is reported in reference seconds,
the seconds it would take on a core whose loop time is REFERENCE_LOOP_S:

    corrected = (raw − handler time) × REFERENCE_LOOP_S × mean(1/d)

REFERENCE_LOOP_S is the loop's back-to-back time on that VM's quiet core,
so reference seconds are close to uncontended seconds. It is a constant on
purpose: a per-run estimate is itself inflated when a whole run is
contended.

A signal handler runs between bytecodes, so a tick that falls in a long C
call waits for it to return; ``max_gap_s`` reports the longest wait. An
interval with no tick inside takes the speed of the nearest ticks.
"""

import bisect
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.02
REFERENCE_LOOP_S = 125e-6

_E = np.array([1.05, 1.03, 1.02])
_G = np.array([[0.4, 0.0, 0.0], [0.0, 0.35, 0.0], [0.0, 0.0, 0.28]])
_B = np.array([[-2.2, 1.0, 0.7], [1.0, -2.3, 0.8], [0.7, 0.8, -2.0]])
_DELTA = np.array([0.3, 0.1, -0.2])


def reference_loop(out):
    """A frozen three-machine swing-equation right-hand side, 12 times."""
    for _ in range(12):
        for i in range(3):
            p = _E[i] * _E[i] * _G[i, i]
            for j in range(3):
                if j != i:
                    a = _DELTA[i] - _DELTA[j]
                    p += _E[i] * _E[j] * (_G[i, j] * np.cos(a)
                                          + _B[i, j] * np.sin(a))
            out[i] = p


class SpeedSampler:
    def __init__(self):
        self.ticks = array("d")
        self.handler_s = array("d")
        self.warmup_s = array("d")
        self.loop_s = array("d")
        self._out = np.empty(3)

    def tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop(self._out)
        t1 = time.perf_counter()
        reference_loop(self._out)
        t2 = time.perf_counter()
        self.ticks.append(t0)
        self.warmup_s.append(t1 - t0)
        self.loop_s.append(t2 - t1)
        self.handler_s.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def interval(self, t0, t1):
        """Raw seconds of [t0, t1], the handler time inside it and the
        core speed sampled by the ticks inside it (or the nearest ones)."""
        lo = bisect.bisect_left(self.ticks, t0)
        hi = bisect.bisect_left(self.ticks, t1)
        handler = sum(self.handler_s[lo:hi])
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.ticks), hi + 1)
        inside = self.loop_s[lo:hi]
        return {"raw": t1 - t0, "handler": handler,
                "inv": sum(1.0 / d for d in inside), "ticks": len(inside)}

    def max_gap_s(self):
        """Longest wall time between two ticks."""
        return max((b - a for a, b in zip(self.ticks, self.ticks[1:])),
                   default=0.0)


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def corrected(interval):
    """Reference seconds of `interval`."""
    if not interval["ticks"]:
        raise ValueError("no speed sample: the sampler never ticked")
    busy = interval["raw"] - interval["handler"]
    return busy * REFERENCE_LOOP_S * interval["inv"] / interval["ticks"]
