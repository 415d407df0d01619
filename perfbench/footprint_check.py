"""Check that the speed sampler does not depend on the program's footprint.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/footprint_check.py [rounds]

Runs the sampler of ``speed.py`` while three synthetic loads of the same
kind of speed but different cache footprints run: numpy-scalar code
(small), random gathers from a 64 MB array plus dict churn (large), and
thin SVDs of a 300×50 matrix (BLAS). A fourth slot calls the handler back
to back. Slots of 0.2-0.3 s run in a shuffled order for each round, so all
four see the same contention from other tenants on average. For each load
it prints the median time of the handler's warm-up run of the reference
loop and of its timed run, as a share of the back-to-back timed run. The
timed run should read the same (within noise) whatever the load; the
warm-up run shows how much it would move without the warm-up.
"""

import os
import random
import statistics
import sys
import time

import numpy as np

import speed

_E = np.array([1.05, 1.03, 1.02])
_D = np.array([0.3, 0.1, -0.2])
_BIG = np.random.default_rng(0).random(8_000_000)
_IDX = np.random.default_rng(1).integers(0, _BIG.size, 20_000)
_THIN = np.random.default_rng(2).random((300, 50))


def small():
    for _ in range(50):
        a = _D[0] - _D[1]
        _E[0] * _E[1] * np.cos(a) + np.sin(a)


def large():
    for k in range(0, _IDX.size, 2000):
        _BIG[_IDX[k:k + 2000]].sum()
    d = {}
    for k in range(3000):
        d[k * 7919 % 100003] = k


def blas():
    np.linalg.svd(_THIN, full_matrices=False)


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("warning: OPENBLAS_NUM_THREADS is not 1", file=sys.stderr)
    sampler = speed.SpeedSampler()
    loads = {"back-to-back": sampler.tick, "small": small, "large": large,
             "blas": blas}
    seen = {name: [] for name in loads}
    rng = random.Random(0)
    for _ in range(rounds):
        order = list(loads)
        rng.shuffle(order)
        for name in order:
            first = len(sampler.ticks)
            if name != "back-to-back":
                sampler.start()
            end = time.perf_counter() + rng.uniform(0.2, 0.3)
            while time.perf_counter() < end:
                loads[name]()
            sampler.stop()
            seen[name] += range(first, len(sampler.ticks))
    base = statistics.median(sampler.loop_s[i] for i in seen["back-to-back"])
    print(f"back-to-back timed run: {base * 1e6:.1f} µs")
    for name, ticks in seen.items():
        warm = statistics.median(sampler.warmup_s[i] for i in ticks) / base
        timed = statistics.median(sampler.loop_s[i] for i in ticks) / base
        print(f"{name:>12}: {len(ticks):6d} ticks, warm-up run {warm:.3f}, "
              f"timed run {timed:.3f}")


if __name__ == "__main__":
    main()
