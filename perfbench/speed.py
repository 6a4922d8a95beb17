"""Machine-speed probe that puts wall times taken at different moments on one scale.

On a shared host the speed of the same code swings by up to 2x over a few
seconds, because other tenants load the cores, caches and memory that the
benchmark shares. The probe times a fixed kernel right before and right
after each timed sample; the sample is then reported in reference seconds,

    scaled = wall * reference / mean(probe before, probe after),

so a sample taken while the host runs at half speed reads as it would at
the reference speed. The kernel mirrors the cost that dominates the
workload: a NumPy sort of 1000 values and an interpreter loop, plus, for a
workload dominated by the dense operator, products of a 1000 x 1000 matrix
with a vector through BLAS. The kernel does not touch the package, so a
change to the package moves the scaled times exactly as it moves the wall
times. Raw wall times stay in the run's metadata.
"""

from __future__ import annotations

import time

import numpy as np

INTERPRETER_S = 0.003   # interpreter kernel time at the reference speed
BLAS_S = 0.0045         # matrix-vector kernel time at the reference speed


class SpeedProbe:
    def __init__(self, blas=False):
        rng = np.random.default_rng(0)
        self._x = rng.random(1000)
        self._A = rng.random((1000, 1000)) if blas else None
        self._reference = INTERPRETER_S + (BLAS_S if blas else 0.0)

    def probe(self):
        """Wall seconds of one run of the fixed kernel."""
        x, total = self._x, 0.0
        t0 = time.perf_counter()
        for _ in range(400):
            total += float(np.sort(x)[0])
            for k in range(40):
                total += k * 0.5
        if self._A is not None:
            for _ in range(8):
                total += float((self._A @ x)[0]) + float((x @ self._A)[0])
        return time.perf_counter() - t0

    def timed(self, fn, *args):
        """``fn(*args)`` timed between two probes: (wall_s, scaled_s, result)."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self.probe()
        return wall, wall * self._reference / (0.5 * (before + after)), result
