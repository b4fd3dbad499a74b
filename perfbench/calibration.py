"""Host speed probe: a fixed kernel timed between jobs, to rescale job times.

The benchmark shares a few cores of a host with other tenants. Their load
slows every instruction of this process for seconds to minutes at a time,
by up to 1.5x, and CPU time slows with it, so neither wall time nor process
time of a 30 s window is steady. The probe below runs the same kind of work
as the evosis hot paths, but none of the program's code: a Python loop of
elementwise ufuncs and one LAPACK tridiagonal solve on 201-point vectors,
as in the coupled step and the single-column period-map apply. A job's
time divided by the probe's time around it is the job's cost in
host-independent units; multiplied by REFERENCE_S it reads as seconds on
the reference host.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lapack

POINTS = 201
STEPS = 200
# A probe lasts at least MIN_S, and SHARE of the job before it, so that it
# spans as many of the host's short slow-downs as a long job does.
MIN_S = 0.02
SHARE = 0.05
# Near the pass time on the reference host of baseline.json (2-core Intel
# Xeon, Python 3.11, numpy 2.4, OpenBLAS, one BLAS thread), where the median
# pass of a run took 1.9 to 3.5 ms. A fixed scale: changing it would shift
# every rescaled time against earlier baselines.
REFERENCE_S = 2.5e-3


class Probe:
    """The fixed kernel and its timing; builds its inputs once."""

    def __init__(self) -> None:
        x = np.linspace(0.0, 1.0, POINTS)
        off = np.full(POINTS - 1, -1.0)
        self._factors = lapack.dgttrf(off, np.full(POINTS, 4.0), off.copy())[:5]
        self._u = 0.5 + 0.25 * np.cos(2.0 * np.pi * x)
        self._v = 0.1 + x * (1.0 - x)

    def _kernel(self) -> float:
        dl, d, du, du2, ipiv = self._factors
        u, v = self._u, self._v
        total = 0.0
        for _ in range(STEPS):
            w = u * v
            y = w / (1.0 + np.exp(-w)) + 0.5 * v
            z, info = lapack.dgttrs(dl, d, du, du2, ipiv, y)
            if info or not np.isfinite(z).all():
                raise ArithmeticError("calibration kernel failed")
            total += z[POINTS // 2]
        return total

    def run(self, after_s: float = 0.0) -> tuple[float, int]:
        """Runs whole passes of the kernel for max(MIN_S, SHARE * after_s): (seconds, passes)."""
        budget = max(MIN_S, SHARE * after_s)
        passes = 0
        start = time.perf_counter()
        while True:
            self._kernel()
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                return elapsed, passes
