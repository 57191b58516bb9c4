"""Reference probes: fixed kernels that track the machine's current speed.

On a shared host the same code does not run at the same speed from one
second to the next.  On an x86_64 host with 2 vCPUs, one RK4 answer
took anywhere from 103 ms to 221 ms over a minute of identical calls, and
native LAPACK code drifted less but still by several percent, so raw batch
times spread by 9-25 % from run to run with no change in the work.

A probe is a small kernel that never changes and never calls magband.  Each
answer is bracketed by probe timings, and its latency is scaled by
`nominal / (mean of the two probe times)`: the answer's time at the speed the
machine had when the probe's `nominal` time was taken.  A change to magband
changes the answers and not the probes, so it still shows in full.  Each
workload uses the probe whose code resembles its hot path.
"""

from __future__ import annotations

from math import sqrt
from time import perf_counter

import numpy as np
from scipy.linalg import eigh_tridiagonal

# A fiber-like operator at n=5, m=1, xi=1 on Grid(20, 1200): the solver's
# Sturm-bisection eigensolve at a quarter of the band sweep's size.
_H = 20.0 / 1200
_R = _H * np.arange(1, 1200)
_DIAGONAL = 2.0 / _H**2 + 3.75 / _R**2 + (_R - 1.0) ** 2
_OFFDIAGONAL = np.full(_R.size - 1, -1.0 / _H**2)


def _lapack() -> None:
    eigh_tridiagonal(
        _DIAGONAL, _OFFDIAGONAL, eigvals_only=True, select="i",
        select_range=(0, 2), check_finite=False,
    )


def _rates(x, y, vx, vy):
    r = sqrt(x * x + y * y)
    return (vx, vy, -x / r - 0.1 * vy, -y / r + 0.1 * vx)


def _python() -> None:
    """Pure-Python RK4 steps on tuples, the style of magband's integrator."""
    y = (1.0, 0.0, 0.0, 0.8)
    dt = 1e-3
    for _ in range(100):
        k1 = _rates(*y)
        k2 = _rates(*(y[j] + 0.5 * dt * k1[j] for j in range(4)))
        k3 = _rates(*(y[j] + 0.5 * dt * k2[j] for j in range(4)))
        k4 = _rates(*(y[j] + dt * k3[j] for j in range(4)))
        y = tuple(y[j] + dt / 6.0 * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]) for j in range(4))


class Probe:
    """A kernel and its nominal time; `time()` runs it and returns seconds."""

    def __init__(self, kernel, nominal_s: float) -> None:
        self.kernel = kernel
        self.nominal_s = nominal_s

    def time(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start


# Nominal times: the medians measured on that host with Python 3.11 and
# scipy 1.17.
LAPACK = Probe(_lapack, 1.15e-3)
PYTHON = Probe(_python, 0.75e-3)
