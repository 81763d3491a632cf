"""Host speed index: a fixed numpy/scipy kernel timed next to every call.

On the 2-core KVM guest (Xeon, Sapphire Rapids) the benchmark was built
on, the same estimator call with the same inputs takes up to 1.8x its
fastest time, in phases that last from seconds to many minutes.  Process
CPU time moves with it, so the guest is not descheduled: its core runs
slower.  Different code slows by different amounts: work on
cache-resident arrays (mls, ce, the Bessel function) more, streaming work
on large arrays (uis) less.

The kernel mixes the same kinds of work as the estimators: the
exponentially scaled Bessel function, and a Poisson-mixture recurrence of
numpy element-wise operations on a small, a medium and a large array.  It
calls no outagemc code, so a change to the package does not move it.
Scaling each call's seconds by ``NOMINAL_S / kernel seconds`` gives its
time at the speed at which the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

# About the kernel's time on the fast level of the host named above.
NOMINAL_S = 0.08

_BESSEL_X = np.random.default_rng(1).uniform(0.0, 60.0, 40_000)
# array length -> repeats; the three sizes take about the same time
_MIXTURE_REPEATS = {2_400: 60, 20_000: 15, 400_000: 1}
_MIXTURE_Y = {n: np.random.default_rng(n).uniform(0.1, 40.0, n)
              for n in _MIXTURE_REPEATS}


def _mixture(y: np.ndarray) -> np.ndarray:
    t = y * np.exp(-y)
    c = -np.expm1(-y)
    a = 1.0
    for _ in range(12):
        c = c - t
        t = t * (y / (a + 1.0))
        a += 1.0
        c = np.where(c > 0.0, c, 0.0)
    return special.ndtri(np.clip(c, 1e-12, 0.5))


def kernel_seconds() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(10):
        np.log(special.i0e(_BESSEL_X))
    for n, repeats in _MIXTURE_REPEATS.items():
        for _ in range(repeats):
            _mixture(_MIXTURE_Y[n])
    return time.perf_counter() - t0
