"""Problem instances and the combined-SNR statistic.

A channel instance is M independent Rician branches with line-of-sight
magnitudes mu_i and unit-variance scatter; the squared gain of branch i is
distributed as half a noncentral chi-square with 2 dof and noncentrality
2 mu_i^2.  The receiver combines the m strongest branches, so the outage
statistic is the sum of the m largest squared gains.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .samplers import _underflow
from .specfun import Ncx2Params, _log_density, ncx2_logcdf


@dataclass(frozen=True)
class ChannelConfig:
    """Immutable problem instance: select m of M branches, threshold gamma_th."""

    M: int
    m: int
    mu: tuple
    gamma_th: float

    def __post_init__(self):
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if not (isinstance(self.m, (int, np.integer)) and 1 <= self.m <= self.M):
            raise ValueError(f"m must satisfy 1 <= m <= M, got m={self.m!r}, M={self.M!r}")
        mu = tuple(float(v) for v in np.atleast_1d(np.asarray(self.mu, dtype=float)))
        if len(mu) == 1 and self.M > 1:
            mu = mu * self.M  # scalar broadcast
        if len(mu) != self.M:
            raise ValueError(f"mu must have length M={self.M}, got {len(mu)}")
        if any(not math.isfinite(v) or v < 0.0 for v in mu):
            raise ValueError("all mu_i must be finite and >= 0")
        g = float(self.gamma_th)
        if not (math.isfinite(g) and g > 0.0):
            raise ValueError(f"gamma_th must be finite and > 0, got {g!r}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma_th", g)

    @property
    def mu_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=float)

    @property
    def mu_norm_sq(self) -> float:
        return float(np.sum(self.mu_array ** 2))

    @property
    def identical_mu(self) -> bool:
        return len(set(self.mu)) == 1

    replace = dataclasses.replace


@dataclass
class EstimateResult:
    """Output of one estimator run.

    var_hat is the variance of the single-sample estimator; for the
    splitting estimator, where the natural unit of repetition is a
    replication, var_hat is rescaled so that var_hat / samples remains the
    variance of the final estimate (samples then counts simulated
    chain-steps).  work_units additionally includes pilot/adaptation cost.
    """

    p_hat: float
    var_hat: float
    samples: int
    wall_time_s: float
    method: str
    seed: int
    work_units: int = 0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.p_hat < 0.0:
            raise ValueError("p_hat must be >= 0")
        if self.var_hat < 0.0:
            raise ValueError("var_hat must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.work_units:
            self.work_units = self.samples

    @property
    def warnings(self) -> list:
        return self.diagnostics.get("warnings", [])


def gsc_statistic_rows(x: np.ndarray, m: int) -> np.ndarray:
    """Sum of the m largest entries of each row of an (n, M) sample block."""
    M = x.shape[1]
    if m == M:
        return x.sum(axis=1)
    return np.partition(x, M - m, axis=1)[:, M - m:].sum(axis=1)


def _log_outage_m2(config: ChannelConfig) -> float:
    """ln P(H <= gamma) at m = 2, conditioned on the second-largest branch value t.

    With branch k at t and branch j the largest, in (t, gamma - t], every other
    branch lies below t < gamma / 2 (David & Nagaraja, Order Statistics, 2003):
    p = sum_k int_0^{gamma/2} f_k(t) sum_{j != k} [F_j(gamma - t) - F_j(t)]
    prod_{i not in {j, k}} F_i(t) dt, by 64-node Gauss-Legendre in log space.
    A branch passes (mu_max + 5)^2 with chance below e^-25 (Marcum's Q_1(a, b)
    <= e^{-(b - a)^2 / 2}), so t stops there: two branches past it add nothing.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * min(0.5 * config.gamma_th, (max(config.mu) + 5.0) ** 2)
    t, mu = half * (x + 1.0), config.mu_array
    logcdf = {v: [[ncx2_logcdf(2.0 * s, Ncx2Params(2, 2.0 * v * v)) for s in row]
                  for row in (t, config.gamma_th - t)] for v in set(config.mu)}
    lo, hi = np.transpose([logcdf[v] for v in config.mu], (1, 2, 0))  # (node, branch)
    with np.errstate(divide="ignore"):  # -inf where both F round to 1
        gap = hi + np.log1p(-np.exp(lo - hi))  # ln(F_j(gamma - t) - F_j(t))
    term = ((_log_density(t[:, None], 0.5, 2.0 * mu * mu) - lo)[:, :, None]
            + (gap - lo)[:, None, :] + (lo.sum(axis=1) + np.log(half * w))[:, None, None])
    term[:, np.arange(config.M), np.arange(config.M)] = -math.inf  # j = k
    top = term.max()
    return float(top + math.log(np.exp(term - top).sum()))


def closed_form_outage(config: ChannelConfig) -> Optional[float]:
    """Exact outage probability where one exists; None otherwise.

    m=1: the outage event is every branch below threshold, so the
    probability factorizes over branches.  m=M: the combined statistic is
    the full sum, itself half a noncentral chi-square with 2M dof.  m=2:
    one integral over the second-largest branch value (_log_outage_m2).  All
    are summed in log space, which stays exact far in the left tail where
    the linear CDF reads 0.  A probability below the smallest normal double
    raises, not returns 0.
    """
    g2 = 2.0 * config.gamma_th
    if config.m == 1:
        log_p = math.fsum(ncx2_logcdf(g2, Ncx2Params(2, 2.0 * mu * mu)) for mu in config.mu)
    elif config.m == config.M:
        log_p = ncx2_logcdf(g2, Ncx2Params(2 * config.M, 2.0 * config.mu_norm_sq))
    elif config.m == 2:
        log_p = _log_outage_m2(config)
    else:
        return None
    p = math.exp(log_p)
    if p < np.finfo(float).tiny:
        raise _underflow(f"exact p={p!r}")
    return p
