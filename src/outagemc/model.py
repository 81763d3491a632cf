"""Problem instances and the combined-SNR statistic.

A channel instance is M independent Rician branches with line-of-sight
magnitudes mu_i and unit-variance scatter; the squared gain of branch i is
distributed as half a noncentral chi-square with 2 dof and noncentrality
2 mu_i^2.  The receiver combines the m strongest branches, so the outage
statistic is the sum of the m largest squared gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .samplers import TruncationUnderflowError
from .specfun import Ncx2Params, ncx2_cdf


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
    def k_factors(self) -> np.ndarray:
        """Per-branch Rice K-factor, |mu_i|^2."""
        return self.mu_array ** 2

    @property
    def total_powers(self) -> np.ndarray:
        """Per-branch mean squared gain, |mu_i|^2 + 1."""
        return self.mu_array ** 2 + 1.0

    @property
    def mu_norm_sq(self) -> float:
        return float(np.sum(self.mu_array ** 2))

    @property
    def identical_mu(self) -> bool:
        return len(set(self.mu)) == 1

    def replace(self, **kw) -> "ChannelConfig":
        vals = {"M": self.M, "m": self.m, "mu": self.mu, "gamma_th": self.gamma_th}
        vals.update(kw)
        return ChannelConfig(**vals)


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


def gsc_statistic(x: Sequence[float], m: int) -> float:
    """Sum of the m largest entries of x (partial selection, no full sort)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("gsc_statistic expects a 1-D vector")
    M = arr.shape[0]
    if not 1 <= m <= M:
        raise ValueError(f"m must satisfy 1 <= m <= len(x), got m={m}, len={M}")
    if np.any(arr < 0.0):
        raise ValueError("gsc_statistic requires nonnegative entries")
    if m == M:
        return float(arr.sum())
    return float(np.partition(arr, M - m)[M - m:].sum())


def gsc_statistic_rows(x: np.ndarray, m: int) -> np.ndarray:
    """Row-wise gsc_statistic for an (n, M) sample block."""
    M = x.shape[1]
    if m == M:
        return x.sum(axis=1)
    return np.partition(x, M - m, axis=1)[:, M - m:].sum(axis=1)


def closed_form_outage(config: ChannelConfig) -> Optional[float]:
    """Exact outage probability where one exists; None otherwise.

    m=1: the outage event is every branch below threshold, so the
    probability factorizes over branches.  m=M: the combined statistic is
    the full sum, itself half a noncentral chi-square with 2M dof.  A
    probability below the smallest normal double raises, not returns 0.
    """
    g2 = 2.0 * config.gamma_th
    if config.m == 1:
        p = math.prod(ncx2_cdf(g2, Ncx2Params(2, 2.0 * mu * mu)) for mu in config.mu)
    elif config.m == config.M:
        p = ncx2_cdf(g2, Ncx2Params(2 * config.M, 2.0 * config.mu_norm_sq))
    else:
        return None
    if p < np.finfo(float).tiny:
        raise TruncationUnderflowError(
            f"threshold too extreme for double precision: exact p={p!r}")
    return float(p)
