"""Seeded variate generation for all estimators.

Streams are split with SeedSequence spawn keys over a counter-based Philox
generator: identical (seed, stream_id) always reproduces the same sequence,
distinct stream ids are statistically independent, and child streams let an
estimator shard work across blocks without the result depending on how many
workers execute them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import (
    Ncx2Params,
    log_bessel_i0,
    ncx2_logcdf,
    ncx2_logpdf,
    ncx2_quantile,
)

# Envelope factor for the near-mode density bound: C * max(f(0), f(A_mu))
# dominates the ncx2(2, 2 mu^2) density for every mu > 1 (numerically, the
# worst max f / max(f(0), f(A_mu)) is 1.0195, at mu ~ 1.073).  f(A_mu) alone
# is not enough below mu ~ 1.041: as mu -> 1+ the mode falls to 0 while A_mu
# stays near 1, and max f / f(A_mu) reaches 1.053.
REJECTION_C = 1.031
# f <= M_ell * g must hold on every proposal; anything above rounding noise
# signals a bound-formula bug
_LOG_RATIO_SLACK = 1e-9
_MAX_PROPOSAL_ROWS = 1 << 20


class RejectionStalledError(RuntimeError):
    """Rejection sampler exceeded its trial budget (bound-formula bug)."""


class TruncationUnderflowError(ValueError):
    """Threshold too extreme for double precision."""


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable random stream.

    (seed, stream_id) identifies a root stream; child(i) derives an
    independent substream, so per-block or per-replication sharding is
    deterministic no matter how blocks are scheduled.
    """

    seed: int
    stream_id: int = 0
    path: tuple = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, (*self.path, int(index)))


@dataclass(frozen=True)
class MellBound:
    """Rejection constant for one equal-mean block of the partition sampler."""

    value: float
    log_value: float
    case: str
    block_mu: float
    block_size: int
    log_block_cdf: float  # ln P(sum of block <= gamma_th), the f-normalizer

    def __post_init__(self):
        if self.log_value < -_LOG_RATIO_SLACK:
            raise ValueError(
                f"rejection constant below 1 ({self.value!r}) indicates a formula error")


def _nominal_rows(mu: np.ndarray, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the M-vector of squared gains, X_i ~ (1/2) ncx2(2, 2 mu_i^2)."""
    root_lam = math.sqrt(2.0) * mu  # sqrt of per-branch noncentrality
    z1 = gen.standard_normal((n, mu.shape[0]))
    z2 = gen.standard_normal((n, mu.shape[0]))
    return 0.5 * ((z1 + root_lam) ** 2 + z2 ** 2)


def _inverse_rows(p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """x[:, j] = (1/2) Q(p[:, j]; ncx2(2, 2 mu_j^2)), the branch-j inverse CDF.

    The one truncated inverse transform: uis passes k_j u with k_j the
    branch CDF at the threshold, mls passes 1 - e^{-G} for the gamma-process
    coordinate G.  Columns sharing a mean share one quantile call; p is
    floored at the smallest subnormal so the quantile stays finite.
    """
    x = np.empty_like(p)
    for val in sorted(set(mu.tolist())):
        cols = np.nonzero(mu == val)[0]
        q = np.maximum(p[:, cols], 5e-324)
        x[:, cols] = 0.5 * ncx2_quantile(
            q.ravel(), Ncx2Params(2, 2.0 * val * val)).reshape(q.shape)
    return x


def _simplex_rows(n: int, gamma_th: float, gen, rows: int) -> np.ndarray:
    """rows draws, uniform over {x_i >= 0, sum x_i <= gamma_th}."""
    e = gen.standard_exponential((rows, n + 1))
    return gamma_th * e[:, :n] / e.sum(axis=1, keepdims=True)


def compute_m_ell(mu: float, n: int, gamma_th: float) -> MellBound:
    """Rejection constant for a block of n equal-mean coordinates.

    Bounds the ratio of the threshold-conditioned joint density to the
    uniform-simplex proposal.  Three branches, all in log space:

      mu <= 1             : the one-dimensional density peaks at zero, so
                            the bound is gamma^n e^{-n mu^2} / (n! F)
      2 gamma <= 2mu^2 - 2: density increasing up to the threshold, bound
                            [2 gamma f(2 gamma)]^n / (n! F)
      otherwise           : near-mode envelope C * max(f(0), f(A_mu)) with
                            A_mu = 2 mu^2 - 2 + 2/(2 mu^2), bound
                            [2 gamma C max(f(0), f(A_mu))]^n / (n! F)

    where f is the ncx2(2, 2 mu^2) density and F the CDF of the block sum's
    ncx2(2n, 2n mu^2) at 2 gamma.  A coordinate x of the block is half an
    ncx2 variate, so its density at x is 2 f(2x); the second branch needs
    2 gamma below the ncx2 mode, which is never below 2 mu^2 - 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if gamma_th <= 0.0:
        raise ValueError("gamma_th must be > 0")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError("mu must be finite and >= 0")
    lam = 2.0 * mu * mu
    log_f = ncx2_logcdf(2.0 * gamma_th, Ncx2Params(2 * n, n * lam))
    log_nfact = float(special.gammaln(n + 1))
    if mu <= 1.0:
        case = "small_mean"
        log_m = n * math.log(gamma_th) - n * mu * mu - log_nfact - log_f
    elif 2.0 * gamma_th <= lam - 2.0:
        case = "large_mean_small_gamma"
        log_pdf = ncx2_logpdf(2.0 * gamma_th, Ncx2Params(2, lam))
        log_m = n * (math.log(2.0 * gamma_th) + log_pdf) - log_nfact - log_f
    else:
        case = "large_mean_large_gamma"
        a_mu = lam - 2.0 + 2.0 / lam
        params = Ncx2Params(2, lam)
        log_pdf = max(ncx2_logpdf(a_mu, params), ncx2_logpdf(0.0, params))
        log_m = (n * (math.log(2.0 * gamma_th) + math.log(REJECTION_C) + log_pdf)
                 - log_nfact - log_f)
    try:
        value = math.exp(log_m)
    except OverflowError:
        value = math.inf
    return MellBound(value=value, log_value=log_m, case=case,
                     block_mu=mu, block_size=n, log_block_cdf=log_f)


def _pis_block_rows(mu: float, n: int, gamma_th: float, gen,
                    count: int, bound: MellBound = None):
    """count accepted blocks from the threshold-conditioned joint density.

    Returns (samples, proposals): samples has shape (count, n); proposals is
    the total number of uniform-simplex trials consumed.  Proposals are
    generated in batches sized to the expected need (about M_ell per
    acceptance).  Raises if the density ratio ever exceeds the bound or if
    the trial budget of 1e4 * M_ell per sample is exhausted.
    """
    if bound is None:
        bound = compute_m_ell(mu, n, gamma_th)
    log_g = float(special.gammaln(n + 1)) - n * math.log(gamma_th)
    out = np.empty((count, n))
    filled = 0
    proposals = 0
    budget = 1e4 * max(bound.value, 1.0) * count + 1e4
    while filled < count:
        want = count - filled
        rows = min(max(256, int(math.ceil(want * bound.value * 1.15))),
                   _MAX_PROPOSAL_ROWS)
        u = _simplex_rows(n, gamma_th, gen, rows)
        log_f = (-n * mu * mu - u.sum(axis=1)
                 + log_bessel_i0(2.0 * mu * np.sqrt(u)).sum(axis=1)
                 - bound.log_block_cdf)
        log_ratio = log_f - log_g - bound.log_value
        worst = float(log_ratio.max())
        if worst > _LOG_RATIO_SLACK:
            raise RejectionStalledError(
                f"rejection bound violated: log f/(M g) = {worst:.3e} > 0 "
                f"(mu={mu}, n={n}, gamma_th={gamma_th}, case={bound.case})")
        accept = gen.random(rows) <= np.exp(log_ratio)
        acc_rows = u[accept]
        take = min(acc_rows.shape[0], want)
        if take:
            out[filled:filled + take] = acc_rows[:take]
            filled += take
        # trials up to and including the last acceptance actually used
        if acc_rows.shape[0] > take:
            last_used = np.nonzero(accept)[0][take - 1] + 1 if take else 0
            proposals += int(last_used)
        else:
            proposals += rows
        if proposals > budget:
            raise RejectionStalledError(
                f"rejection sampler stalled after {proposals} proposals "
                f"(mu={mu}, n={n}, gamma_th={gamma_th})")
    return out, proposals


def _exponential_rows(rate: float, gen, shape) -> np.ndarray:
    u = gen.random(shape)
    return -np.log1p(-u) / rate


def _scaled_ncx2_rows(v1: float, v2: float, gen, shape) -> np.ndarray:
    root = math.sqrt(v2)
    z1 = gen.standard_normal(shape)
    z2 = gen.standard_normal(shape)
    return v1 * ((z1 + root) ** 2 + z2 ** 2)
