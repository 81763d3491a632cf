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
from functools import lru_cache

import numpy as np
from scipy import special

from .specfun import (
    _P_MAX,
    Ncx2Params,
    _log_density,
    ncx2_logcdf,
    ncx2_quantile,
)

# f <= M_ell * g must hold on every proposal; anything above rounding noise
# signals a bound-formula bug
_LOG_RATIO_SLACK = 1e-9
_MAX_PROPOSAL_ROWS = 1 << 20
# a simplex trial costs 1.8-3.1 tilted ones at theta = 0 for n = 2-8 (0.9-1.3 at n = 1),
# and 1.6-6.2 at theta > 0 for n = 4-8, where few tilted trials draw coordinates (0.5-1.2
# at n = 1); another value would change draws
_SIMPLEX_COST = 2.0


class RejectionStalledError(RuntimeError):
    """Rejection sampler exceeded its trial budget (bound-formula bug)."""


class TruncationUnderflowError(ValueError):
    """Threshold too extreme for double precision."""


def _underflow(what: str) -> TruncationUnderflowError:
    return TruncationUnderflowError(f"threshold too extreme for double precision: {what}")


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

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, (*self.path, int(index)))


@dataclass(frozen=True)
class MellBound:
    """Rejection constant and proposal for one equal-mean partition block."""

    value: float
    log_value: float
    proposal: str  # "simplex" or "tilted", see _pis_block_rows
    block_mu: float
    block_size: int
    log_block_cdf: float  # ln P(sum of block <= gamma_th), the f-normalizer
    theta: float  # the tilted proposal's e^{-theta x}, 0 where gamma_th >= n (1 + mu^2)
    log_chernoff: float  # ln B, B = e^{theta gamma_th} E[e^{-theta sum}] >= F (Chernoff)

    def __post_init__(self):
        if self.log_value < -_LOG_RATIO_SLACK:
            raise ValueError(
                f"rejection constant below 1 ({self.value!r}) indicates a formula error")

    @property
    def proposals_per_row(self) -> float:
        """Expected proposals per accepted block: B / F tilted, M_ell simplex."""
        if self.proposal == "tilted":
            return math.exp(self.log_chernoff - self.log_block_cdf)
        return self.value


def _nominal_rows(mu: np.ndarray, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the M-vector of squared gains, X_i ~ (1/2) ncx2(2, 2 mu_i^2)."""
    return _scaled_ncx2_rows(0.5, 2.0 * mu * mu, gen, (n, mu.shape[0]))


def _scaled_ncx2_rows(v1, v2, gen, shape) -> np.ndarray:
    """Draws of v1 ncx2(2, v2), v1 ((z1 + sqrt v2)^2 + z2^2), computed in place.

    nmc's branch law (v1 = 1/2, v2 = 2 mu^2) and ce's proposals; pis's
    tilted proposal draws the same law through its block sum instead, see
    _pis_block_rows.  v1 and v2 are scalars or hold one value per column of
    shape.
    """
    z1 = gen.standard_normal(shape)
    z2 = gen.standard_normal(shape)
    z1 += np.sqrt(v2)
    z1 *= z1
    z2 *= z2
    z1 += z2
    z1 *= v1
    return z1


def _tilted_coordinates(v1: float, w: np.ndarray, r: np.ndarray, n: int, gen) -> np.ndarray:
    """Rows of v1 (re^2 + im^2) given each row's w = <Z, e> and r = |Z - w e|^2.

    Z holds a block's 2n Gaussians, real parts first, and e is the unit
    vector along the real parts.  Z - w e is isotropic in the 2n - 1
    dimensions orthogonal to e, so its direction is that of 2n standard
    normals less their projection on e (the mean of the real half), and it
    is independent of w and r.  The normals are drawn one coordinate per
    row of h, so that each step runs along all rows at once.
    """
    h = gen.standard_normal((2 * n, w.size))
    re = h[:n]
    re -= re.mean(axis=0)
    h *= np.sqrt(r / np.einsum("ij,ij->j", h, h))
    re += w / math.sqrt(n)
    h *= h
    x = h[:n] + h[n:]
    x *= v1
    return x.T


def _inverse_rows(p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """x[:, j] = (1/2) Q(p[:, j]; ncx2(2, 2 mu_j^2)), the branch-j inverse CDF.

    The one truncated inverse transform, exact for the rows that
    estimators._outage_at's table read leaves in doubt: uis passes k_j u
    with k_j the branch CDF at the threshold, mls passes 1 - e^{-G} for the
    gamma-process coordinate G.
    Columns sharing a mean share one quantile call; p is clipped to
    [5e-324, _P_MAX], the quantile's own clip, so the quantile stays
    finite and p = 1 (mls rounds 1 - e^{-G} to 1 past G ~ 36.7) is valid.
    """
    x = np.empty_like(p)
    for val in sorted(set(mu.tolist())):
        cols = np.nonzero(mu == val)[0]
        q = np.clip(p[:, cols], 5e-324, _P_MAX)
        x[:, cols] = 0.5 * ncx2_quantile(
            q.ravel(), Ncx2Params(2, 2.0 * val * val)).reshape(q.shape)
    return x


def _simplex_rows(n: int, gamma_th: float, gen, rows: int) -> np.ndarray:
    """rows draws, uniform over {x_i >= 0, sum x_i <= gamma_th}."""
    e = gen.standard_exponential((rows, n + 1))
    x = gamma_th * e[:, :n]
    x /= e.sum(axis=1, keepdims=True)
    return x


@lru_cache(maxsize=64)
def _branch_mode(mu: float) -> float:
    """Mode of the branch density f_X, X = (1/2) ncx2(2, 2 mu^2); 0 when mu <= 1.

    d ln f_X / dx = -1 + mu I1(z) / (sqrt(x) I0(z)) with z = 2 mu sqrt(x)
    vanishes where I1(z) / (z I0(z)) = 1 / (2 mu^2).  The left side falls
    from 1/2 at z = 0 and lies below 1 / z, so the root is in (0, 2 mu^2);
    bisection halves that bracket until its midpoint rounds to an end.
    """
    if mu <= 1.0:
        return 0.0
    c = 0.5 / (mu * mu)
    lo, hi = 0.0, 2.0 * mu * mu
    z = 0.5 * hi
    while lo < z < hi:
        if special.i1e(z) / (z * special.i0e(z)) > c:
            lo = z
        else:
            hi = z
        z = 0.5 * (lo + hi)
    return (0.5 * z / mu) ** 2


def compute_m_ell(mu: float, n: int, gamma_th: float) -> MellBound:
    """Rejection constant and proposal for a block of n equal-mean coordinates.

    M_ell = sup f/g, with f the joint density of the block conditioned on
    its sum being at most gamma_th and g = n! / gamma_th^n the
    uniform-simplex proposal.  The branch density f_X(x) = e^{-x - mu^2}
    I0(2 mu sqrt x), read from _log_density, is log-concave, so the supremum
    sits at equal coordinates x* = min(mode, gamma_th / n):

      ln M_ell = n ln(gamma_th f_X(x*)) - ln n! - ln F

    with F the CDF of the block sum's ncx2(2n, 2n mu^2) at 2 gamma_th.
    The proposal is "tilted" (n draws from the branch law tilted by
    e^{-theta x}, acceptance F / B) when 2 F M_ell >= B, else "simplex"
    (acceptance 1 / M_ell).  B = e^{theta gamma_th} E[e^{-theta S}] is the
    Chernoff bound on F, smallest where n mu^2 u^2 + n u = gamma_th with
    u = 1 / (1 + theta); theta = 0 and B = 1 once gamma_th >= n (1 + mu^2).
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
    x = min(_branch_mode(mu), gamma_th / n)
    log_m = float(n * (math.log(gamma_th) + _log_density(x, 0.5, lam)) - log_nfact - log_f)
    # the root of n mu^2 u^2 + n u = gamma_th, written so it does not cancel at small mu
    u = min(2.0 * gamma_th / (n + math.sqrt(n * n + 2.0 * n * lam * gamma_th)), 1.0)
    theta = 1.0 / u - 1.0
    log_b = theta * gamma_th + n * math.log(u) - n * mu * mu * (1.0 - u)
    proposal = ("tilted" if math.log(_SIMPLEX_COST) + log_f - log_b + log_m >= 0.0
                else "simplex")
    try:
        value = math.exp(log_m)
    except OverflowError:
        value = math.inf
    return MellBound(value=value, log_value=log_m, proposal=proposal,
                     block_mu=mu, block_size=n, log_block_cdf=log_f,
                     theta=theta, log_chernoff=log_b)


def _pis_block_rows(mu: float, n: int, gamma_th: float, gen,
                    count: int, bound: MellBound):
    """count accepted blocks from the threshold-conditioned joint density.

    Returns (samples, proposals): samples has shape (count, n); proposals is
    the total number of trials consumed.  bound.proposal picks the exact
    rejection: "simplex" draws uniformly from the solid simplex and accepts
    with probability f / (M_ell g), ln f being the row sum of _log_density
    less ln F; closed-form bounds on that ratio (a squeeze, Marsaglia 1977)
    accept most rows, and check f <= M_ell g where they can, without the
    Bessel density, deciding as the exact test does, uniform for uniform.
    "tilted" proposes n coordinates from the branch law tilted by
    e^{-theta x}, v1 ncx2(2, v2) at v1 = u / 2, v2 = 2 mu^2 u with
    u = 1 / (1 + theta), and accepts a row of sum S when S <= gamma_th and a
    uniform is at most e^{theta (S - gamma_th)}.  At theta = 0 that is the
    nominal law accepted on its sum, with no uniform drawn.  The row is 2n
    Gaussians Z with real-part means sqrt(v2) and S = v1 |Z|^2, so a trial
    draws only w = <Z, e> ~ N(sqrt(n v2), 1) along the real-part unit vector
    e, and r = |Z - w e|^2 ~ chi2(2n - 1) where v1 w^2 <= gamma_th (Johnson,
    Kotz & Balakrishnan 1995, ch. 29); S = v1 (w^2 + r).  A kept row's
    coordinates come from _tilted_coordinates.  Proposals are
    generated in batches sized to the expected need (M_ell or B / F per
    acceptance).  Raises if the density ratio ever exceeds the bound or if
    the trial budget of 1e4 trials per expected acceptance is exhausted.
    """
    tilted = bound.proposal == "tilted"
    theta = bound.theta
    u = 1.0 / (1.0 + theta)
    v1, mean_w = 0.5 * u, mu * math.sqrt(2.0 * n * u)
    per_sample = bound.proposals_per_row
    # ln(F g M_ell), with F the block-sum CDF that normalizes f
    log_fgm = (bound.log_block_cdf + float(special.gammaln(n + 1)) - n * math.log(gamma_th)
               + bound.log_value)

    def log_ratio(x):
        return _log_density(x, 0.5, 2.0 * mu * mu).sum(axis=1) - log_fgm

    # 1 <= I0(z) <= e^{z^2 / 4} puts each coordinate's -x + ln I0(2 mu sqrt x) in
    # [-x, (mu^2 - 1) x], so on the simplex ln f/(M_ell g) lies in [lo, hi], both
    # widened by far more than the exact ratio's rounding
    pad = 1e-12 * (1.0 + abs(log_fgm) + n * (mu + math.sqrt(gamma_th)) ** 2)
    lo = -gamma_th - n * mu * mu - log_fgm - pad
    hi = max(mu * mu - 1.0, 0.0) * gamma_th - n * mu * mu - log_fgm + pad
    squeeze = math.exp(min(lo, 0.0))  # a uniform at most this is accepted on the bound alone
    certified = hi <= _LOG_RATIO_SLACK  # then no row can fail the exact check
    out = np.empty((count, n))
    filled = 0
    proposals = 0
    budget = 1e4 * max(per_sample, 1.0) * count + 1e4
    while filled < count:
        want = count - filled
        rows = min(max(256, int(math.ceil(want * per_sample * 1.15))),
                   _MAX_PROPOSAL_ROWS)
        if tilted:
            w = gen.standard_normal(rows)
            w += mean_w
            cand = np.flatnonzero(v1 * (w * w) <= gamma_th)
            r = 2.0 * gen.standard_gamma(n - 0.5, cand.size)
            s = v1 * (w[cand] ** 2 + r)
            hit = s <= gamma_th
            if theta > 0.0:
                sub = np.flatnonzero(hit)
                hit[sub] = gen.random(sub.size) <= np.exp(theta * (s[sub] - gamma_th))
            acc = cand[hit]
        else:
            x = _simplex_rows(n, gamma_th, gen, rows)
            exact = None if certified else log_ratio(x)
            if exact is not None and (worst := float(exact.max())) > _LOG_RATIO_SLACK:
                raise RejectionStalledError(
                    f"rejection bound violated: log f/(M g) = {worst:.3e} > 0 "
                    f"(mu={mu}, n={n}, gamma_th={gamma_th})")
            uniform = gen.random(rows)
            accept = uniform <= squeeze
            rest = np.flatnonzero(~accept)
            accept[rest] = uniform[rest] <= np.exp(
                log_ratio(x[rest]) if exact is None else exact[rest])
            acc = np.flatnonzero(accept)
        kept = acc[:want]
        # a tilted row's coordinates are drawn only once it is kept
        out[filled:filled + kept.size] = (
            _tilted_coordinates(v1, w[kept], r[hit][:want], n, gen) if tilted else x[kept])
        filled += kept.size
        # trials up to and including the last acceptance kept; all when every one is kept
        proposals += int(kept[-1]) + 1 if acc.size > want else rows
        if proposals > budget:
            raise RejectionStalledError(
                f"rejection sampler stalled after {proposals} proposals "
                f"(mu={mu}, n={n}, gamma_th={gamma_th})")
    return out, proposals


def _exponential_rows(rate: float, gen, shape) -> np.ndarray:
    u = gen.random(shape)
    return -np.log1p(-u) / rate
