"""Six outage-probability estimators.

All estimators return an EstimateResult whose var_hat is the per-sample
estimator variance, so relative error is sqrt(var_hat / samples) / p_hat:

  nmc  naive Monte Carlo over the nominal channel law
  uis  selection sampling conditioned on every branch below threshold
       (universal: the conditioning probability factorizes per branch)
  pis  selection sampling conditioned on every size-m partition block's sum
       below threshold; blocks are drawn by acceptance-rejection against a
       uniform simplex proposal
  et   approximate exponential tilting: iid Exp(M / gamma_th) proposal with
       an explicit likelihood ratio, accumulated in log space
  ce   cross-entropy adaptation inside the scaled noncentral chi-square
       family, with decreasing auxiliary thresholds at the rho-quantile
  mls  multilevel splitting along a gamma-process embedding of the channel,
       with survivor resampling at pilot-chosen levels

Every estimator maps a block kernel over fixed-size blocks, one child stream
per block (_run_blocks), so results are identical for any worker count given
the same seed.  wall_time_s covers setup, pilot, sampling and reduction.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize, special

from .model import ChannelConfig, EstimateResult, gsc_statistic_rows
from .samplers import (
    RngStream,
    TruncationUnderflowError,
    _exponential_rows,
    _inverse_rows,
    _nominal_rows,
    _pis_block_rows,
    _scaled_ncx2_rows,
    _table_rows,
    compute_m_ell,
)
from .specfun import Ncx2Params, log_bessel_i0, ncx2_cdf

BLOCK_SIZE = 1 << 17
CE_MAX_ITER = 50


class CeAdaptationError(RuntimeError):
    """Cross-entropy adaptation failed (empty elite set or iteration cap)."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class CEParams:
    """State of the cross-entropy proposal v1 * ncx2(2, v2)."""

    v1: float
    v2: float

    def __post_init__(self):
        if self.v1 <= 0.0:
            raise ValueError("v1 must be > 0")
        if self.v2 < 0.0:
            raise ValueError("v2 must be >= 0")


@dataclass(frozen=True)
class MlsSchedule:
    """Splitting levels t_0 = 0 < ... < t_L = 1 with pilot survivor fractions."""

    levels: tuple
    per_level_samples: int
    survivor_fractions: tuple
    pilot_work: int = 0

    def __post_init__(self):
        lv = tuple(float(t) for t in self.levels)
        if len(lv) < 2 or lv[0] != 0.0 or lv[-1] != 1.0:
            raise ValueError("levels must run from exactly 0 to exactly 1")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("levels must be strictly increasing")
        if any(not 0.0 < f <= 1.0 for f in self.survivor_fractions):
            raise ValueError("survivor fractions must lie in (0, 1]")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "survivor_fractions", tuple(self.survivor_fractions))

    @property
    def n_levels(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class PartitionPlan:
    """Equal-mean blocks covering all M branches, plus the conditioning probability."""

    blocks: tuple  # (start, size, delta) per block
    ell2: float
    bounds: tuple  # MellBound per block

    def __post_init__(self):
        if not 0.0 < self.ell2 <= 1.0:
            raise ValueError("ell2 must lie in (0, 1]")


def build_partition_plan(config: ChannelConfig) -> PartitionPlan:
    """Split M = q*m + r branches into q blocks of m and one of r.

    The rejection bound assumes one common mean per block, so the means must
    be blockwise identical.  ell2 multiplies each block-sum CDF at the
    threshold; the block noncentrality is twice the block's summed squared
    means.
    """
    M, m, g = config.M, config.m, config.gamma_th
    mu = config.mu_array
    q, r = divmod(M, m)
    sizes = [m] * q + ([r] if r else [])
    blocks = []
    bounds = []
    ell2 = 1.0
    start = 0
    for size in sizes:
        seg = mu[start:start + size]
        if np.ptp(seg) != 0.0:
            raise ValueError("PIS requires blockwise-identical means")
        delta = float(np.sqrt(np.sum(seg ** 2)))
        blocks.append((start, size, delta))
        ell2 *= ncx2_cdf(2.0 * g, Ncx2Params(2 * size, 2.0 * delta * delta))
        bounds.append(compute_m_ell(float(seg[0]), size, g))
        start += size
    if ell2 < np.finfo(float).tiny:
        raise _underflow(f"ell2 underflows to {ell2!r} at gamma_th={g!r}")
    return PartitionPlan(blocks=tuple(blocks), ell2=float(ell2), bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# block dispatch and the two shared reductions


def _map_ordered(fn, tasks, workers: int):
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def _run_blocks(kernel, head, total, rng: RngStream, workers: int,
                first: int = 0, block: int = BLOCK_SIZE) -> list:
    """kernel((*head, rng.child(first + i), n)) for blocks of `block` covering `total`.

    A fixed block size and one child stream per block keep the results,
    returned in block order, independent of the worker count.
    """
    full, rem = divmod(total, block)
    sizes = [block] * full + ([rem] if rem else [])
    tasks = [(*head, rng.child(first + i), n) for i, n in enumerate(sizes)]
    return _map_ordered(kernel, tasks, workers)


def _outage(config: ChannelConfig, x: np.ndarray) -> np.ndarray:
    """Row mask of the outage event H(x) <= gamma_th."""
    return gsc_statistic_rows(x, config.m) <= config.gamma_th


def _outage_at(config: ChannelConfig, p: np.ndarray) -> np.ndarray:
    """_outage at x_j = F_j^{-1}(p[:, j]), decided from the quantile tables.

    H is monotone and positively homogeneous, so table values within
    relative error eps of x give H(x~)/(1+eps) <= H(x) <= H(x~)/(1-eps).
    Rows with H(x~) within eps (plus a few ulps per summand for rounding) of
    gamma_th, or NaN, are inverted exactly.
    """
    x, eps = _table_rows(p, config.mu_array)
    tol = eps + 4.0 * (config.m + 2) * np.finfo(float).eps
    h = gsc_statistic_rows(x, config.m)
    mask = h <= config.gamma_th * (1.0 - tol)
    band = ~mask & ~(h > config.gamma_th * (1.0 + tol))
    if band.any():
        mask[band] = _outage(config, _inverse_rows(p[band], config.mu_array))
    return mask


@lru_cache(maxsize=64)
def _branch_cdfs(config: ChannelConfig) -> np.ndarray:
    """k_j = P(X_j <= gamma_th), branch j's CDF at the threshold (read-only)."""
    k = np.array([ncx2_cdf(2.0 * config.gamma_th, Ncx2Params(2, 2.0 * mu * mu))
                  for mu in config.mu])
    k.setflags(write=False)
    return k


def _underflow(what: str) -> TruncationUnderflowError:
    return TruncationUnderflowError(
        f"threshold too extreme for double precision: {what}")


def _selection(ell: float, hits: int, S: int):
    """(p_hat, var_hat) = (ell * hits / S, ell * p - p^2); nmc has ell = 1.

    The variance is exact for selection sampling with conditioning
    probability ell.  It is zero only when every sample hit; a hit with
    p_hat = 0, or a zero variance with misses, means ell * p underflowed.
    """
    p = ell * hits / S
    var = max(ell * p - p * p, 0.0)
    if hits and (p == 0.0 or (hits < S and var == 0.0)):
        raise _underflow(f"{hits} of {S} hits give p_hat={p!r}, var_hat={var!r}")
    return p, var


def _weighted(parts, S: int):
    """(p_hat, var_hat, hits) from per-block (sum w, sum w^2, hits).

    p_hat is the mean likelihood ratio over all S samples and var_hat its
    sample variance.  A hit whose weight or squared weight underflowed
    leaves p_hat = 0 or sum w^2 = 0, which would report a silent zero.
    """
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    hits = sum(p[2] for p in parts)
    p = total / S
    if hits and (p == 0.0 or total_sq == 0.0):
        raise _underflow(f"{hits} hits give sum w={total!r}, sum w^2={total_sq!r}")
    var = max((total_sq - S * p * p) / (S - 1), 0.0) if S > 1 else 0.0
    return p, var, hits


def _lr_sums(config: ChannelConfig, x: np.ndarray, log_lr):
    """(sum w, sum w^2, hits) over the outage rows of x, w = exp(log_lr(rows))."""
    mask = _outage(config, x)
    hits = int(np.count_nonzero(mask))
    if not hits:
        return 0.0, 0.0, 0
    w = np.exp(log_lr(x[mask]))
    return float(w.sum()), float(np.dot(w, w)), hits


# ---------------------------------------------------------------------------
# naive Monte Carlo


def _nmc_block(task):
    config, stream, n = task
    x = _nominal_rows(config.mu_array, stream.generator(), n)
    return int(np.count_nonzero(_outage(config, x)))


def estimate_nmc(config: ChannelConfig, S: int, rng: RngStream,
                 workers: int = 1) -> EstimateResult:
    """Naive MC: hit fraction of the outage event under the nominal law."""
    if S < 1:
        raise ValueError("S must be >= 1")
    t0 = time.perf_counter()
    hits = sum(_run_blocks(_nmc_block, (config,), S, rng, workers))
    p, var = _selection(1.0, hits, S)
    return EstimateResult(p_hat=p, var_hat=var, samples=S,
                          wall_time_s=time.perf_counter() - t0, method="nmc",
                          seed=rng.seed, diagnostics={"hits": hits})


# ---------------------------------------------------------------------------
# universal importance sampling (selection sampling on the per-branch event)


def _uis_block(task):
    config, k, stream, n = task
    u = stream.generator().random((n, config.M))
    return int(np.count_nonzero(_outage_at(config, k * u)))


def estimate_uis(config: ChannelConfig, S: int, rng: RngStream,
                 workers: int = 1) -> EstimateResult:
    """Selection sampling with every branch truncated below the threshold.

    Branch j is drawn as F_j^{-1}(k_j u) with k_j its CDF at the threshold.
    The conditioning probability ell1 is the product of the k_j; the
    estimator is ell1 times the conditional hit fraction and its
    single-sample variance is ell1 * p - p^2 exactly.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    t0 = time.perf_counter()
    k = _branch_cdfs(config)
    ell1 = math.prod(k.tolist())
    if ell1 < np.finfo(float).tiny:
        raise _underflow(f"ell1 underflows to {ell1!r}")
    hits = sum(_run_blocks(_uis_block, (config, k), S, rng, workers))
    p, var = _selection(ell1, hits, S)
    return EstimateResult(p_hat=p, var_hat=var, samples=S,
                          wall_time_s=time.perf_counter() - t0, method="uis",
                          seed=rng.seed,
                          diagnostics={"ell1": ell1, "hit_fraction": hits / S})


# ---------------------------------------------------------------------------
# partition importance sampling


def _pis_block(task):
    config, plan, stream, n = task
    gen = stream.generator()
    x = np.empty((n, config.M))
    proposals = 0
    for (start, size, _), bnd in zip(plan.blocks, plan.bounds):
        rows, used = _pis_block_rows(bnd.block_mu, size, config.gamma_th,
                                     gen, n, bound=bnd)
        x[:, start:start + size] = rows
        proposals += used
    return int(np.count_nonzero(_outage(config, x))), proposals


def estimate_pis(config: ChannelConfig, S: int, rng: RngStream,
                 workers: int = 1) -> EstimateResult:
    """Selection sampling on the partition event (every block sum below threshold).

    Tighter than the per-branch event, so ell2 <= ell1 and the variance
    ell2 * p - p^2 shrinks accordingly; blocks are sampled by
    acceptance-rejection with the per-block constants from compute_m_ell.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    t0 = time.perf_counter()
    plan = build_partition_plan(config)
    parts = _run_blocks(_pis_block, (config, plan), S, rng, workers)
    hits = sum(h for h, _ in parts)
    proposals = sum(pr for _, pr in parts)
    p, var = _selection(plan.ell2, hits, S)
    n_blocks = len(plan.blocks)
    return EstimateResult(
        p_hat=p, var_hat=var, samples=S, wall_time_s=time.perf_counter() - t0,
        method="pis", seed=rng.seed, work_units=S,
        diagnostics={
            "ell2": plan.ell2,
            "hit_fraction": hits / S,
            "m_ell": [b.value for b in plan.bounds],
            "m_ell_case": [b.case for b in plan.bounds],
            "proposals": proposals,
            "acceptance_rate": (S * n_blocks / proposals) if proposals else 1.0,
        })


# ---------------------------------------------------------------------------
# approximate exponential tilting


def _et_block(task):
    config, stream, n = task
    M, g = config.M, config.gamma_th
    x = _exponential_rows(M / g, stream.generator(), (n, M))
    return _lr_sums(config, x, lambda xs: (
        M * math.log(g) - M * math.log(M) - config.mu_norm_sq
        + (M - g) / g * xs.sum(axis=1)
        + log_bessel_i0(2.0 * config.mu_array * np.sqrt(xs)).sum(axis=1)))


def estimate_et(config: ChannelConfig, S: int, rng: RngStream,
                workers: int = 1) -> EstimateResult:
    """Exponentially tilted proposal: iid Exp(M / gamma_th) branches.

    The tilt is the KL-optimal one for the full sum, approximated by an
    exponential with mean gamma_th / M; the likelihood ratio is accumulated
    in log space and exponentiated once per outage sample.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    t0 = time.perf_counter()
    p, var, hits = _weighted(_run_blocks(_et_block, (config,), S, rng, workers), S)
    return EstimateResult(p_hat=p, var_hat=var, samples=S,
                          wall_time_s=time.perf_counter() - t0, method="et",
                          seed=rng.seed, diagnostics={"hit_rate": hits / S})


# ---------------------------------------------------------------------------
# cross-entropy


def _ce_log_pdf_rows(x: np.ndarray, v1: float, v2: float) -> np.ndarray:
    """Row sums of ln f(x_i; v1, v2) for the scaled ncx2(2, .) family."""
    arg = np.sqrt(np.maximum(v2 * x / v1, 0.0))
    terms = -math.log(2.0 * v1) - v2 / 2.0 - x / (2.0 * v1) + log_bessel_i0(arg)
    return terms.sum(axis=1)


def _ce_log_lr_rows(x: np.ndarray, nominal: CEParams, sampling: CEParams) -> np.ndarray:
    """ln of the likelihood ratio f(x; nominal) / f(x; sampling), per row."""
    return (_ce_log_pdf_rows(x, nominal.v1, nominal.v2)
            - _ce_log_pdf_rows(x, sampling.v1, sampling.v2))


def ce_update(x: np.ndarray, weights: np.ndarray) -> CEParams:
    """Weighted maximum likelihood over the scaled ncx2 family.

    Maximizes sum_s w_s * ln f(x_s; v) over v = (v1, v2) for the (S, M)
    sample array x, pooling its coordinates z.  Each z is the squared
    amplitude of a Rician variable with sigma^2 = v1 and nu^2 = v1 * v2, so
    the fit solves the Rician likelihood equations (Sijbers et al., IEEE
    TMI 1998).  With m1 = E_w[z] and m2 = E_w[z^2]:

      m2 >= 2 m1^2  the maximum sits on the edge v2 = 0, where the
                    exponential fit v1 = m1 / 2 is exact;
      otherwise     v1 = (m1 - nu^2) / 2 and nu solves
                    nu = E_w[sqrt(z) I1/I0(nu sqrt(z) / v1)] on (0, sqrt(m1)),
                    whose only root is the global maximum.

    Near nu = 0 the score behaves like nu^3 (1 - m2 / (2 m1^2)) / m1, so a
    score that is not positive at the foot of the bracket means the edge.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2 or w.shape != (x.shape[0],):
        raise ValueError("ce_update needs x of shape (S, M) and one weight per row")
    if np.any(w < 0.0) or not np.any(w > 0.0):
        raise ValueError("ce_update needs weights >= 0, at least one positive")
    z = x.ravel()
    wz = np.repeat(w / w.sum(), x.shape[1]) / x.shape[1]
    rz = np.sqrt(z)
    m1 = float(np.dot(wz, z))
    m2 = float(np.dot(wz, z * z))

    def score(nu):
        v1 = 0.5 * (m1 - nu * nu)
        if v1 <= 0.0:  # the limit I1/I0 -> 1 at the end of the bracket
            return float(np.dot(wz, rz)) - nu
        arg = nu * rz / v1
        return float(np.dot(wz, rz * special.i1e(arg) / special.i0e(arg))) - nu

    hi = math.sqrt(m1)
    lo = 1e-4 * hi
    if m2 >= 2.0 * m1 * m1 or score(lo) <= 0.0:
        return CEParams(v1=0.5 * m1, v2=0.0)
    nu = optimize.brentq(score, lo, hi, xtol=1e-15 * hi)
    v1 = 0.5 * (m1 - nu * nu)
    return CEParams(v1=v1, v2=nu * nu / v1)


def _elite_weights(x, h, level, nominal: CEParams, v: CEParams):
    """The rows with H <= level and their likelihood ratios to the nominal law."""
    elite = x[h <= level]
    w = np.exp(_ce_log_lr_rows(elite, nominal, v))
    if not np.any(w > 0.0):
        raise CeAdaptationError("CE elite set empty")
    return elite, w


def _ce_final_block(task):
    config, nominal, vfin, stream, n = task
    x = _scaled_ncx2_rows(vfin.v1, vfin.v2, stream.generator(), (n, config.M))
    return _lr_sums(config, x, lambda xs: _ce_log_lr_rows(xs, nominal, vfin))


def estimate_ce(config: ChannelConfig, S: int, rng: RngStream,
                S0: int = 100_000, rho: float = 0.1,
                workers: int = 1) -> EstimateResult:
    """Cross-entropy adaptive importance sampling (identical means only).

    Pilot batches of S0 walk an auxiliary threshold down the rho-quantile of
    the combined statistic, refitting the proposal by weighted maximum
    likelihood at each step; once the auxiliary threshold drops below
    gamma_th a final fit at gamma_th fixes the proposal used for the S
    estimation samples.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    if S0 < 100:
        raise ValueError("S0 must be >= 100")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    if not config.identical_mu:
        raise ValueError("CE requires identical mu_i across branches")
    t0 = time.perf_counter()
    mu = config.mu[0]
    nominal = CEParams(v1=0.5, v2=2.0 * mu * mu)
    g = config.gamma_th
    kth = max(int(math.floor(rho * S0)), 1) - 1

    gen = rng.child(0).generator()
    v = nominal
    trace = []
    while True:
        x = _scaled_ncx2_rows(v.v1, v.v2, gen, (S0, config.M))
        h = gsc_statistic_rows(x, config.m)
        gamma_hat = float(np.partition(h, kth)[kth])
        trace.append({"iteration": len(trace), "gamma_t": gamma_hat,
                      "v1": v.v1, "v2": v.v2})
        if gamma_hat < g:
            break
        if len(trace) > CE_MAX_ITER:
            raise CeAdaptationError("CE failed to reach target threshold")
        v = ce_update(*_elite_weights(x, h, gamma_hat, nominal, v))
    pilot_work = S0 * len(trace)
    # final update at the true threshold, then the estimation run
    vfin = ce_update(*_elite_weights(x, h, g, nominal, v))
    trace.append({"iteration": len(trace), "gamma_t": g,
                  "v1": vfin.v1, "v2": vfin.v2})

    parts = _run_blocks(_ce_final_block, (config, nominal, vfin), S, rng,
                        workers, first=1)
    p, var, hits = _weighted(parts, S)
    return EstimateResult(p_hat=p, var_hat=var, samples=S,
                          wall_time_s=time.perf_counter() - t0, method="ce",
                          seed=rng.seed, work_units=S + pilot_work,
                          diagnostics={"trace": trace, "hit_rate": hits / S,
                                       "v_final": {"v1": vfin.v1, "v2": vfin.v2}})


# ---------------------------------------------------------------------------
# multilevel splitting


def _mls_advance(config: ChannelConfig, k, gen, g_surv, dt: float, s: int):
    """s paths advanced by dt from survivors picked uniformly (fresh if None).

    Returns the gamma-process coordinates G and the outage mask of the
    channel point X = F^{-1}(1 - e^{-G}).  Rows with some 1 - e^{-G_j} above
    k_j = F_j(gamma_th) have X_j > gamma_th, so they skip the decision.
    """
    if g_surv is None:
        g_mat = gen.gamma(dt, size=(s, config.M))
    else:
        pick = gen.integers(0, g_surv.shape[0], size=s)
        g_mat = g_surv[pick] + gen.gamma(dt, size=(s, config.M))
    p = -np.expm1(-g_mat)
    mask = ~(p > k).any(axis=1)
    mask[mask] = _outage_at(config, p[mask])
    return g_mat, mask


def _mls_replication(task):
    config, k, levels, stream, s = task
    gen = stream.generator()
    estimate = 1.0
    g_surv = None
    for idx in range(1, len(levels)):
        g_mat, mask = _mls_advance(config, k, gen, g_surv,
                                   levels[idx] - levels[idx - 1], s)
        count = int(np.count_nonzero(mask))
        estimate *= count / s
        if count == 0:
            return 0.0, idx
        g_surv = g_mat[mask]
    return estimate, 0


def mls_pilot_levels(config: ChannelConfig, pilot_samples: int,
                     target_cond_prob: float, rng: RngStream) -> MlsSchedule:
    """Greedy forward level construction for the splitting schedule.

    From the current time t, bisection finds the largest step t' whose
    empirical conditional survival P[H(X(t')) <= gamma | survivors at t]
    still meets the target, so no level's event is rare; terminates the
    moment t' = 1 qualifies.  Bisection tolerance is 1e-3 in t.
    """
    if not 0.0 < target_cond_prob < 1.0:
        raise ValueError("target_cond_prob must be in (0, 1)")
    if pilot_samples < 100:
        raise ValueError("pilot_samples must be >= 100")
    gen = rng.generator()
    k = _branch_cdfs(config)
    work = 0

    def cond_fraction(t_from, t_to, g_surv):
        nonlocal work
        work += pilot_samples
        g_mat, mask = _mls_advance(config, k, gen, g_surv, t_to - t_from,
                                   pilot_samples)
        return float(np.mean(mask)), g_mat[mask]

    levels = [0.0]
    fractions = []
    g_surv = None
    t = 0.0
    for _ in range(200):
        frac_end, surv_end = cond_fraction(t, 1.0, g_surv)
        if frac_end >= target_cond_prob:
            if t == 0.0:
                warnings.warn("outage event is not rare: single-level schedule",
                              stacklevel=2)
            levels.append(1.0)
            fractions.append(max(frac_end, 1.0 / pilot_samples))
            break
        lo, hi = t, 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            frac, _ = cond_fraction(t, mid, g_surv)
            if frac >= target_cond_prob:
                lo = mid
            else:
                hi = mid
        t_next = max(lo, t + 1e-3)
        frac, surv = cond_fraction(t, t_next, g_surv)
        if surv.shape[0] == 0:
            raise RuntimeError("pilot produced no survivors; increase pilot_samples")
        levels.append(t_next)
        fractions.append(frac)
        g_surv = surv
        t = t_next
    else:
        raise RuntimeError("pilot failed to reach t = 1 within 200 levels")
    return MlsSchedule(levels=tuple(levels), per_level_samples=pilot_samples,
                       survivor_fractions=tuple(fractions), pilot_work=work)


def estimate_mls(config: ChannelConfig, s: int, rng: RngStream,
                 schedule="auto", replications: int = 50,
                 target_cond_prob: float = 0.2, pilot_samples: int = 10_000,
                 workers: int = 1) -> EstimateResult:
    """Multilevel splitting over the gamma-process embedding.

    Each replication simulates s chains per level, resampling uniformly from
    the previous level's survivors, and multiplies the survivor fractions.
    The estimate averages the replications; var_hat is the replication
    variance rescaled so that var_hat / samples is the variance of the mean
    (samples counts simulated chain-steps, s * L * replications).
    """
    if s < 10:
        raise ValueError("s must be >= 10")
    if replications < 2:
        raise ValueError("replications must be >= 2")
    t0 = time.perf_counter()
    if schedule == "auto":
        schedule = mls_pilot_levels(config, pilot_samples, target_cond_prob,
                                    rng.child(0))
    elif not isinstance(schedule, MlsSchedule):
        raise ValueError("schedule must be an MlsSchedule or 'auto'")
    # one block of s chains per replication
    parts = _run_blocks(_mls_replication,
                        (config, _branch_cdfs(config), schedule.levels),
                        s * replications, rng, workers, first=1, block=s)
    estimates = np.array([p[0] for p in parts])
    dead = [i for i, p in enumerate(parts) if p[1]]
    p = float(estimates.mean())
    var_repl = float(estimates.var(ddof=1))
    wall = time.perf_counter() - t0
    chain_steps = s * schedule.n_levels * replications
    notes = []
    if dead:
        notes.append(f"{len(dead)} replication(s) died with zero survivors")
    return EstimateResult(
        p_hat=p, var_hat=var_repl * s * schedule.n_levels, samples=chain_steps,
        wall_time_s=wall, method="mls", seed=rng.seed,
        work_units=chain_steps + schedule.pilot_work,
        diagnostics={"levels": list(schedule.levels),
                     "pilot_fractions": list(schedule.survivor_fractions),
                     "replications": replications, "per_level_samples": s,
                     "replication_estimates": estimates.tolist(),
                     "warnings": notes})


ESTIMATORS = {
    "nmc": estimate_nmc,
    "uis": estimate_uis,
    "pis": estimate_pis,
    "et": estimate_et,
    "ce": estimate_ce,
    "mls": estimate_mls,
}
