"""Six outage-probability estimators.

All estimators return an EstimateResult whose var_hat is the per-sample
estimator variance, so relative error is sqrt(var_hat / samples) / p_hat:

  nmc  naive Monte Carlo over the nominal channel law
  uis  selection sampling conditioned on every branch below threshold
       (universal: the conditioning probability factorizes per branch)
  pis  selection sampling conditioned on every size-m partition block's sum
       below threshold; blocks are drawn by acceptance-rejection against a
       uniform simplex proposal or the exponentially tilted branch law
  et   approximate exponential tilting: iid Exp(M / gamma_th) proposal with
       an explicit likelihood ratio, accumulated in log space
  ce   cross-entropy importance sampling inside the scaled noncentral
       chi-square family, fitted by the paper's stage walk down auxiliary
       thresholds; its first batch is pis draws, whose outage rows are
       exact draws from the law conditioned on outage
  mls  multilevel splitting along a gamma-process embedding of the channel,
       with survivor resampling at pilot-chosen levels

Each is one frame, @_estimator, around a body: the frame registers the
method in ESTIMATORS and its argument minimums in LEAST, checks those
arguments, times the body and stamps its EstimateResult, so wall_time_s
runs from the end of the checks to the end of the reduction for every
method.  Bodies run a kernel over fixed-size blocks on up to `workers`
threads, each block on its own child stream, and blocks combine in one
place, _run_blocks, which adds the kernels' tuples of sums in block order
(mls: one stream per replication, in fixed groups), so a seed gives the same
results for any worker count.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial, wraps

import numpy as np
from scipy import special

from .model import ChannelConfig, EstimateResult, gsc_statistic_rows
from .samplers import (
    RngStream,
    _exponential_rows,
    _inverse_rows,
    _nominal_rows,
    _pis_block_rows,
    _scaled_ncx2_rows,
    _underflow,
    compute_m_ell,
)
from .specfun import _P_MAX, Ncx2Params, _bessel_rows, _quantile_table, _table_value, ncx2_cdf

BLOCK_SIZE = 1 << 17
CE_MAX_ITER = 50
# the pis batch's level is its this-th smallest H, so it ends ce's pilot only
# with this many outage rows: from 200 rows on, the unit-weight fit's SCV was
# within 5% of a 2,000-row fit (README)
CE_EXACT_PILOT_MIN_ROWS = 200
MLS_ROWS = 1 << 11  # chains per mls group, decided by one _outage_at call a level


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

    ell2: float
    bounds: tuple  # MellBound per block, in column order

    def __post_init__(self):
        if not 0.0 < self.ell2 <= 1.0:
            raise ValueError("ell2 must lie in (0, 1]")


@lru_cache(maxsize=64)
def build_partition_plan(config: ChannelConfig) -> PartitionPlan:
    """Split M = q*m + r branches into q blocks of m and one of r.

    The rejection bound assumes one common mean per block, so the means must
    be blockwise identical.  ell2 multiplies each block-sum CDF at the
    threshold, read from the block's bound (the log-space CDF, accurate far
    into the left tail where the linear CDF reads zero).  The plan is
    frozen and cached per configuration.
    """
    M, m, g = config.M, config.m, config.gamma_th
    mu = config.mu_array
    bounds = []
    for start in range(0, M, m):
        seg = mu[start:start + m]
        if np.ptp(seg) != 0.0:
            raise ValueError("PIS requires blockwise-identical means")
        bounds.append(compute_m_ell(float(seg[0]), seg.size, g))
    ell2 = math.prod(math.exp(b.log_block_cdf) for b in bounds)
    if ell2 < np.finfo(float).tiny:
        raise _underflow(f"ell2 underflows to {ell2!r} at gamma_th={g!r}")
    return PartitionPlan(ell2=float(ell2), bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# block dispatch and reduction, and the two estimates from the totals


def _map_ordered(fn, tasks, workers: int):
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def _run_blocks(kernel, total, rng: RngStream, workers: int, first: int = 0) -> tuple:
    """Field-wise totals of the tuples kernel(rng.child(first + i).generator(), n)
    over blocks of BLOCK_SIZE covering `total`.

    Blocks run on up to `workers` threads, each on its own child stream, and
    are added in block order, so the totals do not depend on the worker count.
    """
    full, rem = divmod(total, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rem] if rem else [])
    parts = _map_ordered(lambda i: kernel(rng.child(first + i).generator(), sizes[i]),
                         range(len(sizes)), workers)
    return tuple(map(sum, zip(*parts)))


def _outage(config: ChannelConfig, x: np.ndarray) -> np.ndarray:
    """Row mask of the outage event H(x) <= gamma_th."""
    return gsc_statistic_rows(x, config.m) <= config.gamma_th


_Screen = namedtuple("_Screen", "k levels tol groups")
# w * _BYTE_SUM >> 56 sums the bytes of a uint64 word w whose bytes are each
# 0 or 1 (Warren, Hacker's Delight, 2nd ed., ch. 5)
_BYTE_SUM = np.uint64(0x0101010101010101)


@lru_cache(maxsize=64)
def _screen(config: ChannelConfig) -> _Screen:
    """Branch CDFs at the threshold and the levels of the p-space screen.

    groups holds, sorted by mean, one (mean, column indices, quantile table)
    per set of equal-mean branches; _outage_at reads its doubt off them.
    k_j = F_j(gamma_th) is uis's truncation point.  The three levels are
    F_j at gamma_th/m (1 - tol), gamma_th/m (1 + tol) and gamma_th (1 + tol),
    with tol the table decision's band (the largest group table eps plus a
    few ulps per summand of H); an upper level past the quantile's clip at
    _P_MAX, or any level of an uncertified table, is made one that decides
    nothing.  Each level is a float where every branch shares it, else an
    (M,) row.  All arrays are read-only.
    """
    M, m, g = config.M, config.m, config.gamma_th
    mu = config.mu_array
    groups = tuple((val, np.nonzero(mu == val)[0], _quantile_table(2.0 * val * val))
                   for val in sorted(set(config.mu)))
    tol = max(tab.eps for _, _, tab in groups) + 4.0 * (m + 2) * np.finfo(float).eps
    x = 2.0 * g * np.array([max(1.0 - tol, 0.0) / m, (1.0 + tol) / m, 1.0 + tol])
    k = np.empty(M)
    levels = np.array([[-np.inf], [np.inf], [np.inf]]).repeat(M, axis=1)
    for val, cols, _ in groups:
        params = Ncx2Params(2, 2.0 * val * val)
        k[cols] = ncx2_cdf(2.0 * g, params)
        if math.isfinite(tol):
            levels[:, cols] = ncx2_cdf(x, params)[:, None]
    levels[1:][levels[1:] > _P_MAX] = np.inf
    for a in (k, levels):
        a.setflags(write=False)
    levels = tuple(float(row[0]) if (row == row[0]).all() else row for row in levels)
    return _Screen(k, levels, tol, groups)


def _outage_at(config: ChannelConfig, p: np.ndarray) -> np.ndarray:
    """_outage at x_j = F_j^{-1}(p[:, j]), decided in p-space where it can be.

    F_j^{-1} increases, so p_j against F_j at a level places x_j against
    that level.  No x_j above gamma_th/m puts H at most gamma_th; m of them
    above gamma_th/m, or one above gamma_th, puts H above.  With c_i the
    number of p_j past level i, c0 = 0 means outage, and c1 >= m or c2 > 0
    means none.  Each level's comparisons fill one zeroed bool buffer whose
    rows are padded to whole uint64 words, so a row's c0 = 0 and c2 > 0 are
    tests of its words against zero, and its c1 sums each word's bytes.

    The levels sit a relative tol, the table band, outside gamma_th/m and
    gamma_th.  The exact inverse inverts the same CDF that gives the levels:
    its Newton step solves ncx2_cdf, Boost's chndtrix inverts Boost's
    chndtr, and below ncx2_cdf's band edge the closed form inverts
    ncx2_cdf's own j = 0 term.  eps is 8 times the worst gap between that
    inverse and the smooth table, so the CDF's rounding noise moves x by far
    less than tol: a p past a level solves to an x past it, and the ulps in
    tol cover the rounding of H.  Rows with a p_j inside that margin, or
    with 1 to m - 1 coordinates past gamma_th/m, are left in doubt and read
    off the screen's group tables.  Branches with one mean share one
    increasing F^{-1}, so H's m largest x lie among each group's m largest
    p, and only those columns are read.  H is monotone and positively
    homogeneous, so table values within relative error eps of x give
    H(x~)/(1+eps) <= H(x) <= H(x~)/(1-eps), and rows with H(x~) within tol
    of gamma_th, or NaN, are inverted exactly.
    """
    scr = _screen(config)
    n, M = p.shape
    m = config.m
    past = np.zeros((n, -(-M // 8) * 8), dtype=bool)
    words = past.view(np.uint64)
    np.greater(p, scr.levels[0], out=past[:, :M])
    mask = ~words.any(axis=1)
    np.greater(p, scr.levels[1], out=past[:, :M])
    doubt = ~mask & ((words * _BYTE_SUM >> 56).sum(axis=1) < m)
    np.greater(p, scr.levels[2], out=past[:, :M])
    doubt &= ~words.any(axis=1)
    if doubt.any():
        q = p[doubt]
        if len(scr.groups) == 1:  # every column: no column copy, no stacking
            x = 0.5 * _table_value(scr.groups[0][2], np.partition(q, -m, axis=1)[:, -m:])
        else:
            top = []
            for _, cols, tab in scr.groups:
                k = min(m, cols.size)
                top.append(0.5 * _table_value(tab, np.partition(q[:, cols], -k, axis=1)[:, -k:]))
            x = np.hstack(top)
        h = gsc_statistic_rows(x, m)
        hit = h <= config.gamma_th * (1.0 - scr.tol)
        band = ~hit & ~(h > config.gamma_th * (1.0 + scr.tol))
        if band.any():
            hit[band] = _outage(config, _inverse_rows(q[band], config.mu_array))
        mask[doubt] = hit
    return mask


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


def _weighted(total: float, total_sq: float, hits: int, S: int):
    """(p_hat, var_hat) from the sums of w and w^2 over S >= 2 samples.

    p_hat is the mean likelihood ratio and var_hat its sample variance.  A
    hit whose weight or squared weight underflowed leaves p_hat = 0 or
    sum w^2 = 0, which would report a silent zero.
    """
    p = total / S
    if hits and (p == 0.0 or total_sq == 0.0):
        raise _underflow(f"{hits} hits give sum w={total!r}, sum w^2={total_sq!r}")
    var = max((total_sq - S * p * p) / (S - 1), 0.0)
    return p, var


def _lr_sums(config: ChannelConfig, x: np.ndarray, log_lr):
    """(sum w, sum w^2, hits) over the outage rows of x, w = exp(log_lr(rows))."""
    mask = _outage(config, x)
    hits = int(np.count_nonzero(mask))
    if not hits:
        return 0.0, 0.0, 0
    w = np.exp(log_lr(x[mask]))
    return float(w.sum()), float(np.dot(w, w)), hits


# ---------------------------------------------------------------------------
# the estimator frame

ESTIMATORS = {}
# method -> {argument: its least value, None for a probability in (0, 1)}
LEAST = {}


def _check_least(name: str, value, least, error=ValueError):
    """Raise error unless value >= least, or 0 < value < 1 where least is None."""
    if least is None and not 0.0 < value < 1.0:
        raise error(f"{name} must be in (0, 1), got {value}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def _estimator(**least):
    """Register estimate_<method> and its minimums (least's first is its size).

    A call checks its bound arguments, then times the body, which returns
    (p_hat, var_hat, samples, work_units, diagnostics), and stamps the result.
    """
    def register(body):
        method = body.__name__.removeprefix("estimate_")
        signature = inspect.signature(body)

        @wraps(body)
        def frame(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for name, low in least.items():
                _check_least(name, bound.arguments[name], low)
            t0 = time.perf_counter()
            p, var, samples, work, diagnostics = body(*args, **kwargs)
            return EstimateResult(p_hat=p, var_hat=var, samples=samples,
                                  wall_time_s=time.perf_counter() - t0, method=method,
                                  seed=bound.arguments["rng"].seed, work_units=work,
                                  diagnostics=diagnostics)

        ESTIMATORS[method], LEAST[method] = frame, least
        return frame
    return register


# ---------------------------------------------------------------------------
# naive Monte Carlo


def _nmc_block(config: ChannelConfig, gen, n: int):
    x = _nominal_rows(config.mu_array, gen, n)
    return (int(np.count_nonzero(_outage(config, x))),)


@_estimator(S=1)
def estimate_nmc(config: ChannelConfig, S: int, rng: RngStream,
                 workers: int = 1) -> EstimateResult:
    """Naive MC: hit fraction of the outage event under the nominal law."""
    hits, = _run_blocks(partial(_nmc_block, config), S, rng, workers)
    return *_selection(1.0, hits, S), S, S, {"hits": hits}


# ---------------------------------------------------------------------------
# universal importance sampling (selection sampling on the per-branch event)


def _uis_block(config: ChannelConfig, k: np.ndarray, gen, n: int):
    u = gen.random((n, config.M))
    return (int(np.count_nonzero(_outage_at(config, k * u))),)


@_estimator(S=1)
def estimate_uis(config: ChannelConfig, S: int, rng: RngStream,
                 workers: int = 1) -> EstimateResult:
    """Selection sampling with every branch truncated below the threshold.

    Branch j is drawn as F_j^{-1}(k_j u) with k_j its CDF at the threshold.
    The conditioning probability ell1 is the product of the k_j; the
    estimator is ell1 times the conditional hit fraction and its
    single-sample variance is ell1 * p - p^2 exactly.
    """
    k = _screen(config).k
    ell1 = math.prod(k.tolist())
    if ell1 < np.finfo(float).tiny:
        raise _underflow(f"ell1 underflows to {ell1!r}")
    hits, = _run_blocks(partial(_uis_block, config, k), S, rng, workers)
    return *_selection(ell1, hits, S), S, S, {"ell1": ell1, "hit_fraction": hits / S}


# ---------------------------------------------------------------------------
# partition importance sampling


def _pis_rows(config: ChannelConfig, plan: PartitionPlan, gen, n: int):
    """(x, proposals): n rows of the nominal law conditioned on the partition event."""
    x = np.empty((n, config.M))
    proposals = start = 0
    for bnd in plan.bounds:
        size = bnd.block_size
        rows, used = _pis_block_rows(bnd.block_mu, size, config.gamma_th, gen, n, bound=bnd)
        x[:, start:start + size] = rows
        proposals += used
        start += size
    return x, proposals


def _pis_block(config: ChannelConfig, plan: PartitionPlan, gen, n: int):
    x, proposals = _pis_rows(config, plan, gen, n)
    return int(np.count_nonzero(_outage(config, x))), proposals


@_estimator(S=1)
def estimate_pis(config: ChannelConfig, S: int, rng: RngStream,
                 workers: int = 1) -> EstimateResult:
    """Selection sampling on the partition event (every block sum below threshold).

    Tighter than the per-branch event, so ell2 <= ell1 and the variance
    ell2 * p - p^2 shrinks accordingly; each block is sampled by the
    cheaper exact rejection that compute_m_ell picks for it.
    """
    plan = build_partition_plan(config)
    hits, proposals = _run_blocks(partial(_pis_block, config, plan), S, rng, workers)
    return *_selection(plan.ell2, hits, S), S, S, {
        "ell2": plan.ell2,
        "hit_fraction": hits / S,
        "m_ell": [b.value for b in plan.bounds],
        "proposal": [b.proposal for b in plan.bounds],
        "proposals": proposals,
        "acceptance_rate": (S * len(plan.bounds) / proposals) if proposals else 1.0,
    }


# ---------------------------------------------------------------------------
# approximate exponential tilting


def _et_log_lr_rows(config: ChannelConfig, x: np.ndarray) -> np.ndarray:
    """ln f(x) / prod_i (rate e^{-rate x_i}) per row, f the channel law, rate = M / gamma_th."""
    M, mu, rate = config.M, config.mu_array, config.M / config.gamma_th
    out = (rate - 1.0) * x.sum(axis=1) - (float(np.dot(mu, mu)) + M * math.log(rate))
    for val in sorted(set(config.mu)):
        out += _bessel_rows(((1.0, 2.0 * val),), x if config.identical_mu else x[:, mu == val])
    return out


def _et_block(config: ChannelConfig, gen, n: int):
    x = _exponential_rows(config.M / config.gamma_th, gen, (n, config.M))
    return _lr_sums(config, x, partial(_et_log_lr_rows, config))


@_estimator(S=2)
def estimate_et(config: ChannelConfig, S: int, rng: RngStream,
                workers: int = 1) -> EstimateResult:
    """Exponentially tilted proposal: iid Exp(M / gamma_th) branches.

    The tilt is the KL-optimal one for the full sum, approximated by an
    exponential with mean gamma_th / M; the likelihood ratio is accumulated
    in log space and exponentiated once per outage sample.
    """
    total, total_sq, hits = _run_blocks(partial(_et_block, config), S, rng, workers)
    return *_weighted(total, total_sq, hits, S), S, S, {"hit_rate": hits / S}


# ---------------------------------------------------------------------------
# cross-entropy


def _ce_log_lr_rows(x: np.ndarray, nominal: CEParams, sampling: CEParams) -> np.ndarray:
    """ln f(x; nominal) / f(x; sampling) per row, its Bessel terms off one table."""
    a, b = nominal, sampling
    return (_bessel_rows(((1.0, math.sqrt(a.v2 / a.v1)), (-1.0, math.sqrt(b.v2 / b.v1))), x)
            + (0.5 / b.v1 - 0.5 / a.v1) * x.sum(axis=1)
            + x.shape[1] * (math.log(b.v1 / a.v1) + 0.5 * (b.v2 - a.v2)))


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
    Otherwise Newton's method from the moment root nu^4 = 2 m1^2 - m2, bisecting
    steps that leave the bracket, takes about 5; R' = 1 - R^2 - R/a, R = I1/I0.
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
    wrz, wzz = wz * rz, wz * z
    m1, m2 = float(np.dot(wz, z)), float(np.dot(wzz, z))

    def score(nu):
        v1 = 0.5 * (m1 - nu * nu)
        arg = nu * rz / v1
        r = special.i1e(arg) / special.i0e(arg)
        t = float(np.dot(wrz, r))
        ezr = m1 - float(np.dot(wzz, r * r)) - v1 / nu * t  # E_w[z R'], as z/a = sqrt(z) v1/nu
        return t - nu, ezr * (v1 + nu * nu) / (v1 * v1) - 1.0

    lo, hi = 1e-4 * math.sqrt(m1), math.sqrt(m1)
    if m2 >= 2.0 * m1 * m1 or score(lo)[0] <= 0.0:
        return CEParams(v1=0.5 * m1, v2=0.0)
    xtol, nu = 1e-15 * hi, min(max((2.0 * m1 * m1 - m2) ** 0.25, lo), (1.0 - 1e-9) * hi)
    while hi - lo > xtol:
        s, ds = score(nu)
        lo, hi = (nu, hi) if s > 0.0 else (lo, nu)
        step = s / ds if ds < 0.0 else math.inf
        if ds >= 0.0 and nu * ds < 5.0 * s:  # s rising: the root is past its maximum
            step = s * nu / (nu * ds - 5.0 * s)  # Newton on s / nu^5, as s ~ nu^3
        if abs(step) <= xtol or (ds < 0.0 and abs(s) <= 4e-16 * nu):  # s at its rounding
            nu -= step
            break
        nu = nu - step if lo < nu - step < hi else 0.5 * (lo + hi)
    v1 = 0.5 * (m1 - nu * nu)
    return CEParams(v1=v1, v2=nu * nu / v1)


def _elite_weights(x, h, level, nominal: CEParams, v: CEParams):
    """The rows with H <= level and their likelihood ratios to the nominal law.

    Rows drawn while v == nominal, ce's first batch of pis rows, weigh 1
    without evaluating the ratio: their ratio to the nominal law is the
    constant ell2, which ce_update normalizes away.
    """
    elite = x[h <= level]
    w = (np.ones(elite.shape[0]) if v == nominal
         else np.exp(_ce_log_lr_rows(elite, nominal, v)))
    if not np.any(w > 0.0):
        raise CeAdaptationError("CE elite set empty")
    return elite, w


def _ce_final_block(config: ChannelConfig, nominal: CEParams, vfin: CEParams, gen, n: int):
    x = _scaled_ncx2_rows(vfin.v1, vfin.v2, gen, (n, config.M))
    return _lr_sums(config, x, lambda xs: _ce_log_lr_rows(xs, nominal, vfin))


@_estimator(S=2, S0=100, rho=None)
def estimate_ce(config: ChannelConfig, S: int, rng: RngStream,
                S0: int = 100_000, rho: float = 0.1,
                workers: int = 1) -> EstimateResult:
    """Cross-entropy adaptive importance sampling (identical means only).

    A pilot on rng.child(0) fits the proposal v1 * ncx2(2, v2); the S
    estimation samples follow on child streams 1 on.

    The pilot is the paper's stage walk.  Each stage draws S0 rows, takes a
    level from their H and refits the proposal by ce_update to the rows at
    or below it, weighted by their likelihood ratios to the nominal law,
    until a level reaches gamma_th; the last batch's rows at gamma_th then
    give the final fit.  The first batch is S0 rows of pis's partition
    sampler, levelled at its CE_EXACT_PILOT_MIN_ROWS-th smallest H (inf for
    a smaller batch); every later one is drawn from the current proposal
    and levelled at its rho-quantile.  The pis rows are draws from the
    nominal law conditioned on the partition event, which holds every
    outage row, so they weigh alike, and the ones with H <= gamma_th are
    exact draws from the zero-variance density CE aims at (Chan & Kroese,
    Stat. Comput. 22(5), 2012, reach it by MCMC).  A batch that keeps that
    many outage rows ends the walk at once, leaving a two-entry trace;
    otherwise the walk goes on from its fit.  The partition plan is built
    first, so a threshold whose ell2 underflows raises before any draw.
    """
    if not config.identical_mu:
        raise ValueError("CE requires identical mu_i across branches")
    g = config.gamma_th
    mu = config.mu[0]
    nominal = CEParams(v1=0.5, v2=2.0 * mu * mu)
    plan = build_partition_plan(config)
    gen = rng.child(0).generator()
    v, trace = nominal, []
    while True:
        if trace:
            x = _scaled_ncx2_rows(v.v1, v.v2, gen, (S0, config.M))
            k = max(int(rho * S0), 1)
        else:
            x, _ = _pis_rows(config, plan, gen, S0)
            k = CE_EXACT_PILOT_MIN_ROWS
        h = gsc_statistic_rows(x, config.m)
        level = float(np.partition(h, k - 1)[k - 1]) if k <= S0 else math.inf
        trace.append({"iteration": len(trace), "gamma_t": level, "v1": v.v1, "v2": v.v2})
        if level <= g:
            break
        if len(trace) > CE_MAX_ITER:
            raise CeAdaptationError("CE failed to reach target threshold")
        v = ce_update(*_elite_weights(x, h, level, nominal, v))
    elite, w = _elite_weights(x, h, g, nominal, v)
    vfin = ce_update(elite, w)
    trace.append({"iteration": len(trace), "gamma_t": g, "v1": vfin.v1, "v2": vfin.v2})
    total, total_sq, hits = _run_blocks(partial(_ce_final_block, config, nominal, vfin), S,
                                        rng, workers, first=1)
    return *_weighted(total, total_sq, hits, S), S, S + S0 * (len(trace) - 1), {
        "trace": trace, "hit_rate": hits / S,
        "v_final": {"v1": vfin.v1, "v2": vfin.v2}, "pilot_hits": elite.shape[0]}


# ---------------------------------------------------------------------------
# multilevel splitting


def _mls_advance(config: ChannelConfig, gens, survivors, dt: float, s: int):
    """(G, outage mask) of s paths per stream advanced by dt, stream i in rows i s on.

    Each stream draws its survivor picks (none from None, a fresh start), then
    its gamma increments; one _outage_at call decides X = F^{-1}(1 - e^{-G})
    for every row, so the decision does not depend on the grouping.
    """
    g_mat = np.empty((len(gens) * s, config.M))
    for gen, g_surv, rows in zip(gens, survivors, g_mat.reshape(len(gens), s, config.M)):
        pick = None if g_surv is None else gen.integers(0, g_surv.shape[0], size=s)
        gen.standard_gamma(dt, out=rows)
        if pick is not None:
            rows += g_surv[pick]
    return g_mat, _outage_at(config, -np.expm1(-g_mat))


def _mls_group(config: ChannelConfig, levels, rng: RngStream, s: int, children):
    """The estimate of each replication of a group, from rng.child(i) each.

    The live replications step together; one left without survivors stops
    there with estimate 0.
    """
    gens = [rng.child(i).generator() for i in children]
    est = [1.0] * len(gens)
    live, survivors = list(range(len(gens))), [None] * len(gens)
    for idx in range(1, len(levels)):
        g_mat, mask = _mls_advance(config, [gens[i] for i in live], survivors,
                                   levels[idx] - levels[idx - 1], s)
        g_mat, hits = g_mat.reshape(len(live), s, -1), mask.reshape(len(live), s)
        counts = np.count_nonzero(hits, axis=1).tolist()
        for i, count in zip(live, counts):
            est[i] *= count / s
        survivors = [g[h] for g, h, c in zip(g_mat, hits, counts) if c]
        live = [i for i, c in zip(live, counts) if c]
        if not live:
            break
    return est


def mls_pilot_levels(config: ChannelConfig, pilot_samples: int,
                     target_cond_prob: float, rng: RngStream) -> MlsSchedule:
    """Greedy forward level construction for the splitting schedule.

    From the current time t, bisection finds the largest step t' whose
    empirical conditional survival P[H(X(t')) <= gamma | survivors at t]
    still meets the target, so no level's event is rare; terminates the
    moment t' = 1 qualifies.  Bisection tolerance is 1e-3 in t.  A schedule
    of one level means the outage event itself is not rare; estimate_mls
    notes that in its warnings.
    """
    _check_least("target_cond_prob", target_cond_prob, LEAST["mls"]["target_cond_prob"])
    _check_least("pilot_samples", pilot_samples, LEAST["mls"]["pilot_samples"])
    gen = rng.generator()
    work = 0

    def advance(dt):
        nonlocal work
        work += pilot_samples
        return _mls_advance(config, [gen], [g_surv], dt, pilot_samples)

    levels, fractions = [0.0], []
    g_surv, t = None, 0.0
    for _ in range(200):
        frac_end = float(np.mean(advance(1.0 - t)[1]))
        if frac_end >= target_cond_prob:
            levels.append(1.0)
            fractions.append(max(frac_end, 1.0 / pilot_samples))
            break
        lo, hi = t, 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.mean(advance(mid - t)[1]) >= target_cond_prob else (lo, mid)
        t_next = max(lo, t + 1e-3)
        g_mat, mask = advance(t_next - t)  # only the chosen level keeps its survivors
        frac, g_surv = float(np.mean(mask)), g_mat[mask]
        if g_surv.shape[0] == 0:
            raise RuntimeError("pilot produced no survivors; increase pilot_samples")
        levels.append(t_next)
        fractions.append(frac)
        t = t_next
    else:
        raise RuntimeError("pilot failed to reach t = 1 within 200 levels")
    return MlsSchedule(levels=tuple(levels), survivor_fractions=tuple(fractions),
                       pilot_work=work)


@_estimator(s=10, replications=2, target_cond_prob=None, pilot_samples=100)
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
    notes = []
    if schedule == "auto":
        schedule = mls_pilot_levels(config, pilot_samples, target_cond_prob,
                                    rng.child(0))
        if schedule.n_levels == 1:
            notes.append("outage event is not rare: single-level schedule")
    elif not isinstance(schedule, MlsSchedule):
        raise ValueError("schedule must be an MlsSchedule or 'auto'")
    # one stream per replication, stepped in groups of about MLS_ROWS chains
    per = max(1, MLS_ROWS // s)
    groups = [range(1 + a, 1 + min(a + per, replications))
              for a in range(0, replications, per)]
    runs = _map_ordered(partial(_mls_group, config, schedule.levels, rng, s), groups, workers)
    estimates = np.array([e for group in runs for e in group])
    chain_steps = s * schedule.n_levels * replications
    # a replication that survives keeps at least one of s chains at every level
    dead = np.count_nonzero(estimates == 0.0)
    if dead:
        notes.append(f"{dead} replication(s) died with zero survivors")
    return (float(estimates.mean()),
            float(estimates.var(ddof=1)) * s * schedule.n_levels,
            chain_steps, chain_steps + schedule.pilot_work,
            {"levels": list(schedule.levels),
             "pilot_fractions": list(schedule.survivor_fractions),
             "replications": replications, "per_level_samples": s,
             "replication_estimates": estimates.tolist(),
             "warnings": notes})
