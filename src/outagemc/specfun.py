"""Noncentral chi-square numerics used by every sampler and estimator.

The CDF is Boost's (scipy.special.chndtr; Benton & Krishnamoorthy, CSDA
43, 2003), which sums the Poisson mixture outward from its mode.  Where
lam x < 1e-16 the mixture's leading term e^{-lam/2} P(k/2, x/2) is F to
1e-16 relative and replaces it.  The density is the Bessel form.

The quantile is one bracketed Newton solver started from a monotone cubic
Hermite table (Fritsch & Carlson, SIAM J. Numer. Anal. 1980) of ln x
against logit p.  Its first exit is a certified Newton step, so a point on
the table costs one CDF evaluation; a caller that only needs the table's
value within its certified eps costs none.

Everything that can underflow (densities, the CDF for very large
noncentralities) also has a log-space path: ln P(a, x) from scipy's
hyp1f1, and ln F as one logsumexp over the mixture.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

# The quantile table's grid: 8192 points uniform in logit p, which is ln p
# deep in the left tail and -ln(1 - p) deep in the right.  A Newton step
# from residual r leaves about r^2 / (2 min(p, 1 - p)), so the certificate
# r^2 <= 1e-15 p min(p, 1 - p) keeps it below bracketed Newton's 4e-15 p.
_TABLE_LOGIT = (math.log(1e-250), -math.log(5e-13), 8192)
_NEWTON_CERT = 1e-15
_QuantileTable = namedtuple("_QuantileTable", "s0 h log_x slope eps n_cert")


@dataclass(frozen=True)
class Ncx2Params:
    """Parameters of a noncentral chi-square distribution with even dof."""

    dof: int
    noncentrality: float

    def __post_init__(self):
        if not isinstance(self.dof, (int, np.integer)) or self.dof < 2 or self.dof % 2:
            raise ValueError(f"dof must be an even integer >= 2, got {self.dof!r}")
        nc = float(self.noncentrality)
        if not math.isfinite(nc) or nc < 0.0:
            raise ValueError(f"noncentrality must be finite and >= 0, got {nc!r}")
        object.__setattr__(self, "dof", int(self.dof))
        object.__setattr__(self, "noncentrality", nc)


def log_bessel_i0(x):
    """ln I0(x) for x >= 0, overflow-free (uses the exponentially scaled I0)."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("log_bessel_i0 requires finite x >= 0")
    out = arr + np.log(special.i0e(arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_regularized_lower_gamma(a, x: float):
    """ln P(a, x) for x >= 0 and a > 0 (scalar or array), accurate where P underflows.

    For x < a + 1, P(a, x) = x^a e^{-x} M(1, a + 1, x) / Gamma(a + 1)
    (DLMF 8.5.1, M from scipy's hyp1f1); otherwise P is large enough to take
    the plain logarithm.
    """
    arr = np.asarray(a, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("log_regularized_lower_gamma requires a > 0")
    if x < 0.0:
        raise ValueError("log_regularized_lower_gamma requires x >= 0")
    out = np.full(arr.shape, -math.inf)
    if x > 0.0:
        series = x < arr + 1.0
        out[~series] = np.log(special.gammainc(arr[~series], x))
        a = arr[series]
        out[series] = (a * math.log(x) - x - special.gammaln(a + 1.0)
                       + np.log(special.hyp1f1(1.0, a + 1.0, x)))
    return float(out) if arr.ndim == 0 else out


def ncx2_cdf(x, params: Ncx2Params):
    """CDF of a noncentral chi-square at x >= 0, vectorized.

    Boost's CDF, except where lam x < 1e-16: there the j = 0 mixture term
    e^{-lam/2} P(dof/2, x/2) is F to within 1e-16, and Boost is off by up
    to 58% where an intermediate power of x is subnormal.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("ncx2_cdf requires x >= 0")
    dof, lam = params.dof, params.noncentrality
    cdf = np.asarray(special.chndtr(arr, dof, lam))
    near = lam * arr < 1e-16
    if near.any():
        y = arr[near] / 2.0
        # gammainc(1, y) loses ~6e-14 relative near y = 1e-258
        p0 = -np.expm1(-y) if dof == 2 else special.gammainc(dof / 2.0, y)
        cdf[near] = math.exp(-lam / 2.0) * p0
    return float(cdf) if np.isscalar(x) or arr.ndim == 0 else cdf


def ncx2_logpdf(x, params: Ncx2Params):
    """ln of the noncentral chi-square density, safe for large noncentrality."""
    arr = np.asarray(x, dtype=float)
    k, lam = params.dof, params.noncentrality
    scalar = np.isscalar(x) or arr.ndim == 0
    nu = (k - 2) // 2
    if lam == 0.0 and nu != 0:
        h = k / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (h - 1.0) * np.log(arr) - arr / 2.0 - h * math.log(2.0) - special.gammaln(h)
        return float(out) if scalar else out
    z = np.sqrt(lam * arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        ive = special.i0e(z) if nu == 0 else special.ive(nu, z)
        out = -math.log(2.0) - (arr + lam) / 2.0 + z + np.log(ive)
        if nu != 0:
            out = out + (nu / 2.0) * (np.log(arr) - math.log(lam))
    return float(out) if scalar else out


def ncx2_logcdf(x: float, params: Ncx2Params) -> float:
    """ln F(x), usable where F underflows (e.g. noncentrality in the thousands).

    One logsumexp over the Poisson mixture's terms j < h + 10 sqrt(h) + 40,
    h = lam/2, past which the weights are below e^{-50} of their mode and the
    gamma factors only fall.  Capped at 500,001 terms; raises if the last is
    within e^{-46} of the largest (x near the mean of lam above ~1e6).
    """
    if x < 0.0:
        raise ValueError("ncx2_logcdf requires x >= 0")
    if x == 0.0:
        return -math.inf
    h = params.noncentrality / 2.0
    j = np.arange(min(h + 10.0 * math.sqrt(h) + 40.0, 500001.0))
    log_t = (-h + special.xlogy(j, h) - special.gammaln(j + 1.0)
             + log_regularized_lower_gamma(params.dof / 2.0 + j, x / 2.0))
    if log_t[-1] > log_t.max() - 46.0:
        raise ValueError(f"ncx2_logcdf needs over 500,001 terms at x={x!r}, lam={2 * h!r}")
    return float(special.logsumexp(log_t))


def _table_value(tab: _QuantileTable, q: np.ndarray, n: int) -> np.ndarray:
    """The table's quantile at q where q lies in its first n intervals, else NaN."""
    with np.errstate(divide="ignore"):
        u = (np.log(q) - np.log1p(-q) - tab.s0) / tab.h
    on = (u >= 0.0) & (u < n)
    i = u[on].astype(np.intp)
    t = u[on] - i
    g, d, h = tab.log_x, tab.slope, tab.h
    tm = 1.0 - t  # cubic Hermite basis on [s_i, s_i + h]
    x = np.full(q.shape, np.nan)
    x[on] = np.exp(tm * tm * ((1.0 + 2.0 * t) * g[i] + t * h * d[i])
                   + t * t * ((3.0 - 2.0 * t) * g[i + 1] - tm * h * d[i + 1]))
    return x


@lru_cache(maxsize=64)
def _quantile_table(dof: int, lam: float) -> _QuantileTable:
    """ln x and d ln x / ds at the grid points s0 + i h of s = logit p.

    The exact slopes p (1 - p) / (x f(x)) take the density at the solved
    roots; they meet Fritsch & Carlson's monotonicity condition on this
    grid.  eps bounds the relative error on the n_cert intervals below
    logit p = 15, past which the CDF's rounding makes the solved quantile
    too noisy to check against: 8 times the worst error at the midpoints,
    where the Hermite error peaks, plus 1e-12 for the certified step's own
    error; inf if not finite.
    """
    params = Ncx2Params(dof, lam)
    s = np.linspace(*_TABLE_LOGIT)
    p = special.expit(s)
    x = _quantile_newton(p, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = p * special.expit(-s) / (x * np.exp(ncx2_logpdf(x, params)))
    tab = _QuantileTable(s[0], s[1] - s[0], np.log(x), slope, math.inf, 0)
    n = int((15.0 - s[0]) // tab.h)
    p_mid = special.expit(s[:n] + 0.5 * tab.h)
    x_tab = _table_value(tab, p_mid, n)
    x_mid = _quantile_newton(p_mid, params, x_tab)
    eps = 8.0 * float(np.max(np.abs(x_tab / x_mid - 1.0))) + 1e-12
    return tab._replace(eps=eps, n_cert=n) if math.isfinite(eps) else tab


def _quantile_init(p, dof, lam):
    """Patnaik two-moment start, switching to the leading mixture term deep left."""
    h = dof + lam
    f = h * h / (dof + 2.0 * lam)
    c = (dof + 2.0 * lam) / h
    z = special.ndtri(p)
    x0 = c * f * (1.0 - 2.0 / (9.0 * f) + z * np.sqrt(2.0 / (9.0 * f))) ** 3
    x0 = np.where(x0 > 0.0, x0, 1e-8)
    left = p < 1e-8
    if np.any(left):
        t = np.minimum(p[left] * math.exp(min(lam / 2.0, 600.0)), 0.999)
        x0_left = 2.0 * special.gammaincinv(dof / 2.0, t)
        x0[left] = np.maximum(x0_left, 1e-300)
    return x0


def _quantile_newton(p, params: Ncx2Params, x=math.nan):
    """Bracketed, safeguarded Newton solve of F(x) = p on an array of p.

    Starts from x where finite and positive, else from _quantile_init.  A
    point is done at its Newton step x - r/f once the residual r meets the
    certificate r^2 <= _NEWTON_CERT p min(p, 1 - p) and the step stays in
    the bracket; else at x once |r| <= 4e-15 p or the bracket collapses.
    """
    x = np.full(p.shape, x)
    cold = ~((x > 0.0) & (x < np.inf))
    x[cold] = _quantile_init(p[cold], params.dof, params.noncentrality)
    lo = np.zeros(x.shape)
    hi = np.full(x.shape, np.inf)
    out = x.copy()
    idx = np.arange(x.size)
    for _ in range(120):
        err = ncx2_cdf(x, params) - p
        done = (np.abs(err) <= 4e-15 * p) | ((hi - lo) <= 4e-16 * np.maximum(x, 1e-300))
        lo = np.where(err < 0.0, np.maximum(lo, x), lo)
        hi = np.where(err > 0.0, np.minimum(hi, x), hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - err / np.exp(ncx2_logpdf(x, params))
        inside = (xn > lo) & (xn < hi)
        step = inside & (err * err <= _NEWTON_CERT * p * np.minimum(p, 1.0 - p))
        done |= step
        if done.any():
            out[idx[done]] = np.where(step, xn, x)[done]
            keep = ~done
            if not keep.any():
                return out
            idx, x, xn, p, lo, hi, inside = (
                v[keep] for v in (idx, x, xn, p, lo, hi, inside))
        mid = np.where(np.isfinite(hi), 0.5 * (lo + hi), np.maximum(2.0 * x, 1.0))
        # geometric bisection keeps progress sane across tiny-quantile decades
        geo = (lo <= 0.0) & np.isfinite(hi)
        mid = np.where(geo, np.sqrt(np.maximum(hi * np.maximum(x, 1e-320) * 0.25, 1e-320)), mid)
        x = np.where(inside, xn, mid)
    out[idx] = x
    return out


def ncx2_quantile(p, params: Ncx2Params):
    """Inverse CDF for p in (0, 1); |cdf(quantile(p)) - p| stays below 1e-12.

    p is clipped to 1 - 1e-14 on the right before solving (nearer 1, the
    CDF's rounding leaves too few digits of 1 - p to solve for).  Bracketed
    Newton starts from the table where 1e-250 <= p and logit p < 15; there
    the start is within the table's eps, and its first step is nearly always certified.
    Batch size never matters.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("ncx2_quantile requires p in the open interval (0, 1)")
    tab = _quantile_table(params.dof, params.noncentrality)
    q = np.clip(arr.ravel(), 5e-324, 1.0 - 1e-14)
    out = _quantile_newton(q, params, _table_value(tab, q, tab.log_x.size - 1))
    return float(out[0]) if np.isscalar(p) or arr.ndim == 0 else out.reshape(arr.shape)
