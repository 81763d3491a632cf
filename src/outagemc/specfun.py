"""Noncentral chi-square numerics used by every sampler and estimator.

The noncentral chi-square CDF is evaluated as a Poisson mixture of
regularized lower incomplete gamma functions,

    F(x; k, lam) = sum_j  e^{-lam/2} (lam/2)^j / j!  *  P(k/2 + j, x/2),

with the mixture window grown bidirectionally from the Poisson mode until
the remaining Poisson tail mass is below 1e-15.  Successive gamma terms are
obtained from a single anchored ``gammainc`` evaluation via the stable
downward recurrence P(a+1, y) = P(a, y) - y^a e^{-y} / Gamma(a+1), which
keeps the cost per extra mixture term at a few vector operations.

The quantile is one certified Newton step from a monotone cubic Hermite
start (Fritsch & Carlson, SIAM J. Numer. Anal. 1980) read off a cached
table of ln x against logit p: one mixture evaluation per point, or none
for a caller that only needs the table's value within its certified eps.

Everything that can underflow (densities, mixture weights, the CDF for
very large noncentralities) also has a log-space path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

_POISSON_TAIL = 1e-15
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


def regularized_lower_gamma(a, x):
    """P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0."""
    if np.any(np.asarray(a, dtype=float) <= 0.0):
        raise ValueError("regularized_lower_gamma requires a > 0")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("regularized_lower_gamma requires x >= 0")
    out = special.gammainc(a, arr)
    return float(out) if np.isscalar(x) and np.isscalar(a) else out


def log_regularized_lower_gamma(a: float, x: float) -> float:
    """ln P(a, x), accurate deep in the left tail where P underflows.

    For x < a + 1 the Kummer series
      P(a, x) = x^a e^{-x} / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k))
    has positive, geometrically decaying terms; otherwise P is large enough
    to take the plain logarithm.
    """
    if a <= 0.0:
        raise ValueError("log_regularized_lower_gamma requires a > 0")
    if x < 0.0:
        raise ValueError("log_regularized_lower_gamma requires x >= 0")
    if x == 0.0:
        return -math.inf
    if x >= a + 1.0:
        return math.log(special.gammainc(a, x))
    s = 1.0
    term = 1.0
    denom = a
    for _ in range(10000):
        denom += 1.0
        term *= x / denom
        s += term
        if term < 1e-18 * s:
            break
    return a * math.log(x) - x - special.gammaln(a + 1.0) + math.log(s)


@lru_cache(maxsize=256)
def _mixture_window(lam_half: float):
    """Poisson(lam_half) weights covering >= 1 - 1e-15 of the mass.

    Returns (j_lo, weights) with weights[i] the pmf at j_lo + i; the window
    starts at the mode and expands bidirectionally so that large
    noncentralities do not underflow the leading weight.
    """
    if lam_half == 0.0:
        return 0, np.array([1.0])
    jstar = int(math.floor(lam_half))
    logw = -lam_half + jstar * math.log(lam_half) - special.gammaln(jstar + 1)
    w_mode = math.exp(logw)
    lower = [w_mode]
    j_lo = jstar
    w_dn = w_mode
    upper = []
    j_hi = jstar
    w_up = w_mode
    total = w_mode
    while total < 1.0 - _POISSON_TAIL:
        if j_lo > 0:
            w_dn *= j_lo / lam_half
            j_lo -= 1
            lower.append(w_dn)
            total += w_dn
        w_up *= lam_half / (j_hi + 1)
        j_hi += 1
        upper.append(w_up)
        total += w_up
        if j_hi - j_lo > 200000:  # unreachable for any finite lam in practice
            break
    return j_lo, np.array(lower[::-1] + upper)


def _cdf_pdf_raw(x, dof: int, lam: float, want_pdf: bool):
    """Mixture CDF (and optionally its derivative) at x, vectorized."""
    y = np.asarray(x, dtype=float) / 2.0
    j_lo, w = _mixture_window(lam / 2.0)
    a = dof / 2.0 + j_lo
    ey = np.exp(-y)
    if a == 1.0:
        p_term = -np.expm1(-y)
        t = y * ey
    else:
        p_term = special.gammainc(a, y)
        with np.errstate(divide="ignore"):
            t = np.exp(a * np.log(y) - y - special.gammaln(a + 1.0))
    cdf = w[0] * p_term
    dsum = w[0] * t * a if want_pdf else None
    for i in range(1, len(w)):
        p_term = p_term - t
        t = t * (y / (a + 1.0))
        a += 1.0
        cdf = cdf + w[i] * p_term
        if want_pdf:
            dsum = dsum + w[i] * t * a
    cdf = np.clip(cdf, 0.0, 1.0)
    if not want_pdf:
        return cdf, None
    # d/dx sum_j w_j P(a_j, x/2) = 1/2 sum_j w_j y^{a_j-1} e^{-y}/Gamma(a_j),
    # and t_j * a_j = y^{a_j} e^{-y} / Gamma(a_j), so pdf = sum w_j t_j a_j / (2y).
    with np.errstate(divide="ignore", invalid="ignore"):
        pdf = np.where(y > 0.0, dsum / (2.0 * y), np.nan)
    return cdf, pdf


def ncx2_cdf(x, params: Ncx2Params):
    """CDF of a noncentral chi-square at x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("ncx2_cdf requires x >= 0")
    out, _ = _cdf_pdf_raw(arr, params.dof, params.noncentrality, want_pdf=False)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def ncx2_logpdf(x, params: Ncx2Params):
    """ln of the noncentral chi-square density, safe for large noncentrality."""
    arr = np.asarray(x, dtype=float)
    k, lam = params.dof, params.noncentrality
    scalar = np.isscalar(x) or arr.ndim == 0
    if lam == 0.0:
        h = k / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (h - 1.0) * np.log(arr) - arr / 2.0 - h * math.log(2.0) - special.gammaln(h)
        if k == 2:
            out = np.where(arr == 0.0, -math.log(2.0), out)
        return float(out) if scalar else out
    nu = (k - 2) // 2
    z = np.sqrt(lam * arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -math.log(2.0) - (arr + lam) / 2.0 + z + np.log(special.ive(nu, z))
        if nu != 0:
            out = out + (nu / 2.0) * (np.log(arr) - math.log(lam))
    if k == 2:
        out = np.where(arr == 0.0, -math.log(2.0) - lam / 2.0, out)
    return float(out) if scalar else out


def ncx2_pdf(x, params: Ncx2Params):
    """Noncentral chi-square density (computed in log space, then exponentiated)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("ncx2_pdf requires x >= 0")
    out = np.exp(ncx2_logpdf(arr, params))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def ncx2_logcdf(x: float, params: Ncx2Params) -> float:
    """ln F(x), usable where F underflows (e.g. noncentrality in the thousands).

    Sums log-space mixture terms from j = 0 upward: for small x the gamma
    factor decays so fast in j that the leading terms dominate even when the
    Poisson weights peak much further out.
    """
    if x < 0.0:
        raise ValueError("ncx2_logcdf requires x >= 0")
    if x == 0.0:
        return -math.inf
    k, lam = params.dof, params.noncentrality
    y = x / 2.0
    lam_half = lam / 2.0
    if lam_half == 0.0:
        return log_regularized_lower_gamma(k / 2.0, y)
    log_lh = math.log(lam_half)
    terms = []
    best = -math.inf
    j = 0
    while True:
        logw = -lam_half + j * log_lh - special.gammaln(j + 1)
        lt = logw + log_regularized_lower_gamma(k / 2.0 + j, y)
        terms.append(lt)
        best = max(best, lt)
        # stop once past both the Poisson mode and the point of negligibility
        if j > lam_half and lt < best - 46.0:
            break
        j += 1
        if j > 500000:
            break
    return float(special.logsumexp(np.array(terms)))


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

    The exact slopes p (1 - p) / (x f(x)) reuse the solver's density; they
    meet Fritsch & Carlson's monotonicity condition on this grid.  eps bounds
    the relative error on the n_cert intervals below logit p = 15, past which
    the CDF's rounding makes the solved quantile too noisy to check against:
    8 times the worst error at the midpoints, where the Hermite error peaks,
    plus 1e-12 for the one-step quantile's own error; inf if not finite.
    """
    s = np.linspace(*_TABLE_LOGIT)
    p = special.expit(s)
    x, pdf = _quantile_newton(p, dof, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = p * special.expit(-s) / (x * pdf)
    tab = _QuantileTable(s[0], s[1] - s[0], np.log(x), slope, math.inf, 0)
    n = int((15.0 - s[0]) // tab.h)
    p_mid = special.expit(s[:n] + 0.5 * tab.h)
    x_tab = _table_value(tab, p_mid, n)
    x_mid, _ = _quantile_newton(p_mid, dof, lam, x_tab)
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


def _quantile_newton(p, dof, lam, x=math.nan):
    """Bracketed, safeguarded Newton solve of F(x) = p on an array of p.

    Starts from x where finite and positive, else from _quantile_init;
    returns the roots and the density there (NaN past the iteration cap).
    """
    pc = p
    n = pc.shape[0]
    x = np.where((x > 0.0) & (x < np.inf), x, _quantile_init(pc, dof, lam))
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    out = x.copy()
    dens = np.full(n, np.nan)
    idx = np.arange(n)
    for _ in range(120):
        cdf, pdf = _cdf_pdf_raw(x, dof, lam, want_pdf=True)
        err = cdf - pc
        done = (np.abs(err) <= 4e-15 * pc) | ((hi - lo) <= 4e-16 * np.maximum(x, 1e-300))
        if done.any():
            out[idx[done]] = x[done]
            dens[idx[done]] = pdf[done]
            keep = ~done
            if not keep.any():
                return out, dens
            idx, x, pc, lo, hi = idx[keep], x[keep], pc[keep], lo[keep], hi[keep]
            err, pdf = err[keep], pdf[keep]
        lo = np.where(err < 0.0, np.maximum(lo, x), lo)
        hi = np.where(err > 0.0, np.minimum(hi, x), hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - err / pdf
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        if bad.any():
            mid = np.where(np.isfinite(hi), 0.5 * (lo + hi), np.maximum(2.0 * x, 1.0))
            # geometric bisection keeps progress sane across tiny-quantile decades
            geo = bad & (lo <= 0.0) & np.isfinite(hi)
            mid = np.where(geo, np.sqrt(np.maximum(hi * np.maximum(x, 1e-320) * 0.25, 1e-320)), mid)
            xn = np.where(bad, mid, xn)
        x = xn
    out[idx] = x
    return out, dens


def ncx2_quantile(p, params: Ncx2Params):
    """Inverse CDF for p in (0, 1); |cdf(quantile(p)) - p| stays below 1e-12.

    p is clipped to 1 - 1e-14 on the right before solving (the mixture CDF
    saturates to 1 at the Poisson tail-truncation level anyway).  Points off
    the table or uncertified get bracketed Newton; batch size never matters.
    For 1e-250 <= p and logit p < 15 the start is within the table's eps.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("ncx2_quantile requires p in the open interval (0, 1)")
    dof, lam = params.dof, params.noncentrality
    tab = _quantile_table(dof, lam)
    q = np.clip(arr.ravel(), 5e-324, 1.0 - 1e-14)
    x0 = _table_value(tab, q, tab.log_x.size - 1)
    on = ~np.isnan(x0)
    q_on, x0 = q[on], x0[on]
    cdf, pdf = _cdf_pdf_raw(x0, dof, lam, want_pdf=True)
    r = cdf - q_on
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = x0 - r / pdf
    out = np.full_like(q, np.nan)
    out[on] = x1  # where uncertified, still the rescue's start
    rescue = ~on
    rescue[on] = ~((r * r <= _NEWTON_CERT * q_on * np.minimum(q_on, 1.0 - q_on))
                   & (x1 > 0.0))
    if rescue.any():
        out[rescue] = _quantile_newton(q[rescue], dof, lam, out[rescue])[0]
    return float(out[0]) if np.isscalar(p) or arr.ndim == 0 else out.reshape(arr.shape)


def marcum_q(order: int, a, b):
    """Marcum Q_m(a, b), via the complementary (upper-tail) Poisson mixture.

    Independent of ncx2_cdf's lower-tail path: anchored on gammaincc with the
    additive upward recurrence Q(a+1, y) = Q(a, y) + y^a e^{-y} / Gamma(a+1),
    so Q_m(sqrt(lam), sqrt(x)) + F(x; 2m, lam) = 1 is a genuine cross-check.
    """
    if order < 1 or order != int(order):
        raise ValueError("marcum_q requires integer order >= 1")
    a_val = float(a)
    b_arr = np.asarray(b, dtype=float)
    if a_val < 0.0 or np.any(b_arr < 0.0):
        raise ValueError("marcum_q requires a >= 0 and b >= 0")
    y = b_arr * b_arr / 2.0
    j_lo, w = _mixture_window(a_val * a_val / 2.0)
    s = int(order) + j_lo
    q_term = special.gammaincc(s, y)
    with np.errstate(divide="ignore"):
        t = np.exp(s * np.log(y) - y - special.gammaln(s + 1.0))
    out = w[0] * q_term
    aa = float(s)
    for i in range(1, len(w)):
        q_term = q_term + t
        t = t * (y / (aa + 1.0))
        aa += 1.0
        out = out + w[i] * q_term
    out = np.clip(out, 0.0, 1.0)
    scalar = np.isscalar(b) or b_arr.ndim == 0
    return float(out) if scalar else out
