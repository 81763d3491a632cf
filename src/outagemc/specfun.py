"""Noncentral chi-square numerics used by every sampler and estimator.

The CDF is Boost's (scipy.special.chndtr; Benton & Krishnamoorthy, CSDA
43, 2003), which sums the Poisson mixture outward from its mode.  Where
lam x < 1e-16 the mixture's leading term e^{-lam/2} P(k/2, x/2) is F to
1e-16 relative and replaces it.  The one density, _log_density, is the
Bessel form of the scaled 2-dof law in log space; ce's and et's likelihood
ratios read its Bessel terms off certified cubic tables in ln(1 + z).

The quantile is Boost's inverse of that CDF (scipy.special.chndtrix).  At
2 dof, the branch law's, it is read through a monotone cubic Hermite table
(Fritsch & Carlson, SIAM J. Numer. Anal. 1980) of ln x against logit p,
one per noncentrality, built and read as the Bessel tables are, by
_cubic_pieces and _cubic_at.  A point on it takes one certified Newton
step (one CDF evaluation); a caller that only needs its value within its
certified eps costs none.

Everything that can underflow (the density, the CDF for very large
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

# The quantile table's grid: 8192 points uniform in logit p (ln p deep in the left tail) up
# to 15, past which the CDF's rounding makes the quantile too noisy to check.  A Newton step
# from residual r leaves about r^2 / (2 min(p, 1 - p)), so the certificate
# r^2 <= 1e-15 p min(p, 1 - p) keeps that below 5e-16 p, the CDF's own rounding.
_TABLE_LOGIT = (math.log(1e-250), 15.0, 8192)
_NEWTON_CERT = 1e-15
# the quantile's upper clip on p: nearer 1 the CDF's rounding leaves too few digits of 1 - p
_P_MAX = 1.0 - 1e-14
_QuantileTable = namedtuple("_QuantileTable", "s0 h coef eps")
# The Bessel table's (intervals, width) in u = ln(1 + z) up to z = 1e4, its certificate,
# and its reader's rows per pass, which keep the reader's temporaries in cache
_BESSEL_GRID, _BESSEL_CERT, _BESSEL_CHUNK = (8192, math.log1p(1e4) / 8192), 1e-13, 4096


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


def _log_density(x, v1, v2):
    """ln of the v1 ncx2(2, v2) density, e^{-x/(2 v1) - v2/2} I0(sqrt(v2 x / v1)) / (2 v1).

    Per coordinate of x, for scalar v1, v2 or one per column.  The branch law
    v1 = 1/2, v2 = 2 mu^2 gives -mu^2 - x + ln I0(2 mu sqrt x), the Bessel
    argument rounded as 2 mu sqrt(x).  pis's simplex test, M_ell and the exact
    m = 2 integral read it, and at v1 = 1 so do the quantile table's slopes and
    ncx2_quantile's Newton step; ce's and et's ratios read _bessel_rows instead.
    """
    return (log_bessel_i0(np.sqrt(v2 / v1) * np.sqrt(x))
            - x / (2.0 * v1) - (np.log(2.0 * v1) + 0.5 * v2))


def _cubic_pieces(g, d, exact, scale=1.0):
    """Hermite cubics through node values g and slopes d (per interval), and their midpoint gap.

    coef[i] holds a_0..a_3 of sum_k a_k t^k on t in [0, 1], node i to i + 1; the gap is the
    worst |piece - exact| / scale at the midpoints, NaN if any is.
    """
    dg = np.diff(g)
    coef = np.stack([g[:-1], d[:-1], 3 * dg - 2 * d[:-1] - d[1:], d[:-1] + d[1:] - 2 * dg], axis=1)
    return coef, float(np.max(np.abs(_cubic_at(coef, np.arange(len(dg)) + 0.5) - exact) / scale))


def _cubic_at(coef, u):
    """The pieces at u (in intervals), NaN off [0, len(coef)): one gather, one Horner a point."""
    if not len(coef):
        return np.full(np.shape(u), np.nan)
    i = np.fmin(np.fmax(u, 0.0), len(coef) - 1.0).astype(np.intp)  # NaN u: piece 0, NaN t
    t = u - i
    a0, a1, a2, a3 = np.moveaxis(np.take(coef, i, axis=0), -1, 0)
    v = ((a3 * t + a2) * t + a1) * t + a0
    v[~((t >= 0.0) & (t < 1.0))] = np.nan
    return v


@lru_cache(maxsize=16)
def _bessel_table(terms: tuple):
    """Cubics in u = ln(1 + c_max sqrt x) of sum_k s_k ln i0e(c_k sqrt x), each c_k > 0, or None.

    ln i0e(z) is -z + z^2/4 near 0 and -ln(2 pi z)/2 far out (DLMF 10.40.1), smooth in u,
    so Hermite cubics converge at h^4.  None unless every midpoint reads within
    _BESSEL_CERT max(1, sum_k |ln I0|) of log_bessel_i0's sum.
    """
    n, h = _BESSEL_GRID
    c_max = max(c for _, c in terms)
    e = np.expm1(0.5 * h * np.arange(2 * n + 1))  # c_max sqrt x at the nodes and midpoints
    val = scale = d = 0.0
    for s, c in terms:
        z = (c / c_max) * e
        log_i0 = log_bessel_i0(z)
        val, scale, z = val + s * (log_i0 - z), scale + np.abs(log_i0), z[::2]
        # h d ln i0e/du at the nodes: (I1/I0 - 1) dz/du, dz/du = z + c / c_max
        d = d + s * h * (special.i1e(z) / np.exp(log_i0[::2] - z) - 1.0) * (z + c / c_max)
    coef, gap = _cubic_pieces(val[::2], d, val[1::2], np.maximum(scale[1::2], 1.0))
    return coef if gap <= _BESSEL_CERT else None


def _bessel_rows(terms, x: np.ndarray) -> np.ndarray:
    """Row sums over x's columns of sum_k s_k ln I0(c_k sqrt x), terms ((s_k, c_k), ...).

    Terms with c_k = 0 drop out; the rest read their table of ln i0e, _BESSEL_CHUNK rows a
    pass, plus sum_k s_k c_k sqrt x, or log_bessel_i0 past the table or where it did not
    certify.  A row reads alike in any batch.
    """
    terms = tuple((s, c) for s, c in terms if c > 0.0)
    coef = _bessel_table(terms) if terms else None

    def exact(r):
        return sum((s * log_bessel_i0(c * r) for s, c in terms), np.zeros(r.shape))
    if coef is None:
        return exact(np.sqrt(x)).sum(axis=1)
    h, c_max = _BESSEL_GRID[1], max(c for _, c in terms)
    out = np.empty(x.shape[0])
    for a in range(0, x.shape[0], _BESSEL_CHUNK):
        r = np.sqrt(x[a:a + _BESSEL_CHUNK])
        v = _cubic_at(coef, np.log1p(c_max * r) / h) + sum(s * c for s, c in terms) * r
        if (far := np.isnan(v)).any():  # past the table, or NaN x
            v[far] = exact(r[far])
        out[a:a + _BESSEL_CHUNK] = v.sum(axis=1)
    return out


def ncx2_logcdf(x: float, params: Ncx2Params) -> float:
    """ln F(x), usable where F underflows (e.g. noncentrality in the thousands).

    One logsumexp over the mixture's terms within 10 sqrt(c) + 40 of its
    largest, near c = min(h, sqrt(h x / 2)), h = lam/2, where the Poisson
    weight's rise meets the fall of P(k/2 + j, x/2).  Raises past 500,001
    terms, or if a term at either end is within e^{-46} of the largest.
    """
    if x < 0.0:
        raise ValueError("ncx2_logcdf requires x >= 0")
    if x == 0.0:
        return -math.inf
    h = params.noncentrality / 2.0
    c = min(h, math.sqrt(h * x / 2.0))
    w = 10.0 * math.sqrt(c) + 40.0
    if w > 250000.0:
        raise ValueError(f"ncx2_logcdf needs over 500,001 terms at x={x!r}, lam={2 * h!r}")
    j = np.arange(math.floor(max(c - w, 0.0)), c + w)
    log_t = (-h + special.xlogy(j, h) - special.gammaln(j + 1.0)
             + log_regularized_lower_gamma(params.dof / 2.0 + j, x / 2.0))
    if max(log_t[-1], log_t[0] if j[0] else -math.inf) > log_t.max() - 46.0:
        raise ValueError(f"ncx2_logcdf's window misses mass at x={x!r}, lam={2 * h!r}")
    return float(special.logsumexp(log_t))


def _table_value(tab: _QuantileTable, q: np.ndarray) -> np.ndarray:
    """The table's quantile at q where logit q lies on its pieces, else NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):  # q = 0 or 1: u = -inf or inf
        return np.exp(_cubic_at(tab.coef, (np.log(q) - np.log1p(-q) - tab.s0) / tab.h))


def _boost_quantile(q: np.ndarray, params: Ncx2Params) -> np.ndarray:
    """Boost's inverse of its own CDF (scipy.special.chndtrix), with ncx2_cdf's band.

    Below q_edge = ncx2_cdf(1e-16 / lam), where ncx2_cdf is its own j = 0
    term, that term is inverted in closed form: chndtrix is up to 28% off
    there (and NaN at subnormal q when lam = 0).
    """
    dof, lam = params.dof, params.noncentrality
    band = q < (ncx2_cdf(1e-16 / lam, params) if lam > 0.0 else 1.0)
    x = np.empty(q.shape)
    x[~band] = special.chndtrix(q[~band], dof, lam)
    if band.any():
        t = q[band] * math.exp(lam / 2.0)
        x[band] = -2.0 * np.log1p(-t) if dof == 2 else 2.0 * special.gammaincinv(dof / 2.0, t)
    return x


@lru_cache(maxsize=64)
def _quantile_table(lam: float) -> _QuantileTable:
    """Cubic pieces of ln x in s = logit p between the grid points s0 + i h, for ncx2(2, lam).

    One table per noncentrality of the branch law's 2 dof.  Nodes come from _boost_quantile;
    the exact slopes p (1 - p) / (x f(x)), f read from _log_density, meet Fritsch & Carlson's
    monotonicity condition on this grid.  eps bounds the relative error on every piece: 8 times
    the worst gap in ln x to _boost_quantile at the midpoints, where the Hermite error peaks,
    plus 1e-12 for the certified step's own error.  An eps above 1e-6 (sound tables read 2e-8
    to 4e-8; lam = 200 reads 0.12) or a non-finite one leaves no pieces and eps = inf.
    """
    params = Ncx2Params(2, lam)
    s = np.linspace(*_TABLE_LOGIT)
    h = s[1] - s[0]
    p = special.expit(s)
    x = _boost_quantile(p, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        # chndtrix reads NaN at some lam (2000 among them): nan_to_num passes the density's check
        slope = p * special.expit(-s) / (x * np.exp(_log_density(np.nan_to_num(x), 1.0, lam)))
        mid = np.log(_boost_quantile(special.expit(s[:-1] + 0.5 * h), params))
        coef, gap = _cubic_pieces(np.log(x), h * slope, mid)
    ok = (eps := 8.0 * gap + 1e-12) <= 1e-6  # False at NaN
    return _QuantileTable(s[0], h, coef if ok else coef[:0], eps if ok else math.inf)


def ncx2_quantile(p, params: Ncx2Params):
    """Inverse CDF for p in (0, 1); |cdf(quantile(p)) - p| stays below 1e-12.

    p is clipped to _P_MAX = 1 - 1e-14.  At 2 dof, on the table's pieces, a
    point takes one Newton step from the table (one CDF evaluation), kept
    when its residual r meets r^2 <= _NEWTON_CERT p min(p, 1 - p); other
    points, and every point at other dof, are _boost_quantile's, checked by
    one CDF evaluation each: a miss past 1e-9 relative (p <= 1/2) or 1e-11
    absolute raises.  Batch size never matters.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("ncx2_quantile requires p in the open interval (0, 1)")
    q = np.clip(arr.ravel(), 5e-324, _P_MAX)
    x = np.full(q.shape, np.nan)
    if params.dof == 2:
        lam = params.noncentrality
        x = _table_value(_quantile_table(lam), q)
        on = ~np.isnan(x)
        x0, q0 = x[on], q[on]
        r = ncx2_cdf(x0, params) - q0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x0 - r / np.exp(_log_density(x0, 1.0, lam))
        x[on] = np.where(r * r <= _NEWTON_CERT * q0 * np.minimum(q0, 1.0 - q0), step, np.nan)
    cold = ~((x > 0.0) & (x < np.inf))
    x[cold] = xc = _boost_quantile(qc := q[cold], params)
    bad = ~(np.abs(ncx2_cdf(xc, params) - qc) <= np.where(qc <= 0.5, 1e-9 * qc, 1e-11))
    if bad.any():  # Boost's inverse fails far in the left tail at lam >= 200
        raise ValueError(f"ncx2_quantile cannot invert p={qc[bad][0]:.4g} for {params}")
    return float(x[0]) if np.isscalar(p) or arr.ndim == 0 else x.reshape(arr.shape)
