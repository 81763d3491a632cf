"""Shared test references and oracles.

The references are computed with scipy alone.  The oracles below them are
small functions the package itself does not call: the scalar top-m sum,
P(a, x), the general-dof density and its log, Marcum Q (the upper-tail
cross-check of ncx2_cdf), the CE fit and the branch-density mode by
brentq, mls replications run one at a time, the paper's three-branch
rejection constant and its large-mean asymptote, and pis's simplex
rejection with the exact density on every proposal.
Test modules import them with ``from conftest import ...``.
"""

import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from outagemc.samplers import _LOG_RATIO_SLACK, _MAX_PROPOSAL_ROWS
from outagemc.specfun import Ncx2Params, _log_density, ncx2_logcdf


def _log_branch_density(x, mu):
    """ln f_X(x) for X = (1/2) ncx2(2, 2 mu^2): -x - mu^2 + ln I0(2 mu sqrt x)."""
    z = 2.0 * mu * np.sqrt(x)
    return -x - mu * mu + np.log(special.i0e(z)) + z


def log_sup_density_ratio(mu, n, gamma):
    """ln sup f/g over the solid simplex {x >= 0, sum x <= gamma}.

    f is the joint density of n iid branches conditioned on their sum being
    at most gamma, g = n! / gamma^n the uniform-simplex proposal.  f_X is
    log-concave, so the product of n copies peaks at equal coordinates
    x* = min(mode of f_X, gamma / n).  The normalizer is scipy's ncx2 CDF,
    which underflows to zero far in the lower tail, so keep gamma moderate.
    """
    if mu <= 1.0:
        mode = 0.0
    else:
        mode = optimize.minimize_scalar(
            lambda x: -_log_branch_density(x, mu), bounds=(0.0, mu * mu),
            method="bounded", options={"xatol": 1e-10}).x
    x_star = min(mode, gamma / n)
    log_cdf = stats.ncx2.logcdf(2.0 * gamma, 2 * n, 2.0 * n * mu * mu)
    return float(n * (math.log(gamma) + _log_branch_density(x_star, mu))
                 - special.gammaln(n + 1) - log_cdf)


def log_best_simplex_density_ratio(mu, n, gamma, rows, seed):
    """Largest ln f/g over `rows` uniform draws from the solid simplex."""
    gen = np.random.default_rng(seed)
    log_cdf = stats.ncx2.logcdf(2.0 * gamma, 2 * n, 2.0 * n * mu * mu)
    best = -math.inf
    for chunk in range(0, rows, 200_000):
        e = gen.standard_exponential((min(200_000, rows - chunk), n + 1))
        x = gamma * e[:, :n] / e.sum(axis=1, keepdims=True)
        best = max(best, float(_log_branch_density(x, mu).sum(axis=1).max()))
    return n * math.log(gamma) + best - special.gammaln(n + 1) - log_cdf


@pytest.fixture(name="log_sup_density_ratio", scope="session")
def _log_sup_density_ratio_fixture():
    return log_sup_density_ratio


@pytest.fixture(name="log_best_simplex_density_ratio", scope="session")
def _log_best_simplex_density_ratio_fixture():
    return log_best_simplex_density_ratio


# ---------------------------------------------------------------------------
# oracles


def gsc_statistic(x, m: int) -> float:
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


def ce_fit_brentq(x, w):
    """(v1, v2) of the weighted Rician fit that ce_update computes, by brentq.

    Same pooled moments, edge test and bracket (1e-4 sqrt(m1), sqrt(m1)),
    with xtol = 1e-15 sqrt(m1); the score is taken to its limit I1/I0 -> 1
    at the top of the bracket, where v1 = 0.
    """
    z = x.ravel()
    wz = np.repeat(w / w.sum(), x.shape[1]) / x.shape[1]
    rz = np.sqrt(z)
    m1, m2 = float(np.dot(wz, z)), float(np.dot(wz, z * z))

    def score(nu):
        v1 = 0.5 * (m1 - nu * nu)
        if v1 <= 0.0:
            return float(np.dot(wz, rz)) - nu
        arg = nu * rz / v1
        return float(np.dot(wz, rz * special.i1e(arg) / special.i0e(arg))) - nu

    hi = math.sqrt(m1)
    lo = 1e-4 * hi
    if m2 >= 2.0 * m1 * m1 or score(lo) <= 0.0:
        return 0.5 * m1, 0.0
    nu = optimize.brentq(score, lo, hi, xtol=1e-15 * hi)
    v1 = 0.5 * (m1 - nu * nu)
    return v1, nu * nu / v1


def mls_replications(config, levels, rng, s, replications):
    """[(estimate, dead level)] of estimate_mls's replications, one at a time.

    Replication i draws from rng.child(1 + i): at each level its survivor
    picks, then its gamma increments.  It stops at the first level left
    without survivors, with estimate 0 and that level (0 if it never does).
    """
    from outagemc.estimators import _outage_at

    out = []
    for i in range(replications):
        gen = rng.child(1 + i).generator()
        estimate, dead, g_surv = 1.0, 0, None
        for idx in range(1, len(levels)):
            dt = levels[idx] - levels[idx - 1]
            if g_surv is None:
                g_mat = gen.gamma(dt, size=(s, config.M))
            else:
                pick = gen.integers(0, g_surv.shape[0], size=s)
                g_mat = g_surv[pick] + gen.gamma(dt, size=(s, config.M))
            mask = _outage_at(config, g_mat, "mls")
            count = int(np.count_nonzero(mask))
            estimate *= count / s
            if count == 0:
                estimate, dead = 0.0, idx
                break
            g_surv = g_mat[mask]
        out.append((estimate, dead))
    return out


def branch_mode_brentq(mu):
    """Mode of X = (1/2) ncx2(2, 2 mu^2) for mu > 1, the root that _branch_mode bisects."""
    c = 0.5 / (mu * mu)
    z = optimize.brentq(lambda z: special.i1e(z) / (z * special.i0e(z)) - c,
                        1e-300, 2.0 * mu * mu)
    return (0.5 * z / mu) ** 2


def regularized_lower_gamma(a, x):
    """P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0."""
    if np.any(np.asarray(a, dtype=float) <= 0.0):
        raise ValueError("regularized_lower_gamma requires a > 0")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("regularized_lower_gamma requires x >= 0")
    out = special.gammainc(a, arr)
    return float(out) if np.isscalar(x) and np.isscalar(a) else out


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


def ncx2_pdf(x, params: Ncx2Params):
    """Noncentral chi-square density (computed in log space, then exponentiated)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("ncx2_pdf requires x >= 0")
    out = np.exp(ncx2_logpdf(arr, params))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def marcum_q(order: int, a, b):
    """Marcum Q_m(a, b), via the complementary (upper-tail) Poisson mixture.

    Independent of ncx2_cdf: scipy.stats Poisson weights over j < lam/2 +
    40 sqrt(lam/2) + 40 (the mass past it is below 1e-100), each times a
    direct gammaincc(m + j, b^2 / 2), so Q_m(sqrt(lam), sqrt(x)) +
    F(x; 2m, lam) = 1 is a genuine cross-check.
    """
    if order < 1 or order != int(order):
        raise ValueError("marcum_q requires integer order >= 1")
    a_val = float(a)
    b_arr = np.asarray(b, dtype=float)
    if a_val < 0.0 or np.any(b_arr < 0.0):
        raise ValueError("marcum_q requires a >= 0 and b >= 0")
    lam_half = a_val * a_val / 2.0
    j = np.arange(int(lam_half + 40.0 * math.sqrt(lam_half) + 40.0))
    w = stats.poisson.pmf(j, lam_half)
    y = b_arr * b_arr / 2.0
    q = special.gammaincc(int(order) + j.reshape((-1,) + (1,) * y.ndim), y)
    out = np.tensordot(w, q, axes=1)
    scalar = np.isscalar(b) or b_arr.ndim == 0
    return float(out) if scalar else out


# Envelope factor of the paper's near-mode bound C * max(f(0), f(A_mu)); it
# dominates the ncx2(2, 2 mu^2) density for every mu > 1 (the worst
# max f / max(f(0), f(A_mu)) is 1.0195, at mu ~ 1.073).
PAPER_REJECTION_C = 1.031


def log_m_ell_paper(mu: float, n: int, gamma_th: float):
    """(ln M, case): the paper's three-branch rejection constant.

      mu <= 1             : gamma^n e^{-n mu^2} / (n! F)
      2 gamma <= 2mu^2 - 2: [2 gamma f(2 gamma)]^n / (n! F)
      otherwise           : [2 gamma C max(f(0), f(A_mu))]^n / (n! F),
                            A_mu = 2 mu^2 - 2 + 2 / (2 mu^2)

    with f the ncx2(2, 2 mu^2) density and F the CDF of the block sum's
    ncx2(2n, 2n mu^2) at 2 gamma.  It bounds sup f/g but is loose for
    mu > 1, by a factor growing like e^mu; compute_m_ell is the supremum.
    """
    lam = 2.0 * mu * mu
    log_f = ncx2_logcdf(2.0 * gamma_th, Ncx2Params(2 * n, n * lam))
    log_nfact = float(special.gammaln(n + 1))
    if mu <= 1.0:
        return (n * math.log(gamma_th) - n * mu * mu - log_nfact - log_f,
                "small_mean")
    params = Ncx2Params(2, lam)
    if 2.0 * gamma_th <= lam - 2.0:
        log_pdf = ncx2_logpdf(2.0 * gamma_th, params)
        case = "large_mean_small_gamma"
        log_c = 0.0
    else:
        log_pdf = max(ncx2_logpdf(lam - 2.0 + 2.0 / lam, params),
                      ncx2_logpdf(0.0, params))
        case = "large_mean_large_gamma"
        log_c = math.log(PAPER_REJECTION_C)
    return (n * (math.log(2.0 * gamma_th) + log_c + log_pdf) - log_nfact - log_f,
            case)


def log_m_ell_asymptotic(mu: float, n: int, gamma_th: float) -> float:
    """Large-mean log-asymptote of the partition rejection constant.

    ln M ~ ln[ n^{(2n+1)/4} g^{(n+1)/4} / (2^{n-1} n! pi^{(n-1)/2}
    e^{(n-1)g}) ] + (n+1)/2 ln mu + 2 sqrt(g) (n - sqrt(n)) mu, valid for
    mu > 1 with the threshold below the density mode, i.e. in the
    increasing-density branch of log_m_ell_paper (2 g <= 2 mu^2 - 2).
    """
    if mu <= 1.0:
        raise ValueError("asymptotic regime needs mu > 1")
    if 2.0 * gamma_th > 2.0 * mu * mu - 2.0:
        raise ValueError("asymptotic regime needs 2 gamma_th <= 2 mu^2 - 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((2 * n + 1) / 4.0 * math.log(n)
            + (n + 1) / 4.0 * math.log(gamma_th)
            - (n - 1) * math.log(2.0)
            - float(special.gammaln(n + 1))
            - (n - 1) / 2.0 * math.log(math.pi)
            - (n - 1) * gamma_th
            + (n + 1) / 2.0 * math.log(mu)
            + 2.0 * math.sqrt(gamma_th) * (n - math.sqrt(n)) * mu)


def m_ell_asymptotic(mu: float, n: int, gamma_th: float) -> float:
    """Large-mean asymptote of the rejection constant (exp of the log form)."""
    try:
        return math.exp(log_m_ell_asymptotic(mu, n, gamma_th))
    except OverflowError:
        return math.inf


def pis_simplex_rows_exact(mu, n, gamma_th, gen, count, bound):
    """(samples, proposals) of _pis_block_rows's simplex rejection, density on every row.

    Each batch, sized as the sampler sizes it, takes ln f/(M_ell g) from
    _log_density on every uniform simplex draw, checks it against the bound
    and then tests it against one uniform per draw: the exact test whose
    decisions the sampler's squeeze must reproduce.
    """
    log_fgm = (bound.log_block_cdf + float(special.gammaln(n + 1)) - n * math.log(gamma_th)
               + bound.log_value)
    out = np.empty((count, n))
    filled = proposals = 0
    while filled < count:
        want = count - filled
        rows = min(max(256, int(math.ceil(want * bound.value * 1.15))), _MAX_PROPOSAL_ROWS)
        e = gen.standard_exponential((rows, n + 1))
        x = gamma_th * e[:, :n] / e.sum(axis=1, keepdims=True)
        log_ratio = _log_density(x, 0.5, 2.0 * mu * mu).sum(axis=1) - log_fgm
        assert log_ratio.max() <= _LOG_RATIO_SLACK, "rejection bound violated"
        acc = np.flatnonzero(gen.random(rows) <= np.exp(log_ratio))
        kept = acc[:want]
        out[filled:filled + kept.size] = x[kept]
        filled += kept.size
        proposals += int(kept[-1]) + 1 if acc.size > want else rows
    return out, proposals


def pis_tilted_rows_rebuilt(mu, n, gamma_th, gen, count, bound):
    """(samples, proposals) of _pis_block_rows's tilted rejection, from its derivation.

    A block's 2n unit-variance Gaussians Z have real-part means sqrt(v2), with
    v1 = u / 2, v2 = 2 mu^2 u and u = 1 / (1 + theta).  Each batch draws
    w = <Z, e> ~ N(sqrt(n v2), 1) along the real-part unit vector e for
    every trial, r = |Z - w e|^2 ~ chi2(2n - 1) for the trials with
    v1 w^2 <= gamma_th, and a uniform for the trials with
    S = v1 (w^2 + r) <= gamma_th only when theta > 0.  The kept rows then
    take 2n normals, drawn coordinate by coordinate as the rows of a
    (2n, kept) array, centred on their real half and scaled to norm sqrt r,
    with w / sqrt(n) added to the real half.
    """
    u = 1.0 / (1.0 + bound.theta)
    v1 = 0.5 * u
    out = np.empty((count, n))
    filled = proposals = 0
    while filled < count:
        want = count - filled
        rows = min(max(256, int(math.ceil(want * bound.proposals_per_row * 1.15))),
                   _MAX_PROPOSAL_ROWS)
        w = gen.standard_normal(rows) + mu * math.sqrt(2.0 * n * u)
        cand = np.flatnonzero(v1 * w ** 2 <= gamma_th)
        r = 2.0 * gen.standard_gamma(n - 0.5, cand.size)
        s = v1 * (w[cand] ** 2 + r)
        hit = s <= gamma_th
        if bound.theta > 0.0:
            sub = np.flatnonzero(hit)
            hit[sub] = gen.random(sub.size) <= np.exp(bound.theta * (s[sub] - gamma_th))
        acc = np.flatnonzero(hit)
        kept = acc[:want]
        h = gen.standard_normal((2 * n, kept.size))
        z = np.vstack([h[:n] - h[:n].mean(axis=0), h[n:]])
        z = z * np.sqrt(r[kept] / np.einsum("ij,ij->j", z, z))
        z[:n] += w[cand[kept]] / math.sqrt(n)
        out[filled:filled + kept.size] = (v1 * (z[:n] ** 2 + z[n:] ** 2)).T
        filled += kept.size
        proposals += int(cand[kept[-1]]) + 1 if acc.size > want else rows
    return out, proposals
