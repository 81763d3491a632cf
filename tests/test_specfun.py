"""Special-function accuracy tests.

Frozen expected values were produced by independent extended-precision
oracles (mpmath at 50 digits): the Bessel power series
sum_k (x/2)^{2k} / (k!)^2, the regularized incomplete gamma
mp.gammainc(a, 0, x, regularized=True), and the Poisson-mixture CDF summed
term by term with per-term regularized gammas.  The generating snippets are
kept next to each constant so the numbers can be re-derived.
"""

import numpy as np
import pytest
from scipy import special

from outagemc import specfun
from outagemc.specfun import (
    Ncx2Params,
    log_bessel_i0,
    log_regularized_lower_gamma,
    marcum_q,
    ncx2_cdf,
    ncx2_logcdf,
    ncx2_logpdf,
    ncx2_pdf,
    ncx2_quantile,
    regularized_lower_gamma,
)


class TestLogBesselI0:
    def test_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    @pytest.mark.parametrize("x,expected", [
        # oracle: log(sum_k (x/2)^(2k) / (k!)^2) at 50 digits
        (1.0, 0.23591435850717865),
        (5.0, 3.3046817758225334),
        (20.0, 17.589610428244274),
    ])
    def test_series_oracle(self, x, expected):
        assert log_bessel_i0(x) == pytest.approx(expected, rel=1e-12)

    def test_large_argument(self):
        # oracle: mp.log(mp.besseli(0, 700)) = 695.80569999844344908
        assert log_bessel_i0(700.0) == pytest.approx(695.8056999984434, abs=1e-10)

    def test_never_overflows(self):
        out = log_bessel_i0(1e6)
        assert np.isfinite(out) and out == pytest.approx(1e6, rel=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-0.1)
        with pytest.raises(ValueError):
            log_bessel_i0(np.nan)

    def test_convex_nondecreasing_on_grid(self):
        x = np.linspace(0.0, 30.0, 400)
        y = log_bessel_i0(x)
        assert np.all(np.diff(y) >= 0.0)
        assert np.all(np.diff(y, 2) >= -1e-12)


class TestRegularizedLowerGamma:
    def test_exponential_cdf(self):
        assert regularized_lower_gamma(1.0, 1.0) == pytest.approx(
            0.6321205588285577, abs=1e-13)

    def test_at_zero(self):
        assert regularized_lower_gamma(4.0, 0.0) == 0.0

    @pytest.mark.parametrize("a,x,expected", [
        # oracle: mp.gammainc(a, 0, x, regularized=True)
        (4.0, 2.0, 0.14287653950145295),
        (0.5, 0.3, 0.56142197391900014),
        (6.0, 40.0, 0.99999999999587269),
    ])
    def test_oracle_values(self, a, x, expected):
        assert regularized_lower_gamma(a, x) == pytest.approx(expected, abs=1e-13)

    def test_monotone_in_x(self):
        x = np.linspace(0.0, 30.0, 500)
        y = regularized_lower_gamma(3.0, x)
        assert np.all(np.diff(y) >= 0.0)
        assert np.all((y >= 0.0) & (y <= 1.0))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)

    def test_log_version_matches_linear(self):
        for a, x in [(1.0, 0.5), (4.0, 2.0), (7.0, 3.0), (2.5, 10.0)]:
            got = log_regularized_lower_gamma(a, x)
            assert got == pytest.approx(np.log(regularized_lower_gamma(a, x)), rel=1e-12)

    def test_log_version_deep_tail(self):
        # oracle: mp.log(mp.gammainc(50, 0, 1, regularized=True)) at 50 digits;
        # P(50, 1) = 1.2337508979097351e-65
        got = log_regularized_lower_gamma(50.0, 1.0)
        assert got == pytest.approx(-149.45797200505863, rel=1e-12)


class TestNcx2Params:
    def test_invariants(self):
        Ncx2Params(2, 0.0)
        Ncx2Params(8, 42.32)
        with pytest.raises(ValueError):
            Ncx2Params(3, 1.0)  # odd dof
        with pytest.raises(ValueError):
            Ncx2Params(0, 1.0)
        with pytest.raises(ValueError):
            Ncx2Params(2, -0.5)
        with pytest.raises(ValueError):
            Ncx2Params(2, np.inf)


class TestNcx2Cdf:
    def test_central_is_exponential(self):
        # chi-square with 2 dof is Exp(1/2)
        x = np.linspace(0.0, 50.0, 200)
        got = ncx2_cdf(x, Ncx2Params(2, 0.0))
        assert np.max(np.abs(got - (1.0 - np.exp(-x / 2.0)))) < 1e-13

    def test_at_zero(self):
        assert ncx2_cdf(0.0, Ncx2Params(2, 0.5)) == 0.0
        assert ncx2_cdf(0.0, Ncx2Params(8, 42.0)) == 0.0

    @pytest.mark.parametrize("x,k,lam,expected", [
        # oracle: Poisson mixture with mp.gammainc terms, tail < 1e-30
        (2.0, 2, 0.5, 0.54573709886224179),
        (0.8, 8, 2.0, 0.00030885492929523796),
        (34.0, 8, 42.32, 0.10656715817164691),
        (5.0, 6, 3.7, 0.17972132617208754),
        (0.001, 4, 1.0, 7.5797380947428293e-8),
    ])
    def test_mixture_oracle(self, x, k, lam, expected):
        assert ncx2_cdf(x, Ncx2Params(k, lam)) == pytest.approx(expected, abs=1e-12)
        assert ncx2_cdf(x, Ncx2Params(k, lam)) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_x_and_noncentrality(self):
        x = np.linspace(0.0, 40.0, 300)
        prev = None
        for lam in (0.0, 0.5, 2.0, 8.0, 20.0):
            y = ncx2_cdf(x, Ncx2Params(4, lam))
            assert np.all(np.diff(y) >= -1e-15)
            if prev is not None:
                # stochastically larger as lam grows
                assert np.all(y <= prev + 1e-12)
            prev = y

    def test_logcdf_matches_linear_range(self):
        for x, k, lam in [(2.0, 2, 0.5), (0.8, 8, 2.0), (34.0, 8, 42.32)]:
            got = ncx2_logcdf(x, Ncx2Params(k, lam))
            assert got == pytest.approx(np.log(ncx2_cdf(x, Ncx2Params(k, lam))),
                                        rel=1e-11)

    def test_logcdf_extreme_noncentrality(self):
        # oracle: mpmath mixture with 4000 terms -> ln F(2; 8, 3200)
        got = ncx2_logcdf(2.0, Ncx2Params(8, 3200.0))
        assert got == pytest.approx(-1538.9406081550604, rel=1e-9)

    def test_marcum_q_consistency(self):
        # complementary series must close to 1 - F at 1e-12
        cases = [(2.0, 2, 0.5), (0.81, 4, 2.25), (5.0, 6, 3.7), (34.0, 8, 42.32),
                 (10.0, 2, 9.0)]
        for x, k, lam in cases:
            q = marcum_q(k // 2, np.sqrt(lam), np.sqrt(x))
            f = ncx2_cdf(x, Ncx2Params(k, lam))
            assert q + f == pytest.approx(1.0, abs=1e-12)

    def test_marcum_q_oracle(self):
        # oracle: 1 - mixture F(0.81; 4, 2.25) = 0.97641423268956963
        assert marcum_q(2, 1.5, 0.9) == pytest.approx(0.97641423268956963, abs=1e-12)


class TestNcx2Pdf:
    def test_central_two_dof_at_zero(self):
        assert ncx2_pdf(0.0, Ncx2Params(2, 0.0)) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("x,k,lam,expected", [
        # oracle: 1/2 e^{-(x+lam)/2} (x/lam)^{nu/2} I_nu(sqrt(lam x)), 50 digits
        (2.0, 2, 0.5, 0.18136697355847871),
        (7.0, 8, 4.2, 0.064936977274102125),
    ])
    def test_oracle_values(self, x, k, lam, expected):
        assert ncx2_pdf(x, Ncx2Params(k, lam)) == pytest.approx(expected, rel=1e-10)

    def test_integrates_to_cdf(self):
        # oracle: mp.quad of the density over [0, 3] = 0.21170522565569067
        from scipy.integrate import quad
        params = Ncx2Params(4, 2.5)
        val, err = quad(lambda t: ncx2_pdf(t, params), 0.0, 3.0, epsabs=1e-12)
        assert val == pytest.approx(ncx2_cdf(3.0, params), abs=1e-10)
        assert val == pytest.approx(0.21170522565569067, abs=1e-10)

    def test_matches_mixture_derivative(self):
        # finite differences of the CDF against the density
        params = Ncx2Params(6, 3.0)
        for x in (0.5, 2.0, 5.0, 9.0):
            h = 1e-6 * max(x, 1.0)
            fd = (ncx2_cdf(x + h, params) - ncx2_cdf(x - h, params)) / (2 * h)
            assert fd == pytest.approx(ncx2_pdf(x, params), rel=1e-7)


class TestNcx2Quantile:
    def test_exponential_exact_points(self):
        params = Ncx2Params(2, 0.0)
        assert ncx2_quantile(1.0 - np.exp(-1.0), params) == pytest.approx(2.0, rel=1e-12)
        assert ncx2_quantile(0.5, params) == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_domain_errors(self):
        params = Ncx2Params(2, 1.0)
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                ncx2_quantile(p, params)

    @pytest.mark.parametrize("k,lam", [(2, 0.5), (8, 4.0), (2, 0.0), (8, 42.32),
                                       (2, 10.58), (2, 42.32)])
    def test_round_trip(self, k, lam):
        params = Ncx2Params(k, lam)
        rng = np.random.default_rng(0)
        # 1e-260 lies below the quantile table, 1 - 1e-14 at the clip
        p = np.concatenate([[1e-260, 1e-10, 1e-8, 1e-4, 0.5, 1 - 1e-8, 1 - 1e-10,
                             1 - 1e-14], rng.random(4000)])
        x = ncx2_quantile(p, params)
        back = ncx2_cdf(x, params)
        target = np.clip(p, 0.0, 1.0 - 1e-14)
        assert np.max(np.abs(back - target)) < 1e-11

    def test_round_trip_tiny_quantiles(self):
        # the splitting estimator feeds probabilities this small
        params = Ncx2Params(2, 0.5)
        rng = np.random.default_rng(1)
        p = 10.0 ** rng.uniform(-60, -3, 3000)
        x = ncx2_quantile(p, params)
        assert np.max(np.abs(ncx2_cdf(x, params) / p - 1.0)) < 1e-9

    def test_batch_size_independent(self):
        # every call starts from the same cached table, so scalar, small and
        # large calls agree bit for bit, on and off the table
        params = Ncx2Params(2, 0.98)
        rng = np.random.default_rng(2)
        p = rng.permutation(np.concatenate([10.0 ** rng.uniform(-300, -1, 50_000),
                                            rng.random(50_000)]))
        big = ncx2_quantile(p, params)
        mid = ncx2_quantile(p[:2400], params)
        small = np.array([ncx2_quantile(float(v), params) for v in p[:200]])
        assert np.array_equal(big[:2400], mid)
        assert np.array_equal(big[:200], small)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 10.58, 42.32])
    def test_table_monotone(self, lam):
        # Fritsch & Carlson: alpha^2 + beta^2 <= 9 keeps each Hermite piece
        # monotone; the exact slopes meet it without limiting
        tab = specfun._quantile_table(2, lam)
        d = tab.slope
        secant = np.diff(tab.log_x) / tab.h
        assert np.all(secant > 0.0)
        assert np.all((d[:-1] / secant) ** 2 + (d[1:] / secant) ** 2 <= 9.0)

    @pytest.mark.parametrize("lam", [0.5, 10.58, 18.0, 42.32])
    def test_table_error_certified(self, lam):
        # the bound comes from one midpoint per interval; check it at 15
        # interior points of every certified interval against the quantile
        params = Ncx2Params(2, lam)
        tab = specfun._quantile_table(2, lam)
        assert 0.0 < tab.eps < 1e-5 and tab.n_cert > 8000
        u = (np.arange(tab.n_cert)[:, None] + np.arange(1, 16) / 16.0).ravel()
        p = special.expit(tab.s0 + u * tab.h)
        x = specfun._table_value(tab, p, tab.n_cert)
        assert not np.isnan(x).any()
        assert np.max(np.abs(x / ncx2_quantile(p, params) - 1.0)) <= tab.eps

    def test_table_error_uncertified(self):
        # the table of lambda = 50 has a NaN slope and NaN midpoints, so no
        # point may be read off it (TestTableDecision inverts every row)
        tab = specfun._quantile_table(2, 50.0)
        assert np.isnan(tab.slope).any()
        assert tab.eps == np.inf and tab.n_cert == 0

    @pytest.mark.parametrize("lam,x_th", [(0.5, 0.2), (10.58, 34.0)])
    def test_one_cdf_evaluation_per_point(self, lam, x_th, monkeypatch):
        # a count, not a timing: mixture-CDF points per requested point on
        # uis-style (k u, k the CDF at a threshold) and mls-style (1 - e^{-G})
        # inputs; the bracketed solver spends about 3
        params = Ncx2Params(2, lam)
        ncx2_quantile(0.5, params)  # build the table outside the count
        raw = specfun._cdf_pdf_raw
        points = []

        def counting(x, *args, **kwargs):
            points.append(np.size(x))
            return raw(x, *args, **kwargs)

        monkeypatch.setattr(specfun, "_cdf_pdf_raw", counting)
        rng = np.random.default_rng(3)
        uis = ncx2_cdf(x_th, params) * rng.random(100_000)
        mls = -np.expm1(-rng.gamma(rng.uniform(1e-3, 1.0, 100_000)))
        for p in (uis, mls):
            points.clear()
            ncx2_quantile(np.maximum(p, 5e-324), params)
            assert sum(points) <= 1.2 * p.size


class TestAdditivity:
    def test_sum_of_halved_variates(self):
        # n iid (1/2) ncx2(2, lam) draws sum to (1/2) ncx2(2n, n lam):
        # empirical CDF at the threshold vs the mixture CDF, 3 SE
        rng = np.random.default_rng(7)
        n, lam, gamma = 4, 0.5, 1.0
        draws = 10 ** 7
        z1 = rng.standard_normal((draws, n)) + np.sqrt(lam)
        z2 = rng.standard_normal((draws, n))
        total = 0.5 * ((z1 ** 2) + z2 ** 2).sum(axis=1)
        emp = np.mean(total <= gamma)
        exact = ncx2_cdf(2.0 * gamma, Ncx2Params(2 * n, n * lam))
        se = np.sqrt(exact * (1 - exact) / draws)
        assert abs(emp - exact) < 3.0 * se
