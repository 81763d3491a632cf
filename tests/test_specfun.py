"""Special-function accuracy tests.

Frozen expected values were produced by independent extended-precision
oracles (mpmath at 50 digits): the Bessel power series
sum_k (x/2)^{2k} / (k!)^2, the regularized incomplete gamma
mp.gammainc(a, 0, x, regularized=True), and the Poisson-mixture CDF summed
term by term with per-term regularized gammas.  The generating snippets are
kept next to each constant so the numbers can be re-derived.
"""

import math

import numpy as np
import pytest
from scipy import special

from conftest import marcum_q, ncx2_pdf, regularized_lower_gamma
from outagemc import specfun
from outagemc.specfun import (
    Ncx2Params,
    log_bessel_i0,
    log_regularized_lower_gamma,
    ncx2_cdf,
    ncx2_logcdf,
    ncx2_quantile,
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

    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("lam", [0.5, 10.58, 42.32, 50.0])
    def test_left_tail_matches_logcdf(self, k, lam):
        # one point per decade, through the bands where an intermediate
        # power of x in Boost's CDF is subnormal (1e-161 to 7e-156 at 2 dof,
        # 2.5e-64 to 2.6e-62 at 8) and the j = 0 term stands in for it
        params = Ncx2Params(k, lam)
        x = np.logspace(-300, -1, 300)
        ref = np.exp([ncx2_logcdf(v, params) for v in x])
        normal = ref >= np.finfo(float).tiny
        assert normal[x >= {2: 1e-161, 8: 2.5e-64}[k]].all()
        assert np.max(np.abs(ncx2_cdf(x[normal], params) / ref[normal] - 1.0)) < 1e-13

    def test_logcdf_extreme_noncentrality(self):
        # oracle: mpmath mixture with 4000 terms -> ln F(2; 8, 3200)
        got = ncx2_logcdf(2.0, Ncx2Params(8, 3200.0))
        assert got == pytest.approx(-1538.9406081550604, rel=1e-9)

    @pytest.mark.parametrize("x,k,lam,expected", [
        # oracle: mpmath mixture at 60 digits; Boost's CDF reads 0 at both
        (1e-3, 2, 200.0, -107.57625781396002788),
        (3.0, 8, 400.0, -179.48780467944646103),
    ])
    def test_logcdf_where_linear_cdf_reads_zero(self, x, k, lam, expected):
        assert ncx2_logcdf(x, Ncx2Params(k, lam)) == pytest.approx(expected, rel=1e-13)

    def test_logcdf_window_cap(self):
        # at lam/2 = 4e8 the value the earlier term-by-term loop reached
        # with its window capped at j = 500,000
        got = ncx2_logcdf(34.0, Ncx2Params(8, 8e8))
        assert got == pytest.approx(-399835133.6478996, rel=1e-15)
        # near the mean of lam = 2e6 the window centred on the largest term
        # holds the mass (it once started at j = 0 and missed it)
        got = ncx2_logcdf(2e6 + 2.0, Ncx2Params(2, 2e6))
        assert got == pytest.approx(np.log(special.chndtr(2e6 + 2.0, 2, 2e6)), rel=1e-9)
        # at lam = 4e9 the centred window would pass 500,001 terms
        with pytest.raises(ValueError, match="500,001"):
            ncx2_logcdf(4e9 + 2.0, Ncx2Params(2, 4e9))

    def test_log_lower_gamma_vectorized(self):
        a = np.array([0.5, 4.0, 50.0, 3000.0])
        got = log_regularized_lower_gamma(a, 3.0)
        want = [log_regularized_lower_gamma(v, 3.0) for v in a]
        assert got.shape == a.shape and np.array_equal(got, want)
        assert np.all(log_regularized_lower_gamma(a, 0.0) == -np.inf)

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
                                       (2, 10.58), (2, 42.32), (4, 2.5), (6, 10.58)])
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

    @pytest.mark.parametrize("lam", [0.5, 0.0])
    def test_round_trip_tiny_quantiles(self, lam):
        # the splitting estimator feeds probabilities this small; the fixed
        # points lie off the table, in and below the band where Boost's
        # CDF and its inverse lose digits to a subnormal power of x
        params = Ncx2Params(2, lam)
        rng = np.random.default_rng(1)
        p = np.concatenate([10.0 ** rng.uniform(-60, -3, 3000),
                            [4.7e-162, 1e-300, 1e-310, 1e-320]])
        x = ncx2_quantile(p, params)
        assert np.max(np.abs(ncx2_cdf(x, params) / p - 1.0)) < 1e-9

    def test_large_noncentrality_left_tail_raises(self):
        # at lam = 200 Boost's inverse answers 0.04954 for every p from
        # 1e-300 to 1e-50, where the CDF reads 0; the table built from it
        # is not certified, and the cold check turns the miss into an error
        params = Ncx2Params(2, 200.0)
        tab = specfun._quantile_table(200.0)
        assert tab.eps == np.inf and tab.n_cert == 0
        with pytest.raises(ValueError, match="cannot invert"):
            ncx2_quantile(1e-100, params)
        x = ncx2_quantile(0.5, params)
        assert abs(ncx2_cdf(x, params) - 0.5) < 1e-11

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_other_dof_build_no_table(self, k):
        # only the branch law's 2 dof reads a table; other even dof take the
        # checked inverse and leave the table cache as it was
        info = specfun._quantile_table.cache_info()
        ncx2_quantile(np.array([1e-10, 0.3, 0.5, 1 - 1e-8]), Ncx2Params(k, 4.0))
        assert specfun._quantile_table.cache_info() == info

    def test_nan_grid_uncertified(self):
        # at lam = 2000 Boost's inverse reads NaN on part of the grid; the
        # table must come out uncertified, not fail the density's domain check
        params = Ncx2Params(2, 2000.0)
        assert specfun._quantile_table(2000.0).n_cert == 0
        p = np.array([1e-3, 0.5, 0.9])
        assert np.max(np.abs(ncx2_cdf(ncx2_quantile(p, params), params) - p)) < 1e-11

    def test_uncertified_step_falls_back(self, monkeypatch):
        # a table 1e-3 off in ln x leaves steps whose residual fails the
        # certificate; those points must come from the exact inverse
        params = Ncx2Params(2, 10.58)
        tab = specfun._quantile_table(10.58)
        shifted = tab._replace(log_x=tab.log_x + 1e-3)
        monkeypatch.setattr(specfun, "_quantile_table", lambda lam: shifted)
        rng = np.random.default_rng(4)
        p = np.concatenate([[1e-200, 1e-10, 0.5, 1 - 1e-6], rng.random(2000)])
        x = ncx2_quantile(p, params)
        assert np.max(np.abs(ncx2_cdf(x, params) / p - 1.0)) < 1e-12

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
        tab = specfun._quantile_table(lam)
        d = tab.slope
        secant = np.diff(tab.log_x) / tab.h
        assert np.all(secant > 0.0)
        assert np.all((d[:-1] / secant) ** 2 + (d[1:] / secant) ** 2 <= 9.0)

    @pytest.mark.parametrize("lam", [0.5, 10.58, 18.0, 42.32, 50.0])
    def test_table_error_certified(self, lam):
        # the bound comes from one midpoint per interval; check it at 15
        # interior points of every certified interval against the quantile
        params = Ncx2Params(2, lam)
        tab = specfun._quantile_table(lam)
        assert 0.0 < tab.eps < 1e-7 and tab.n_cert == 8010
        u = (np.arange(tab.n_cert)[:, None] + np.arange(1, 16) / 16.0).ravel()
        p = special.expit(tab.s0 + u * tab.h)
        x = specfun._table_value(tab, p)
        assert not np.isnan(x).any()
        assert np.max(np.abs(x / ncx2_quantile(p, params) - 1.0)) <= tab.eps

    def test_table_error_uncertified(self, monkeypatch):
        # a NaN density in mid-grid leaves NaN slopes and NaN midpoints, so
        # no point may be read off the table (TestTableDecision's mu5 case
        # serves such tables); built uncached, so no other test sees it
        raw = specfun._log_density

        def nan_density(x, v1, v2):
            return np.where((x > 8.0) & (x < 12.0), np.nan, raw(x, v1, v2))

        monkeypatch.setattr(specfun, "_log_density", nan_density)
        tab = specfun._quantile_table.__wrapped__(10.58)
        assert np.isnan(tab.slope).any()
        assert tab.eps == np.inf and tab.n_cert == 0

    @pytest.mark.parametrize("lam,x_th", [(0.5, 0.2), (10.58, 34.0), (42.32, 34.0)])
    def test_one_cdf_evaluation_per_point(self, lam, x_th, monkeypatch):
        # a count, not a timing: CDF points per requested point on
        # uis-style (k u, k the CDF at a threshold) and mls-style (1 - e^{-G})
        # inputs; the certified step from the table spends one
        params = Ncx2Params(2, lam)
        ncx2_quantile(0.5, params)  # build the table outside the count
        raw = specfun.ncx2_cdf
        points = []

        def counting(x, *args, **kwargs):
            points.append(np.size(x))
            return raw(x, *args, **kwargs)

        monkeypatch.setattr(specfun, "ncx2_cdf", counting)
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


class TestBesselTable:
    """_bessel_rows reads sum_k s_k ln I0(c_k sqrt x) off one certified cubic table."""

    # (terms, gamma_th): et's branch laws c = 2 mu and ce pairs (1, c_n), (-1, c_s)
    # at subset, los, DENSE, mu=4/gamma=10, mu=5/gamma=17 and mu=10/gamma=40
    LAWS = [
        (((1.0, 1.0),), 0.1),
        (((1.0, 1.0), (-1.0, math.sqrt(4.0 / 0.2))), 0.1),
        (((1.0, 4.6),), 17.0),
        (((1.0, 4.6), (-1.0, math.sqrt(14.3 / 0.2))), 17.0),
        (((1.0, 1.0), (-1.0, math.sqrt(2.0 / 0.1))), 1.0),
        (((1.0, 8.0), (-1.0, math.sqrt(60.0 / 0.4))), 10.0),
        (((1.0, 10.0),), 17.0),
        (((1.0, 10.0), (-1.0, math.sqrt(90.0 / 0.3))), 17.0),
        (((1.0, 20.0), (-1.0, math.sqrt(250.0 / 0.5))), 40.0),
    ]

    @staticmethod
    def exact(terms, x):
        return sum(s * log_bessel_i0(c * np.sqrt(x)) for s, c in terms)

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        specfun._bessel_table.cache_clear()
        yield
        specfun._bessel_table.cache_clear()

    @pytest.mark.parametrize("terms,gamma", LAWS)
    def test_within_certificate_on_outage_coordinates(self, terms, gamma):
        # every outage coordinate lies in [0, gamma_th]: 60,001 probes there
        assert specfun._bessel_table(terms) is not None
        x = np.linspace(0.0, gamma, 60_001)[:, None]
        scale = np.maximum(sum(np.abs(log_bessel_i0(c * np.sqrt(x))) for _, c in terms), 1.0)
        err = np.abs(specfun._bessel_rows(terms, x) - self.exact(terms, x)[:, 0])
        assert np.all(err <= specfun._BESSEL_CERT * scale[:, 0])
        assert specfun._bessel_rows(terms, np.zeros((3, 2))).tolist() == [0.0] * 3

    def test_rows_do_not_depend_on_their_batch(self):
        # chunks of _BESSEL_CHUNK rows: a row reads the same alone and in any batch
        terms = self.LAWS[3][0]
        x = np.random.default_rng(5).uniform(0.0, 17.0, (2 * specfun._BESSEL_CHUNK + 7, 8))
        full = specfun._bessel_rows(terms, x)
        for rows in (slice(0, 1), slice(100, 5000), slice(4095, 4097), slice(-7, None)):
            assert np.array_equal(specfun._bessel_rows(terms, x[rows]), full[rows])

    def test_zero_arguments_drop_out(self, monkeypatch):
        # mu = 0 (Rayleigh) and a ce fit on the v2 = 0 edge give c = 0, ln I0(0) = 0
        x = np.random.default_rng(6).uniform(0.0, 2.0, (50, 4))
        built, table = [], specfun._bessel_table
        monkeypatch.setattr(specfun, "_bessel_table",
                            lambda terms: built.append(terms) or table(terms))
        assert np.array_equal(specfun._bessel_rows(((1.0, 0.0),), x), np.zeros(50))
        assert np.array_equal(specfun._bessel_rows(((1.0, 0.0), (-1.0, 0.0)), x), np.zeros(50))
        assert not built
        one = specfun._bessel_rows(((1.0, 0.0), (-1.0, 3.0)), x)
        assert built == [((-1.0, 3.0),)]
        np.testing.assert_allclose(one, -log_bessel_i0(3.0 * np.sqrt(x)).sum(axis=1),
                                   rtol=1e-13, atol=1e-13)

    def test_coordinates_past_the_table_take_the_exact_path(self):
        terms = self.LAWS[3][0]
        c_max = max(c for _, c in terms)
        n, h = specfun._BESSEL_GRID
        x_edge = (math.expm1(n * h) / c_max) ** 2  # c_max sqrt x = 1e4
        far = x_edge * np.array([[1.0, 1.5], [4.0, 1e6]])
        assert np.array_equal(specfun._bessel_rows(terms, far),
                              self.exact(terms, far).sum(axis=1))
        mixed = np.array([[0.5 * x_edge, 2.0 * x_edge, 3.0]])
        want = self.exact(terms, mixed).sum(axis=1)
        assert specfun._bessel_rows(terms, mixed) == pytest.approx(want, rel=1e-13)

    def test_uncertified_table_takes_the_exact_path(self, monkeypatch):
        # no table meets a zero tolerance: its law reads log_bessel_i0 on every coordinate
        terms = self.LAWS[3][0]
        monkeypatch.setattr(specfun, "_BESSEL_CERT", 0.0)
        assert specfun._bessel_table(terms) is None
        x = np.random.default_rng(7).uniform(0.0, 17.0, (300, 8))
        assert np.array_equal(specfun._bessel_rows(terms, x), self.exact(terms, x).sum(axis=1))
