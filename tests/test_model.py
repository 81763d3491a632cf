"""Channel model, combined statistic, and closed-form edges."""

import numpy as np
import pytest
from scipy import stats

from conftest import gsc_statistic
from outagemc.model import (
    ChannelConfig,
    EstimateResult,
    _log_outage_m2,
    closed_form_outage,
    gsc_statistic_rows,
)
from outagemc.samplers import TruncationUnderflowError
from outagemc.specfun import Ncx2Params, ncx2_cdf


class TestChannelConfig:
    def test_scalar_broadcast(self):
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=1.0)
        assert cfg.mu == (0.5, 0.5, 0.5, 0.5)
        assert cfg.identical_mu

    def test_explicit_vector(self):
        cfg = ChannelConfig(M=3, m=1, mu=(0.1, 0.2, 0.3), gamma_th=2.0)
        assert cfg.mu == (0.1, 0.2, 0.3)
        assert not cfg.identical_mu

    def test_derived_accessors(self):
        cfg = ChannelConfig(M=2, m=1, mu=(0.5, 2.0), gamma_th=1.0)
        assert cfg.mu_norm_sq == pytest.approx(4.25)

    @pytest.mark.parametrize("kw", [
        dict(M=4, m=0, mu=0.5, gamma_th=1.0),
        dict(M=4, m=5, mu=0.5, gamma_th=1.0),
        dict(M=4, m=2, mu=0.5, gamma_th=0.0),
        dict(M=4, m=2, mu=0.5, gamma_th=-1.0),
        dict(M=4, m=2, mu=(-0.5,), gamma_th=1.0),
        dict(M=4, m=2, mu=(0.5, 0.5), gamma_th=1.0),  # wrong length
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            ChannelConfig(**kw)

    def test_replace(self):
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=1.0)
        cfg2 = cfg.replace(gamma_th=0.5)
        assert cfg2.gamma_th == 0.5 and cfg2.M == 4 and cfg.gamma_th == 1.0


class TestEstimateResult:
    def test_invariants(self):
        EstimateResult(p_hat=0.1, var_hat=0.01, samples=10, wall_time_s=0.0,
                       method="nmc", seed=1)
        with pytest.raises(ValueError):
            EstimateResult(p_hat=-0.1, var_hat=0.0, samples=1,
                           wall_time_s=0.0, method="nmc", seed=1)
        with pytest.raises(ValueError):
            EstimateResult(p_hat=0.1, var_hat=-1.0, samples=1,
                           wall_time_s=0.0, method="nmc", seed=1)
        with pytest.raises(ValueError):
            EstimateResult(p_hat=0.1, var_hat=0.0, samples=0,
                           wall_time_s=0.0, method="nmc", seed=1)


class TestGscStatistic:
    def test_basic(self):
        assert gsc_statistic([3.0, 1.0, 2.0], 2) == 5.0

    def test_identical_entries(self):
        assert gsc_statistic([0.7] * 5, 3) == pytest.approx(2.1)

    def test_full_sum(self):
        x = [0.3, 1.2, 0.4]
        assert gsc_statistic(x, 3) == pytest.approx(sum(x))

    def test_against_full_sort(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            M = rng.integers(1, 12)
            m = int(rng.integers(1, M + 1))
            x = rng.exponential(size=M)
            expected = float(np.sort(x)[::-1][:m].sum())
            assert gsc_statistic(x, m) == pytest.approx(expected, rel=1e-14)

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(size=(64, 6))
        rows = gsc_statistic_rows(x, 4)
        for i in range(64):
            assert rows[i] == pytest.approx(gsc_statistic(x[i], 4), rel=1e-14)

    def test_monotone_in_coordinates_and_m(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(size=8)
        base = gsc_statistic(x, 3)
        for i in range(8):
            bumped = x.copy()
            bumped[i] += 0.1
            assert gsc_statistic(bumped, 3) >= base
        assert gsc_statistic(x, 3) <= gsc_statistic(x, 4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gsc_statistic([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            gsc_statistic([1.0, -2.0], 1)


class TestClosedFormOutage:
    def test_m1_central(self):
        cfg = ChannelConfig(M=2, m=1, mu=(0.0, 0.0), gamma_th=1.0)
        # both branches exponential: ((1 - e^-1))^2
        assert closed_form_outage(cfg) == pytest.approx(0.39957640089372805, rel=1e-12)

    def test_m_equals_M(self):
        cfg = ChannelConfig(M=8, m=8, mu=0.5, gamma_th=1.0)
        expected = ncx2_cdf(2.0, Ncx2Params(16, 4.0))
        assert closed_form_outage(cfg) == pytest.approx(expected, rel=1e-14)

    def test_unavailable(self):
        cfg = ChannelConfig(M=8, m=4, mu=0.5, gamma_th=1.0)
        assert closed_form_outage(cfg) is None

    def test_edge_values_against_oracle(self):
        # oracle: mpmath mixture at 50 digits
        cfg = ChannelConfig(M=4, m=1, mu=0.7, gamma_th=0.8)
        assert closed_form_outage(cfg) == pytest.approx(0.025180869256957065, rel=1e-11)
        cfg = ChannelConfig(M=4, m=4, mu=0.6, gamma_th=2.0)
        assert closed_form_outage(cfg) == pytest.approx(0.056468338958359542, rel=1e-11)

    @pytest.mark.parametrize("mu,expected", [
        # oracle: mpmath mixture of 2000 terms at 50 digits, F(34; 16, 16 mu^2)
        (3.0, 8.8861610943165069e-13),
        (4.0, 4.7777574105549123e-28),
    ], ids=["mu3", "mu4"])
    def test_large_means_left_tail(self, mu, expected):
        # the full sum at 34, far left of its mean 16 + 16 mu^2
        cfg = ChannelConfig(M=8, m=8, mu=mu, gamma_th=17.0)
        p = closed_form_outage(cfg)
        assert p == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert p == pytest.approx(stats.ncx2.cdf(34.0, 16, 16.0 * mu * mu), rel=1e-12, abs=0.0)

    def test_left_tail_where_linear_cdf_reads_zero(self):
        # oracle: mpmath mixture at 60 digits, F(0.2; 16, 256); Boost's
        # CDF reads 0 there
        cfg = ChannelConfig(M=8, m=8, mu=4.0, gamma_th=0.1)
        assert closed_form_outage(cfg) == pytest.approx(2.2161190553249328e-68, rel=1e-12)

    @pytest.mark.parametrize("cfg,expected", [
        # oracle: mpmath quadrature of the m = 2 integral at 30 digits
        (ChannelConfig(M=3, m=2, mu=0.5, gamma_th=0.5), 0.010662784030170517),
        (ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1), 9.0653618487707648e-12),
    ], ids=["small", "subset"])
    def test_second_largest_integral(self, cfg, expected):
        assert closed_form_outage(cfg) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cfg,printed", [
        (ChannelConfig(M=4, m=2, mu=(0.3, 0.3, 1.5, 1.5), gamma_th=1.0), "1.2116001e-03"),
        (ChannelConfig(M=8, m=2, mu=4.0, gamma_th=10.0), "3.733441e-19"),
        (ChannelConfig(M=4, m=2, mu=10.0, gamma_th=40.0), "2.949780e-59"),
    ], ids=["unequal", "mu4", "mu10"])
    def test_second_largest_integral_table(self, cfg, printed):
        # the order-statistic values that ROADMAP's exact table prints
        digits = len(printed.split("e")[0]) - 2
        assert f"{closed_form_outage(cfg):.{digits}e}" == printed

    @pytest.mark.parametrize("mu,gamma", [
        ((0.5, 0.5), 2.0),
        ((0.3, 1.7), 2.0),
        # t stops at (1.7 + 5)^2, short of gamma / 2 = 500, over which 64 nodes
        # do not resolve the integrand
        ((0.3, 1.7), 1e3),
    ], ids=["equal", "unequal", "unequal-far"])
    def test_second_largest_integral_at_full_sum(self, mu, gamma):
        # at M = 2 the integral is the full sum, the 4-dof closed form
        cfg = ChannelConfig(M=2, m=2, mu=mu, gamma_th=gamma)
        assert np.exp(_log_outage_m2(cfg)) == pytest.approx(closed_form_outage(cfg),
                                                            rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [8, 1, 2])
    def test_underflow_raises(self, m):
        # at 1e-40 the exact p is 0.0 in double (m = 8) or the subnormals
        # 1.354e-321 (m = 1) and 1e-323 (m = 2); none is a usable reference
        cfg = ChannelConfig(M=8, m=m, mu=0.5, gamma_th=1e-40)
        with pytest.raises(TruncationUnderflowError, match="too extreme"):
            closed_form_outage(cfg)
