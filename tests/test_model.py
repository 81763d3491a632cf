"""Channel model, combined statistic, and closed-form edges."""

import numpy as np
import pytest

from outagemc.model import (
    ChannelConfig,
    EstimateResult,
    closed_form_outage,
    gsc_statistic,
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
        assert np.allclose(cfg.k_factors, [0.25, 4.0])
        assert np.allclose(cfg.total_powers, [1.25, 5.0])
        # normalized scatter: total power over (K + 1) is one per branch
        assert np.allclose(cfg.total_powers / (cfg.k_factors + 1.0), 1.0)
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

    @pytest.mark.parametrize("m", [8, 1])
    def test_underflow_raises(self, m):
        # at 1e-40 the exact p is 0.0 in double (m = 8) or the subnormal
        # 1.354e-321 (m = 1); neither is a usable reference
        cfg = ChannelConfig(M=8, m=m, mu=0.5, gamma_th=1e-40)
        with pytest.raises(TruncationUnderflowError, match="too extreme"):
            closed_form_outage(cfg)
