"""Efficiency-metric arithmetic and the large-mean bound asymptote."""

import math

import pytest

from conftest import log_m_ell_asymptotic, log_m_ell_paper, m_ell_asymptotic
from outagemc.metrics import (
    efficiency_report,
    relative_error,
    scv,
    wnrv,
    wnrv_work,
)
from outagemc.estimators import estimate_pis
from outagemc.model import ChannelConfig, EstimateResult
from outagemc.samplers import RngStream


def make_result(p=1e-5, var=None, samples=10 ** 6, wall=2.0, work=None):
    var = p * (1 - p) if var is None else var
    return EstimateResult(p_hat=p, var_hat=var, samples=samples,
                          wall_time_s=wall, method="nmc", seed=0,
                          work_units=work or 0)


class TestRelativeError:
    def test_naive_plugin(self):
        p, S = 1e-4, 10 ** 6
        r = make_result(p=p, samples=S)
        assert relative_error(r) == pytest.approx(math.sqrt((1 - p) / (p * S)))

    def test_zero_variance(self):
        assert relative_error(make_result(var=0.0)) == 0.0

    def test_degenerate(self):
        r = EstimateResult(p_hat=0.0, var_hat=0.0, samples=10,
                           wall_time_s=0.0, method="nmc", seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            relative_error(r)


class TestScv:
    def test_naive(self):
        p = 1e-5
        assert scv(make_result(p=p)) == pytest.approx((1 - p) / p)

    def test_selection_form(self):
        # single-sample variance ell*p - p^2 gives scv = ell/p - 1
        p, ell = 2e-4, 0.05
        r = make_result(p=p, var=ell * p - p * p)
        assert scv(r) == pytest.approx(ell / p - 1.0)

    def test_zero_variance(self):
        assert scv(make_result(var=0.0)) == 0.0

    def test_sample_size_free(self):
        a = make_result(p=1e-4, samples=10 ** 5)
        b = make_result(p=1e-4, samples=10 ** 7)
        assert scv(a) == scv(b)


class TestWnrv:
    def test_definition(self):
        r = make_result(wall=3.0)
        assert wnrv(r) == pytest.approx(relative_error(r) ** 2 * 3.0)

    def test_zero_wall_time_warns(self):
        r = make_result(wall=0.0)
        with pytest.warns(UserWarning):
            assert wnrv(r) == 0.0

    def test_work_variant_reduces_to_scv(self):
        r = make_result(work=10 ** 6)  # work == samples
        assert wnrv_work(r) == pytest.approx(scv(r))

    def test_sample_doubling_keeps_wnrv_stable(self):
        # doubling samples halves the variance of the mean while doubling
        # cost: the product stays put (cost modeled as proportional wall time)
        r1 = make_result(samples=10 ** 6, wall=2.0)
        r2 = make_result(samples=2 * 10 ** 6, wall=4.0)
        assert wnrv(r2) / wnrv(r1) == pytest.approx(1.0, abs=0.5)


class TestMellAsymptotic:
    def test_domain(self):
        with pytest.raises(ValueError):
            m_ell_asymptotic(0.9, 4, 1.0)
        with pytest.raises(ValueError):
            m_ell_asymptotic(1.2, 4, 10.0)  # threshold above the mode
        with pytest.raises(ValueError):
            # gamma_th = 4 < 2 mu^2 - 2 = 6, but 2 gamma_th = 8 is not
            m_ell_asymptotic(2.0, 4, 4.0)

    @pytest.mark.parametrize("mu,tol", [(10.0, 0.10), (20.0, 0.05), (40.0, 0.03)])
    def test_log_ratio_converges(self, mu, tol):
        exact = log_m_ell_paper(mu, 4, 1.0)[0]
        asym = log_m_ell_asymptotic(mu, 4, 1.0)
        assert abs(exact / asym - 1.0) < tol

    def test_exponential_slope(self):
        # d(ln M)/d(mu) tends to 2 sqrt(gamma) (n - sqrt(n))
        n, gamma, mu = 4, 1.0, 40.0
        slope = (log_m_ell_paper(mu + 1.0, n, gamma)[0]
                 - log_m_ell_paper(mu, n, gamma)[0])
        want = 2.0 * math.sqrt(gamma) * (n - math.sqrt(n))
        assert slope == pytest.approx(want, rel=0.05)

    def test_single_coordinate_subexponential(self):
        # n = 1 kills the linear-in-mu exponent
        want = 2.0 * math.sqrt(1.0) * (1 - 1.0)
        assert want == 0.0
        slope = (log_m_ell_asymptotic(41.0, 1, 1.0)
                 - log_m_ell_asymptotic(40.0, 1, 1.0))
        assert abs(slope) < 0.05


class TestEfficiencyReport:
    def test_fields(self):
        r = make_result(work=2 * 10 ** 6)
        rep = efficiency_report(r)
        assert rep.re == relative_error(r)
        assert rep.scv == scv(r)
        assert rep.wnrv == wnrv(r)
        assert rep.wnrv_work == pytest.approx(scv(r) * 2.0)

    def test_zero_variance_below_square_underflow(self):
        # p_hat * p_hat underflows to 0 here; the exact pis estimate has
        # zero variance, so both the SCV and the RE are 0
        config = ChannelConfig(M=8, m=8, mu=(0.5,) * 8, gamma_th=1e-20)
        r = estimate_pis(config, 1000, RngStream(4242))
        assert r.p_hat == pytest.approx(3.3565e-166, rel=1e-4)
        assert r.var_hat == 0.0
        rep = efficiency_report(r)
        assert rep.scv == 0.0 and rep.re == 0.0
