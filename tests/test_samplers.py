"""Distributional tests for every row sampler, plus the rejection bound."""

import numpy as np
import pytest
from scipy import stats

from outagemc.model import ChannelConfig
from outagemc.samplers import (
    MellBound,
    RejectionStalledError,
    RngStream,
    compute_m_ell,
    _exponential_rows,
    _inverse_rows,
    _nominal_rows,
    _pis_block_rows,
    _scaled_ncx2_rows,
    _simplex_rows,
)
from outagemc.specfun import Ncx2Params, ncx2_cdf

KS_ALPHA = 0.01


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().random(32)
        b = RngStream(123, 4).generator().random(32)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(32)
        b = RngStream(123, 1).generator().random(32)
        assert not np.array_equal(a, b)

    def test_children_independent_and_stable(self):
        s = RngStream(9, 2)
        a1 = s.child(0).generator().random(16)
        a2 = s.child(0).generator().random(16)
        b = s.child(1).generator().random(16)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestSampleNominal:
    def test_mean(self):
        cfg = ChannelConfig(M=3, m=2, mu=(0.0, 0.5, 1.5), gamma_th=1.0)
        x = _nominal_rows(cfg.mu_array, RngStream(1).generator(), 10 ** 6)
        want = 1.0 + cfg.mu_array ** 2
        se = x.std(axis=0) / np.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0) - want) < 4.0 * se)

    def test_zero_mean_is_exponential(self):
        x = _nominal_rows(np.array([0.0]), RngStream(2).generator(), 10 ** 5)[:, 0]
        assert stats.kstest(x, "expon").pvalue > KS_ALPHA

    def test_cdf_at_threshold(self):
        mu, gamma = 0.5, 1.0
        x = _nominal_rows(np.array([mu]), RngStream(3).generator(), 10 ** 6)[:, 0]
        emp = np.mean(x <= gamma)
        exact = ncx2_cdf(2 * gamma, Ncx2Params(2, 2 * mu * mu))
        se = np.sqrt(exact * (1 - exact) / x.shape[0])
        assert abs(emp - exact) < 4.0 * se

    def test_matches_complex_gaussian_construction(self):
        # oracle path: squared modulus of a complex normal with mean mu,
        # unit variance (real/imag each N(.., 1/2))
        rng = np.random.default_rng(11)
        mu = 0.8
        h = (mu + rng.standard_normal(10 ** 5) * np.sqrt(0.5)
             + 1j * rng.standard_normal(10 ** 5) * np.sqrt(0.5))
        oracle = np.abs(h) ** 2
        mine = _nominal_rows(np.array([mu]), RngStream(4).generator(), 10 ** 5)[:, 0]
        assert stats.ks_2samp(oracle, mine).pvalue > KS_ALPHA


def _truncated(mu, gamma, gen, n):
    """n draws of X | X <= gamma for one branch, as uis draws them."""
    k = ncx2_cdf(2 * gamma, Ncx2Params(2, 2 * mu * mu))
    return _inverse_rows(k * gen.random((n, 1)), np.array([mu]))[:, 0]


class TestTruncatedUnivariate:
    def test_range(self):
        x = _truncated(0.5, 1.0, RngStream(6).generator(), 10 ** 4)
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_central_closed_form(self):
        # for mu = 0 the inverse transform is -ln(1 - u (1 - e^-gamma))
        gamma = 0.7
        gen = RngStream(7).generator()
        x = _truncated(0.0, gamma, gen, 10 ** 5)
        gen2 = RngStream(7).generator()
        u = gen2.random(10 ** 5)
        closed = -np.log1p(-u * (1.0 - np.exp(-gamma)))
        assert np.allclose(np.sort(x), np.sort(closed), rtol=1e-9, atol=1e-12)

    def test_cdf_matches_conditional(self):
        mu, gamma = 0.5, 1.0
        params = Ncx2Params(2, 2 * mu * mu)
        k = ncx2_cdf(2 * gamma, params)
        x = _truncated(mu, gamma, RngStream(8).generator(), 10 ** 5)
        t = 0.6
        emp = np.mean(x <= t)
        exact = ncx2_cdf(2 * t, params) / k
        se = np.sqrt(exact * (1 - exact) / x.shape[0])
        assert abs(emp - exact) < 4.0 * se

    def test_columns_grouped_by_mean(self):
        # each column follows its own branch law, whatever the other columns
        mu = np.array([0.5, 1.5, 0.5])
        p = RngStream(9).generator().random((2000, 3))
        x = _inverse_rows(p, mu)
        for j in range(3):
            alone = _inverse_rows(p[:, [j]], mu[[j]])[:, 0]
            assert np.allclose(x[:, j], alone, rtol=1e-12, atol=0.0)

    def test_zero_probability_floored(self):
        # p = 0 (u = 0, or 1 - e^-G rounding to 0) still maps to a finite x
        x = _inverse_rows(np.zeros((4, 2)), np.array([0.5, 2.0]))
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)


class TestUniformSimplex:
    def test_one_dim_uniform(self):
        x = _simplex_rows(1, 2.0, RngStream(10).generator(), 10 ** 5)[:, 0]
        assert stats.kstest(x / 2.0, "uniform").pvalue > KS_ALPHA

    def test_mean_by_symmetry(self):
        n, gamma = 4, 1.5
        x = _simplex_rows(n, gamma, RngStream(11).generator(), 10 ** 6)
        want = gamma / (n + 1)
        se = x.std(axis=0) / np.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0) - want) < 4.0 * se)

    def test_total_below_fraction(self):
        # P(sum <= t gamma) = t^n for the uniform solid simplex
        n, gamma = 3, 1.0
        x = _simplex_rows(n, gamma, RngStream(12).generator(), 10 ** 6)
        total = x.sum(axis=1)
        for t in (0.3, 0.6, 0.9):
            exact = t ** n
            emp = np.mean(total <= t * gamma)
            se = np.sqrt(exact * (1 - exact) / x.shape[0])
            assert abs(emp - exact) < 4.0 * se

    def test_support(self):
        x = _simplex_rows(4, 0.8, RngStream(13).generator(), 1000)
        assert x.shape == (1000, 4) and np.all(x >= 0.0)
        assert np.all(x.sum(axis=1) <= 0.8)


class TestComputeMell:
    def test_central_single(self):
        b = compute_m_ell(0.0, 1, 1.0)
        assert b.case == "small_mean"
        assert b.value == pytest.approx(1.0 / (1.0 - np.exp(-1.0)), rel=1e-12)

    def test_branch_selection(self):
        assert compute_m_ell(0.5, 4, 1.0).case == "small_mean"
        assert compute_m_ell(1.6, 2, 1.0).case == "large_mean_small_gamma"
        assert compute_m_ell(2.3, 4, 17.0).case == "large_mean_large_gamma"

    def test_value_at_least_one(self):
        for mu, n, g in [(0.0, 1, 1.0), (0.5, 4, 1.0), (0.5, 4, 0.2),
                         (1.6, 2, 1.0), (2.3, 4, 17.0), (3.0, 4, 17.0)]:
            assert compute_m_ell(mu, n, g).value >= 1.0 - 1e-9

    @pytest.mark.parametrize("mu,gammas", [
        (0.5, (0.2, 2.0)),
        (1.01, (0.01, 1.0)),     # mode of the branch density near zero
        (1.5, (0.6, 3.0)),
        (2.3, (2.0, 8.0)),
        (3.0, (4.0, 12.0)),
    ])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_dominates_supremum(self, mu, gammas, n, log_sup_density_ratio):
        # a rejection constant must bound f/g everywhere on the simplex; for
        # mu > 1 the thresholds sit on each side of the branch-2 edge
        # gamma = mu^2 - 1
        for gamma in gammas:
            log_sup = log_sup_density_ratio(mu, n, gamma)
            assert np.isfinite(log_sup)
            assert compute_m_ell(mu, n, gamma).log_value >= log_sup - 1e-9

    def test_log_value_large_mean(self):
        # the linear value overflows long after the log stays useful
        b = compute_m_ell(40.0, 4, 1.0)
        assert np.isfinite(b.log_value)
        assert b.log_value == pytest.approx(162.410, abs=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            compute_m_ell(0.5, 0, 1.0)
        with pytest.raises(ValueError):
            compute_m_ell(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            compute_m_ell(-1.0, 2, 1.0)


class TestPisBlockSampler:
    def test_support(self):
        rows, _ = _pis_block_rows(0.5, 4, 1.0, RngStream(14).generator(), 2000)
        assert np.all(rows >= 0.0)
        assert np.all(rows.sum(axis=1) <= 1.0 + 1e-12)

    def test_single_dim_central_matches_truncated_exponential(self):
        rows, _ = _pis_block_rows(0.0, 1, 0.7, RngStream(15).generator(), 10 ** 5)
        gen = RngStream(16).generator()
        u = gen.random(10 ** 5)
        closed = -np.log1p(-u * (1.0 - np.exp(-0.7)))
        assert stats.ks_2samp(rows[:, 0], closed).pvalue > KS_ALPHA

    @pytest.mark.parametrize("mu,n,gamma", [
        (0.5, 4, 1.0),           # small_mean
        (1.6, 2, 1.0),           # large_mean_small_gamma
        (2.3, 4, 17.0),          # large_mean_large_gamma
    ])
    def test_geometric_trials(self, mu, n, gamma):
        bound = compute_m_ell(mu, n, gamma)
        count = 30000
        _, proposals = _pis_block_rows(mu, n, gamma, RngStream(17).generator(),
                                       count, bound=bound)
        mean_trials = proposals / count
        assert mean_trials == pytest.approx(bound.value, rel=0.05)

    def test_block_sum_distribution(self):
        # accepted blocks' sums follow the conditioned block-sum law
        mu, n, gamma = 0.5, 4, 1.0
        rows, _ = _pis_block_rows(mu, n, gamma, RngStream(18).generator(), 10 ** 5)
        total = rows.sum(axis=1)
        params = Ncx2Params(2 * n, 2 * n * mu * mu)
        k = ncx2_cdf(2 * gamma, params)
        for t in (0.4, 0.7, 0.9):
            exact = ncx2_cdf(2 * t, params) / k
            emp = np.mean(total <= t)
            se = np.sqrt(exact * (1 - exact) / total.shape[0])
            assert abs(emp - exact) < 4.0 * se

    def test_forged_bound_raises(self):
        # an understated constant (still >= 1) must trip the pointwise guard
        good = compute_m_ell(0.5, 4, 1.0)
        forged = MellBound(value=good.value / 1.5,
                           log_value=good.log_value - np.log(1.5),
                           case=good.case, block_mu=good.block_mu,
                           block_size=good.block_size,
                           log_block_cdf=good.log_block_cdf)
        with pytest.raises(RejectionStalledError):
            _pis_block_rows(0.5, 4, 1.0, RngStream(19).generator(), 5000,
                            bound=forged)

    def test_corrupted_envelope_constant_trips_guard(self, monkeypatch):
        # with the near-mode envelope factor knocked down to 1.0 the bound
        # undershoots wherever the simplex can reach the density mode in
        # every coordinate at once (here 2 * mode < gamma), and the
        # pointwise guard must abort the run
        import outagemc.samplers as smp
        monkeypatch.setattr(smp, "REJECTION_C", 1.0)
        bound = compute_m_ell(1.8, 2, 6.0)
        assert bound.case == "large_mean_large_gamma"
        with pytest.raises(RejectionStalledError, match="bound violated"):
            _pis_block_rows(1.8, 2, 6.0, RngStream(56).generator(), 30000,
                            bound=bound)

    def test_bound_below_one_rejected_at_construction(self):
        good = compute_m_ell(0.5, 4, 1.0)
        with pytest.raises(ValueError):
            MellBound(value=0.9, log_value=np.log(0.9), case=good.case,
                      block_mu=good.block_mu, block_size=good.block_size,
                      log_block_cdf=good.log_block_cdf)


class TestSampleExponential:
    def test_mean_and_ks(self):
        rate = 8.0
        x = _exponential_rows(rate, RngStream(21).generator(), 10 ** 5)
        assert abs(x.mean() - 1 / rate) < 4.0 * x.std() / np.sqrt(x.size)
        assert stats.kstest(x * rate, "expon").pvalue > KS_ALPHA

    def test_proposal_head_mass(self):
        # rate M / gamma puts 1 - e^-1 of the mass below gamma / M
        M, gamma = 8, 1.0
        x = _exponential_rows(M / gamma, RngStream(22).generator(), 10 ** 6)
        exact = 1.0 - np.exp(-1.0)
        emp = np.mean(x <= gamma / M)
        se = np.sqrt(exact * (1 - exact) / x.size)
        assert abs(emp - exact) < 4.0 * se


class TestSampleScaledNcx2:
    def test_nominal_parameters_reproduce_channel_law(self):
        mu = 0.5
        a = _scaled_ncx2_rows(0.5, 2 * mu * mu, RngStream(23).generator(), 10 ** 5)
        b = _nominal_rows(np.array([mu]), RngStream(24).generator(), 10 ** 5)[:, 0]
        assert stats.ks_2samp(a, b).pvalue > KS_ALPHA

    def test_mean(self):
        v1, v2 = 0.3, 4.0
        x = _scaled_ncx2_rows(v1, v2, RngStream(25).generator(), 10 ** 6)
        want = v1 * (2.0 + v2)
        assert abs(x.mean() - want) < 4.0 * x.std() / np.sqrt(x.size)

    def test_cdf(self):
        v1, v2 = 0.7, 1.5
        x = _scaled_ncx2_rows(v1, v2, RngStream(26).generator(), 10 ** 6)
        t = 1.2
        exact = ncx2_cdf(t / v1, Ncx2Params(2, v2))
        emp = np.mean(x <= t)
        se = np.sqrt(exact * (1 - exact) / x.size)
        assert abs(emp - exact) < 4.0 * se


class TestGammaIncrement:
    def test_mean(self):
        gen = RngStream(27).generator()
        x = gen.gamma(0.35, size=10 ** 6)
        assert abs(x.mean() - 0.35) < 4.0 * x.std() / np.sqrt(x.size)

    def test_shape_one_is_exponential(self):
        gen = RngStream(28).generator()
        x = gen.gamma(1.0, size=10 ** 5)
        assert stats.kstest(x, "expon").pvalue > KS_ALPHA

    def test_additivity_to_unit_exponential(self):
        # increments over a partition of [0, 1] sum to Gamma(1, 1) = Exp(1)
        gen = RngStream(29).generator()
        cuts = [0.0, 0.2, 0.45, 0.8, 1.0]
        total = np.zeros(10 ** 5)
        for a, b in zip(cuts, cuts[1:]):
            total += gen.gamma(b - a, size=10 ** 5)
        assert stats.kstest(total, "expon").pvalue > KS_ALPHA
