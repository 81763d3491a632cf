"""Distributional tests for every row sampler, plus the rejection bound."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from conftest import (
    branch_mode_brentq,
    log_m_ell_paper,
    pis_simplex_rows_exact,
    pis_tilted_rows_rebuilt,
)
from outagemc import samplers
from outagemc.model import ChannelConfig
from outagemc.samplers import (
    RejectionStalledError,
    RngStream,
    compute_m_ell,
    _branch_mode,
    _exponential_rows,
    _inverse_rows,
    _nominal_rows,
    _pis_block_rows,
    _scaled_ncx2_rows,
    _simplex_rows,
)
from outagemc.specfun import Ncx2Params, _log_density, log_bessel_i0, ncx2_cdf

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

    def test_negative_seed_rejected_at_construction(self):
        # numpy's SeedSequence would only reject it later, in generator()
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            RngStream(-3)
        RngStream(0).generator()


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
        assert log_m_ell_paper(0.0, 1, 1.0)[1] == "small_mean"
        assert b.value == pytest.approx(1.0 / (1.0 - np.exp(-1.0)), rel=1e-12)

    def test_branch_selection(self):
        # the paper's constant switches formula on mu and the threshold
        assert log_m_ell_paper(0.5, 4, 1.0)[1] == "small_mean"
        assert log_m_ell_paper(1.6, 2, 1.0)[1] == "large_mean_small_gamma"
        assert log_m_ell_paper(2.3, 4, 17.0)[1] == "large_mean_large_gamma"

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
        # a rejection constant must bound f/g everywhere on the simplex, and
        # this one is the supremum itself; for mu > 1 the thresholds sit on
        # each side of the paper's branch-2 edge gamma = mu^2 - 1
        for gamma in gammas:
            log_sup = log_sup_density_ratio(mu, n, gamma)
            assert np.isfinite(log_sup)
            assert compute_m_ell(mu, n, gamma).log_value == pytest.approx(
                log_sup, abs=1e-9)

    def test_log_value_large_mean(self):
        # the paper's linear value overflows long after the log stays
        # useful; the supremum grows only polynomially in mu
        log_paper = log_m_ell_paper(40.0, 4, 1.0)[0]
        assert log_paper == pytest.approx(162.410, abs=0.01)
        b = compute_m_ell(40.0, 4, 1.0)
        assert np.isfinite(b.value) and 1.0 <= b.log_value < log_paper

    @pytest.mark.parametrize("mu", [1.01, 1.5, 2.3, 3.0, 5.0, 10.0, 30.0])
    def test_branch_mode_matches_brentq(self, mu):
        assert _branch_mode(mu) == pytest.approx(branch_mode_brentq(mu), rel=1e-12)

    @pytest.mark.parametrize("mu,n,gamma,log_value", [
        (2.3, 4, 17.0, 2.0474416655389933),
        (3.0, 4, 17.0, 3.082625291904808),
        (1.5, 2, 40.0, 3.4825232290398898),  # x* is the branch mode here
    ])
    def test_log_value_pinned(self, mu, n, gamma, log_value):
        # values computed with the mode found by brentq
        assert compute_m_ell(mu, n, gamma).log_value == pytest.approx(
            log_value, rel=0, abs=1e-14)

    def test_proposals_per_row(self):
        # M_ell simplex proposals per row, or B/F tilted ones
        simplex, tilted = compute_m_ell(0.5, 2, 0.1), compute_m_ell(2.3, 4, 17.0)
        assert (simplex.proposal, tilted.proposal) == ("simplex", "tilted")
        assert simplex.proposals_per_row == simplex.value
        assert tilted.proposals_per_row == pytest.approx(
            math.exp(tilted.log_chernoff - tilted.log_block_cdf), rel=1e-15)
        assert tilted.proposals_per_row == pytest.approx(3.908, abs=1e-3)  # 1/F = 9.38

    @pytest.mark.parametrize("mu,n,gamma", [
        (2.3, 4, 17.0),   # los
        (0.5, 2, 0.1),    # subset, theta about 19
        (4.0, 4, 17.0),
        (10.0, 2, 40.0),
        (0.0, 1, 0.7),
    ])
    def test_tilt_minimises_chernoff_bound(self, mu, n, gamma):
        # ln B(theta) = theta gamma + n ln E[e^{-theta X}], with the branch
        # MGF E[e^{-theta X}] = e^{-mu^2 theta / (1 + theta)} / (1 + theta)
        def log_b(theta):
            return theta * gamma - n * math.log1p(theta) - n * mu * mu * theta / (1.0 + theta)

        best = optimize.minimize_scalar(log_b, bounds=(0.0, 1e3), method="bounded",
                                        options={"xatol": 1e-12})
        b = compute_m_ell(mu, n, gamma)
        assert b.theta > 0.0
        assert b.theta == pytest.approx(best.x, rel=1e-6)
        assert b.log_chernoff == pytest.approx(log_b(b.theta), rel=1e-12, abs=1e-12)
        assert b.log_chernoff <= best.fun + 1e-12
        assert b.log_chernoff >= b.log_block_cdf  # B bounds F

    @pytest.mark.parametrize("mu,n,gamma", [(2.3, 1, 8.0), (0.5, 4, 6.0), (1.0, 2, 4.0)])
    def test_no_tilt_above_the_mean(self, mu, n, gamma):
        # gamma_th >= n (1 + mu^2), the block mean: B is smallest at theta = 0
        b = compute_m_ell(mu, n, gamma)
        assert (b.proposal, b.theta, b.log_chernoff) == ("tilted", 0.0, 0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            compute_m_ell(0.5, 0, 1.0)
        with pytest.raises(ValueError):
            compute_m_ell(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            compute_m_ell(-1.0, 2, 1.0)


class TestPisBlockSampler:
    def test_support(self):
        rows, _ = _pis_block_rows(0.5, 4, 1.0, RngStream(14).generator(), 2000,
                                  compute_m_ell(0.5, 4, 1.0))
        assert np.all(rows >= 0.0)
        assert np.all(rows.sum(axis=1) <= 1.0 + 1e-12)

    def test_single_dim_central_matches_truncated_exponential(self):
        rows, _ = _pis_block_rows(0.0, 1, 0.7, RngStream(15).generator(), 10 ** 5,
                                  compute_m_ell(0.0, 1, 0.7))
        gen = RngStream(16).generator()
        u = gen.random(10 ** 5)
        closed = -np.log1p(-u * (1.0 - np.exp(-0.7)))
        assert stats.ks_2samp(rows[:, 0], closed).pvalue > KS_ALPHA

    @pytest.mark.parametrize("mu,n,gamma", [
        (0.5, 4, 1.0),           # small_mean
        (1.6, 2, 1.0),           # large_mean_small_gamma
        (2.3, 4, 17.0),          # large_mean_large_gamma, tilted by default
    ])
    def test_geometric_trials(self, mu, n, gamma):
        # the simplex proposal accepts 1 / M_ell of its trials
        bound = replace(compute_m_ell(mu, n, gamma), proposal="simplex")
        count = 30000
        _, proposals = _pis_block_rows(mu, n, gamma, RngStream(17).generator(),
                                       count, bound=bound)
        mean_trials = proposals / count
        assert mean_trials == pytest.approx(bound.value, rel=0.05)

    def test_block_sum_distribution(self):
        # accepted blocks' sums follow the conditioned block-sum law
        mu, n, gamma = 0.5, 4, 1.0
        rows, _ = _pis_block_rows(mu, n, gamma, RngStream(18).generator(), 10 ** 5,
                                  compute_m_ell(mu, n, gamma))
        total = rows.sum(axis=1)
        params = Ncx2Params(2 * n, 2 * n * mu * mu)
        k = ncx2_cdf(2 * gamma, params)
        for t in (0.4, 0.7, 0.9):
            exact = ncx2_cdf(2 * t, params) / k
            emp = np.mean(total <= t)
            se = np.sqrt(exact * (1 - exact) / total.shape[0])
            assert abs(emp - exact) < 4.0 * se

    class CountedGenerator:
        """A generator that records the name of every draw made through it."""

        def __init__(self, gen):
            self.gen, self.calls = gen, []

        def __getattr__(self, name):
            self.calls.append(name)
            return getattr(self.gen, name)

    def check_rebuilt(self, mu, n, gamma, count, bound):
        # the same rows, the same trial count and the same next draw as the
        # tilted draw sequence written out from its derivation
        gen = self.CountedGenerator(RngStream(57).generator())
        ref = RngStream(57).generator()
        rows, proposals = _pis_block_rows(mu, n, gamma, gen, count, bound=bound)
        want, want_proposals = pis_tilted_rows_rebuilt(mu, n, gamma, ref, count, bound)
        assert np.array_equal(rows, want)
        assert proposals == want_proposals
        assert gen.gen.random() == ref.random()
        return gen.calls

    def test_nominal_proposal(self):
        # at theta = 0 the tilted proposal is the nominal law accepted on its
        # sum, and no uniform is drawn
        for mu, n, gamma in [(2.3, 1, 8.0), (0.5, 4, 6.0)]:
            bound = compute_m_ell(mu, n, gamma)
            assert (bound.proposal, bound.theta) == ("tilted", 0.0)
            calls = self.check_rebuilt(mu, n, gamma, 1000, bound)
            assert calls == ["standard_normal", "standard_gamma", "standard_normal"]

    @pytest.mark.parametrize("mu,n,gamma", [
        (2.3, 4, 17.0),   # los
        (2.3, 1, 3.0),
        (0.5, 2, 0.1),    # theta = 19, forced tilted
    ])
    def test_tilted_draw_sequence(self, mu, n, gamma):
        # theta > 0 adds one uniform per trial whose sum is at most gamma_th
        bound = replace(compute_m_ell(mu, n, gamma), proposal="tilted")
        assert bound.theta > 0.0
        calls = self.check_rebuilt(mu, n, gamma, 5000, bound)
        assert calls == ["standard_normal", "standard_gamma", "random", "standard_normal"]

    def test_tilted_proposal(self):
        # at mu 2.3, n 4, gamma 17 (los) theta = 0.24: the accepted sums follow
        # the conditioned block-sum law
        mu, n, gamma, count = 2.3, 4, 17.0, 100_000
        bound = compute_m_ell(mu, n, gamma)
        assert bound.proposal == "tilted" and bound.theta > 0.2
        rows, _ = _pis_block_rows(mu, n, gamma, RngStream(59).generator(), count,
                                  bound=bound)
        assert np.all(rows >= 0.0) and np.all(rows.sum(axis=1) <= gamma)
        total = rows.sum(axis=1)
        params = Ncx2Params(2 * n, 2 * n * mu * mu)
        for t in (10.0, 13.0, 15.5):
            exact = ncx2_cdf(2 * t, params) / math.exp(bound.log_block_cdf)
            emp = np.mean(total <= t)
            se = np.sqrt(exact * (1 - exact) / count)
            assert abs(emp - exact) < 4.0 * se

    @pytest.mark.parametrize("mu,n,gamma,count", [
        (2.3, 4, 17.0, 100_000),
        (0.5, 2, 0.1, 20_000),    # the simplex is cheaper here
        (4.0, 4, 17.0, 20_000),
        (10.0, 2, 40.0, 20_000),
    ])
    def test_tilted_trials(self, mu, n, gamma, count):
        # trials per acceptance are geometric with mean B / F
        bound = replace(compute_m_ell(mu, n, gamma), proposal="tilted")
        _, proposals = _pis_block_rows(mu, n, gamma, RngStream(60).generator(), count,
                                       bound=bound)
        acc = math.exp(bound.log_block_cdf - bound.log_chernoff)
        se = math.sqrt((1.0 - acc) / count) / acc
        assert abs(proposals / count - 1.0 / acc) < 4.0 * se

    @pytest.mark.parametrize("mu,n,gamma,other", [
        (2.3, 4, 17.0, "nominal"),   # los
        (4.0, 4, 17.0, "simplex"),
        (2.3, 1, 3.0, "simplex"),    # n = 1: the direction is only the imaginary sign
        (0.5, 2, 0.1, "simplex"),    # theta = 19: w is often near 0 or below it
        (0.0, 3, 1.0, "simplex"),    # Rayleigh
    ])
    def test_tilted_matches_other_rejection(self, mu, n, gamma, other):
        # two-sample KS of block sums, of each coordinate and of the block
        # maximum against an independent exact sampler of the same conditioned law
        count = 20_000
        bound = replace(compute_m_ell(mu, n, gamma), proposal="tilted")
        assert bound.theta > 0.0
        rows, _ = _pis_block_rows(mu, n, gamma, RngStream(61).generator(), count,
                                  bound=bound)
        gen = RngStream(62).generator()
        if other == "nominal":
            x = _nominal_rows(np.full(n, mu), gen, 12 * count)
            ref = x[x.sum(axis=1) <= gamma][:count]
            assert ref.shape[0] == count
        else:
            ref, _ = _pis_block_rows(mu, n, gamma, gen, count,
                                     bound=replace(bound, proposal="simplex"))
        assert stats.ks_2samp(rows.sum(axis=1), ref.sum(axis=1)).pvalue > KS_ALPHA
        assert stats.ks_2samp(rows.max(axis=1), ref.max(axis=1)).pvalue > KS_ALPHA
        for j in range(n):
            assert stats.ks_2samp(rows[:, j], ref[:, j]).pvalue > KS_ALPHA

    def test_exact_constant_trials(self):
        # a count, not a timing: at mu 3 the paper's constant spent ~392
        # simplex trials per block, the supremum spends 21.8 (and the tilted
        # proposal, which compute_m_ell picks here, B/F = 6.9)
        bound = compute_m_ell(3.0, 4, 17.0)
        assert bound.proposal == "tilted"
        bound = replace(bound, proposal="simplex")
        _, proposals = _pis_block_rows(3.0, 4, 17.0, RngStream(58).generator(),
                                       10_000, bound=bound)
        assert math.exp(log_m_ell_paper(3.0, 4, 17.0)[0]) > 390.0
        assert proposals / 10_000 == pytest.approx(21.8, rel=0.05)

    def test_forged_bound_raises(self):
        # an understated constant (still >= 1) must trip the pointwise guard
        good = compute_m_ell(0.5, 4, 1.0)
        forged = replace(good, value=good.value / 1.5,
                         log_value=good.log_value - np.log(1.5))
        # at mu <= 1 the closed-form bound cannot certify it, so the exact check runs
        with pytest.raises(RejectionStalledError, match="bound violated"):
            _pis_block_rows(0.5, 4, 1.0, RngStream(19).generator(), 5000,
                            bound=forged)

    @pytest.mark.parametrize("mu,n,gamma,count", [
        (0.5, 2, 0.1, 20_000),   # subset's block
        (0.5, 4, 1.0, 20_000),   # DENSE's block
        (0.5, 7, 1.0, 5_000),
        (0.5, 8, 1.0, 5_000),
        (0.0, 3, 0.5, 5_000),
        (1.0, 3, 0.5, 5_000),    # mu = 1 exactly
        (1.8, 2, 6.0, 5_000),    # mu > 1: the bound cannot certify, every row is checked
    ])
    def test_squeeze_keeps_exact_draws(self, mu, n, gamma, count):
        # accepting on closed-form bounds of f/(M_ell g) makes the same
        # decisions as the exact density on every proposal
        bound = replace(compute_m_ell(mu, n, gamma), proposal="simplex")
        gen, ref = RngStream(63).generator(), RngStream(63).generator()
        rows, proposals = _pis_block_rows(mu, n, gamma, gen, count, bound=bound)
        want, want_proposals = pis_simplex_rows_exact(mu, n, gamma, ref, count, bound)
        assert np.array_equal(rows, want)
        assert proposals == want_proposals
        assert gen.random() == ref.random()

    def test_squeeze_spares_the_density(self, monkeypatch):
        # on subset's block, M_ell = 1.05 and the lower bound e^{-gamma_th}
        # alone accepts ~90% of proposals: few reach the exact density
        density_rows = []

        def counted(x, v1, v2):
            density_rows.append(x.shape[0])
            return _log_density(x, v1, v2)

        bound = compute_m_ell(0.5, 2, 0.1)
        assert bound.proposal == "simplex"
        monkeypatch.setattr(samplers, "_log_density", counted)
        _, proposals = _pis_block_rows(0.5, 2, 0.1, RngStream(64).generator(), 20_000,
                                       bound=bound)
        assert 0 < sum(density_rows) <= 0.15 * proposals

    def test_forged_large_mean_bound_trips_guard(self):
        # 1% below the supremum, where the simplex reaches the density mode
        # in every coordinate at once (2 * mode < gamma), the pointwise
        # guard must abort the run
        good = compute_m_ell(1.8, 2, 6.0)
        forged = replace(good, value=good.value / 1.01,
                         log_value=good.log_value - math.log(1.01),
                         proposal="simplex")
        with pytest.raises(RejectionStalledError, match="bound violated"):
            _pis_block_rows(1.8, 2, 6.0, RngStream(56).generator(), 30000,
                            bound=forged)

    def test_bound_below_one_rejected_at_construction(self):
        good = compute_m_ell(0.5, 4, 1.0)
        with pytest.raises(ValueError):
            replace(good, value=0.9, log_value=np.log(0.9))


class TestLogDensity:
    """_log_density(x, v1, v2) is ln of the v1 ncx2(2, v2) density."""

    X = np.array([0.0, 1e-12, 0.03, 0.5, 1.0, 4.0, 30.0, 200.0])

    # v1 = 1 is the quantile tables' law; they go uncertified from noncentrality 200 on
    @pytest.mark.parametrize("v1,v2", [(0.5, 0.0), (0.5, 0.5), (0.2, 4.0),
                                       (3.0, 1e-3), (0.05, 60.0), (1.0, 200.0), (1.0, 800.0)])
    def test_scalar_parameters(self, v1, v2):
        want = stats.ncx2.logpdf(self.X / v1, 2, v2) - math.log(v1)
        np.testing.assert_allclose(_log_density(self.X, v1, v2), want,
                                   rtol=1e-12, atol=1e-12)

    def test_per_column_parameters(self):
        v1, v2 = np.array([0.5, 0.2, 1.7]), np.array([0.0, 4.0, 0.8])
        x = np.outer(self.X, [1.0, 0.5, 2.0])
        want = stats.ncx2.logpdf(x / v1, 2, v2) - np.log(v1)
        np.testing.assert_allclose(_log_density(x, v1, v2), want, rtol=1e-12, atol=1e-12)

    def test_branch_law(self):
        # v1 = 1/2, v2 = 2 mu^2 is -mu^2 - x + ln I0(2 mu sqrt x), on the same Bessel points
        mu = np.array([0.3, 0.5, 2.3, 7.0])
        x = self.X[:, None]
        want = -mu * mu - x + log_bessel_i0(2.0 * mu * np.sqrt(x))
        np.testing.assert_allclose(_log_density(x, 0.5, 2.0 * mu * mu), want,
                                   rtol=1e-15, atol=1e-13)
        assert np.array_equal(np.sqrt(2.0 * mu * mu / 0.5), 2.0 * mu)


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
        # one v2 per column, as nmc passes 2 mu_i^2 for unequal means
        v2 = np.array([0.0, 0.5, 4.0, 18.0])
        x = _scaled_ncx2_rows(v1, v2, RngStream(25).generator(), (250_000, 4))
        want = v1 * (2.0 + v2)
        assert np.all(np.abs(x.mean(axis=0) - want) < 4.0 * x.std(axis=0) / np.sqrt(x.shape[0]))

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
