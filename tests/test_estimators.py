"""Estimator-level tests: oracles, invariants, determinism.

Statistical assertions use 4-standard-error windows around independent
references (closed forms where they exist, otherwise a large naive MC run),
so they are deterministic for the fixed seeds used here.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from outagemc import estimators, samplers, specfun
from outagemc.estimators import (
    ESTIMATORS,
    CEParams,
    MlsSchedule,
    build_partition_plan,
    ce_update,
    estimate_ce,
    estimate_et,
    estimate_mls,
    estimate_nmc,
    estimate_pis,
    estimate_uis,
    mls_pilot_levels,
)
from outagemc.model import ChannelConfig, closed_form_outage, gsc_statistic_rows
from outagemc.samplers import (
    RngStream,
    TruncationUnderflowError,
    _inverse_rows,
    _scaled_ncx2_rows,
)
from outagemc.specfun import Ncx2Params, log_bessel_i0, ncx2_cdf


def combined_se(r1, r2_p=None, r2_var=None, r2_n=None):
    se1 = math.sqrt(r1.var_hat / r1.samples)
    se2 = 0.0 if r2_var is None else math.sqrt(r2_var / r2_n)
    return math.sqrt(se1 * se1 + se2 * se2)


SMALL = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=0.5)


@pytest.fixture(scope="module")
def small_reference():
    return estimate_nmc(SMALL, 4_000_000, RngStream(1000))


class TestNmc:
    def test_certain_event(self):
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=1e6)
        r = estimate_nmc(cfg, 2000, RngStream(0))
        assert r.p_hat == 1.0 and r.var_hat == 0.0

    def test_against_closed_form(self):
        cfg = ChannelConfig(M=2, m=1, mu=(0.0, 0.0), gamma_th=1.0)
        r = estimate_nmc(cfg, 500_000, RngStream(2))
        exact = closed_form_outage(cfg)
        assert abs(r.p_hat - exact) < 4.0 * combined_se(r)


class TestUis:
    def test_m1_zero_variance(self):
        cfg = ChannelConfig(M=4, m=1, mu=0.7, gamma_th=0.8)
        r = estimate_uis(cfg, 10_000, RngStream(3))
        assert r.p_hat == pytest.approx(closed_form_outage(cfg), rel=1e-11)
        assert r.var_hat == 0.0
        assert r.diagnostics["hit_fraction"] == 1.0

    def test_agrees_with_reference(self, small_reference):
        r = estimate_uis(SMALL, 200_000, RngStream(4))
        ref = small_reference
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_variance_formula_structure(self):
        r = estimate_uis(SMALL, 50_000, RngStream(5))
        ell1 = r.diagnostics["ell1"]
        assert r.var_hat == pytest.approx(ell1 * r.p_hat - r.p_hat ** 2, rel=1e-12)


class TestPis:
    def test_blockwise_unequal_means_rejected(self):
        cfg = ChannelConfig(M=4, m=2, mu=(0.5, 0.6, 0.5, 0.5), gamma_th=1.0)
        with pytest.raises(ValueError, match="blockwise-identical"):
            estimate_pis(cfg, 100, RngStream(6))

    def test_blockwise_equal_but_distinct_blocks(self):
        # different means across blocks are fine if constant within each
        cfg = ChannelConfig(M=4, m=2, mu=(0.5, 0.5, 0.9, 0.9), gamma_th=0.8)
        plan = build_partition_plan(cfg)
        assert [b[1] for b in plan.blocks] == [2, 2]
        assert plan.blocks[0][2] == pytest.approx(0.5 * math.sqrt(2))
        r = estimate_pis(cfg, 100_000, RngStream(7))
        ref = estimate_nmc(cfg, 2_000_000, RngStream(8))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_remainder_block(self):
        cfg = ChannelConfig(M=7, m=3, mu=0.4, gamma_th=0.9)
        plan = build_partition_plan(cfg)
        assert [b[1] for b in plan.blocks] == [3, 3, 1]

    def test_ell2_below_ell1(self, small_reference):
        # the partition event implies the per-branch event
        for M, m in [(4, 2), (6, 3), (8, 4), (6, 2)]:
            for mu in (0.3, 0.8):
                for g in (0.5, 1.5):
                    cfg = ChannelConfig(M=M, m=m, mu=mu, gamma_th=g)
                    ell2 = build_partition_plan(cfg).ell2
                    ell1 = np.prod([ncx2_cdf(2 * g, Ncx2Params(2, 2 * v * v))
                                    for v in cfg.mu])
                    assert ell2 <= ell1 + 1e-15

    def test_agrees_with_reference(self, small_reference):
        r = estimate_pis(SMALL, 200_000, RngStream(9))
        ref = small_reference
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_vacuous_threshold(self):
        # large enough that the conditioning keeps essentially no mass out;
        # the rejection constant grows like gamma^n / n!, so the threshold is
        # kept moderate to bound the proposal count
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=12.0)
        r = estimate_pis(cfg, 20_000, RngStream(10))
        ref = estimate_nmc(cfg, 200_000, RngStream(31))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert r.p_hat > 0.99
        assert abs(r.p_hat - ref.p_hat) <= 3.0 * se + 1e-12

    @pytest.mark.parametrize("cfg,s_pis,s_nmc,seed", [
        # threshold above half the ncx2 mode: not the increasing branch
        (ChannelConfig(M=4, m=2, mu=2.3, gamma_th=8.0), 50_000, 500_000, 34),
        (ChannelConfig(M=3, m=1, mu=3.0, gamma_th=12.0), 20_000, 500_000, 36),
        (ChannelConfig(M=5, m=4, mu=2.3, gamma_th=8.0), 20_000, 2_000_000, 38),
        # mu just above 1: the density mode sits between 0 and A_mu
        (ChannelConfig(M=2, m=1, mu=1.01, gamma_th=1.0), 20_000, 500_000, 40),
        (ChannelConfig(M=4, m=4, mu=1.02, gamma_th=4.0), 20_000, 500_000, 42),
    ])
    def test_large_mean_bound_edges(self, cfg, s_pis, s_nmc, seed):
        # each used to abort on an invalid rejection constant
        r = estimate_pis(cfg, s_pis, RngStream(seed))
        ref = estimate_nmc(cfg, s_nmc, RngStream(seed + 1))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_m_equals_M_zero_variance(self):
        cfg = ChannelConfig(M=4, m=4, mu=0.6, gamma_th=2.0)
        r = estimate_pis(cfg, 10_000, RngStream(11))
        assert r.p_hat == pytest.approx(closed_form_outage(cfg), rel=1e-11)
        assert r.var_hat == 0.0


class TestEt:
    def test_likelihood_ratio_identity(self):
        # exp(log LR) * prod(proposal pdf) must equal prod(channel pdf)
        cfg = ChannelConfig(M=5, m=3, mu=(0.2, 0.4, 0.6, 0.8, 1.0), gamma_th=0.9)
        gen = RngStream(12).generator()
        x = gen.exponential(cfg.gamma_th / cfg.M, size=(256, cfg.M))
        M, g = cfg.M, cfg.gamma_th
        mu = cfg.mu_array
        log_lr = (M * np.log(g) - M * np.log(M) - cfg.mu_norm_sq
                  + (M - g) / g * x.sum(axis=1)
                  + log_bessel_i0(2 * mu * np.sqrt(x)).sum(axis=1))
        log_proposal = (np.log(M / g) - (M / g) * x).sum(axis=1)
        log_channel = (-mu ** 2 - x + log_bessel_i0(2 * mu * np.sqrt(x))).sum(axis=1)
        assert np.max(np.abs(log_lr + log_proposal - log_channel)) < 1e-10

    def test_against_closed_form_full_sum(self):
        cfg = ChannelConfig(M=2, m=2, mu=0.0, gamma_th=0.5)
        r = estimate_et(cfg, 300_000, RngStream(13))
        exact = closed_form_outage(cfg)
        assert abs(r.p_hat - exact) < 3.0 * combined_se(r)

    def test_agrees_with_reference(self, small_reference):
        r = estimate_et(SMALL, 200_000, RngStream(14))
        ref = small_reference
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se


def _ce_objective(x, w, v1, v2):
    """Weighted log-likelihood sum_s w_s ln f(x_s; v1, v2) that ce_update maximizes."""
    arg = np.sqrt(v2 * x / v1)
    t = -np.log(2 * v1) - v2 / 2 - x / (2 * v1) + log_bessel_i0(arg)
    return float(w @ t.sum(axis=1))


def _subset_pilot():
    """A SUBSET pilot stage drawn from v = (0.2, 4), its statistic H and the
    10% quantile of H, with the nominal law (0.5, 0.5) to weight towards."""
    cfg = ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1)
    nominal, v = CEParams(0.5, 0.5), CEParams(0.2, 4.0)
    x = _scaled_ncx2_rows(v.v1, v.v2, RngStream(34).generator(), (5000, cfg.M))
    h = gsc_statistic_rows(x, cfg.m)
    return x, h, np.quantile(h, 0.1), nominal, v


def _subset_elite_set():
    """An elite set with unequal weights."""
    return estimators._elite_weights(*_subset_pilot())


def _boundary_set():
    """Coordinates with m2 >= 2 m1^2 (a gamma law of shape 1/2 has m2 = 3 m1^2)."""
    x = RngStream(35).generator().gamma(0.5, 0.4, size=(2000, 4))
    return x, np.ones(x.shape[0])


class TestCeUpdate:
    def test_ml_recovery(self):
        v1_true, v2_true = 0.35, 1.8
        x = _scaled_ncx2_rows(v1_true, v2_true, RngStream(15).generator(),
                              (250_000, 4))
        got = ce_update(x, np.ones(x.shape[0]))
        assert got.v1 == pytest.approx(v1_true, rel=0.02)
        assert got.v2 == pytest.approx(v2_true, rel=0.02)

    def test_boundary_is_exponential_fit(self):
        x, w = _boundary_set()
        m1, m2 = np.mean(x), np.mean(x * x)
        assert m2 >= 2.0 * m1 * m1
        got = ce_update(x, w)
        assert got.v2 == 0.0
        assert got.v1 == pytest.approx(m1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("data", [_subset_elite_set, _boundary_set],
                             ids=["subset-pilot", "boundary"])
    def test_matches_direct_maximisation(self, data):
        x, w = data()
        got = ce_update(x, w)
        # reference: Nelder-Mead in (ln v1, sqrt v2) from the exponential fit
        m1 = float(w @ x.mean(axis=1)) / w.sum()
        res = optimize.minimize(
            lambda t: -_ce_objective(x, w, math.exp(t[0]), t[1] * t[1]),
            [math.log(m1 / 2.0), 1.0], method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-10})
        assert res.success
        best = -res.fun
        assert _ce_objective(x, w, got.v1, got.v2) >= best - 1e-9 * abs(best)

    def test_ascent(self):
        x = _scaled_ncx2_rows(0.5, 0.5, RngStream(16).generator(), (20_000, 4))
        w = (x.sum(axis=1) < 2.0).astype(float)
        current = CEParams(0.5, 0.5)
        got = ce_update(x, w)
        assert (_ce_objective(x, w, got.v1, got.v2)
                >= _ce_objective(x, w, current.v1, current.v2) - 1e-9)

    def test_all_zero_weights_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(ValueError):
            ce_update(x, np.zeros(10))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one weight per row"):
            ce_update(np.ones((10, 2)), np.ones(9))
        with pytest.raises(ValueError, match="one weight per row"):
            ce_update(np.ones(10), np.ones(10))


class TestCe:
    def test_requires_identical_means(self):
        cfg = ChannelConfig(M=3, m=2, mu=(0.5, 0.5, 0.6), gamma_th=1.0)
        with pytest.raises(ValueError, match="identical"):
            estimate_ce(cfg, 1000, RngStream(17))

    def test_noop_adaptation_agrees_with_reference(self):
        # threshold so mild that the first pilot quantile is already below it
        cfg = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=2.5)
        r = estimate_ce(cfg, 200_000, RngStream(18), S0=20_000)
        assert len(r.diagnostics["trace"]) == 2  # initial + final fit only
        ref = estimate_nmc(cfg, 2_000_000, RngStream(19))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 3.0 * se

    def test_thresholds_strictly_decreasing(self):
        cfg = ChannelConfig(M=8, m=4, mu=0.5, gamma_th=1.0)
        r = estimate_ce(cfg, 50_000, RngStream(20), S0=50_000)
        gammas = [t["gamma_t"] for t in r.diagnostics["trace"]]
        # auxiliary thresholds fall strictly until the final reset to the target
        assert all(b < a for a, b in zip(gammas[:-1], gammas[1:-1]))
        assert gammas[-2] < cfg.gamma_th
        assert gammas[-1] == cfg.gamma_th

    def test_elite_weights_are_the_nonzero_full_array_weights(self):
        # the likelihood ratio is evaluated on elite rows only; it must equal,
        # bit for bit, the nonzero entries of the ratio over every row
        x, h, level, nominal, v = _subset_pilot()
        full = np.where(h <= level,
                        np.exp(estimators._ce_log_lr_rows(x, nominal, v)), 0.0)
        elite, w = estimators._elite_weights(x, h, level, nominal, v)
        assert np.array_equal(w, full[full != 0.0])
        assert np.array_equal(elite, x[full != 0.0])
        with pytest.raises(estimators.CeAdaptationError, match="elite set empty"):
            estimators._elite_weights(x, h, -1.0, nominal, v)

    def test_agrees_with_reference(self, small_reference):
        r = estimate_ce(SMALL, 200_000, RngStream(21), S0=20_000)
        ref = small_reference
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se


class TestMlsSchedule:
    def test_invariants(self):
        MlsSchedule((0.0, 0.4, 1.0), 100, (0.3, 0.5))
        with pytest.raises(ValueError):
            MlsSchedule((0.0, 0.4), 100, (0.3,))  # does not end at 1
        with pytest.raises(ValueError):
            MlsSchedule((0.0, 0.5, 0.4, 1.0), 100, (0.3, 0.5, 0.5))
        with pytest.raises(ValueError):
            MlsSchedule((0.0, 1.0), 100, (1.5,))

    def test_pilot_properties(self):
        sched = mls_pilot_levels(SMALL, 4000, 0.25, RngStream(22))
        levels = np.array(sched.levels)
        assert levels[0] == 0.0 and levels[-1] == 1.0
        assert np.all(np.diff(levels) > 0.0)
        # observed fractions should sit near the target (half is the floor)
        assert all(f >= 0.125 for f in sched.survivor_fractions)

    def test_pilot_non_rare_single_level(self):
        cfg = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=1e3)
        with pytest.warns(UserWarning, match="not rare"):
            sched = mls_pilot_levels(cfg, 1000, 0.25, RngStream(23))
        assert sched.levels == (0.0, 1.0)


class TestMls:
    def test_telescoping_certain_event(self):
        cfg = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=1e3)
        sched = MlsSchedule((0.0, 0.5, 1.0), 100, (1.0, 1.0))
        r = estimate_mls(cfg, 500, RngStream(24), schedule=sched,
                         replications=5)
        assert r.p_hat == 1.0 and r.var_hat == 0.0

    def test_single_level_matches_naive_law(self):
        # with the degenerate schedule [0, 1] each replication is a plain
        # binomial hit fraction of the nominal law
        sched = MlsSchedule((0.0, 1.0), 100, (0.5,))
        r = estimate_mls(SMALL, 2000, RngStream(25), schedule=sched,
                         replications=40)
        ref = estimate_nmc(SMALL, 1_000_000, RngStream(26))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_agrees_with_reference(self, small_reference):
        r = estimate_mls(SMALL, 3000, RngStream(27), replications=50,
                         pilot_samples=5000)
        ref = small_reference
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_closed_form_branch_selection(self):
        # probability ~0.4, so the pilot legitimately warns about non-rarity
        cfg = ChannelConfig(M=2, m=1, mu=0.0, gamma_th=1.0)
        with pytest.warns(UserWarning, match="not rare"):
            r = estimate_mls(cfg, 3000, RngStream(28), replications=50,
                             pilot_samples=5000)
        exact = closed_form_outage(cfg)
        assert abs(r.p_hat - exact) < 4.0 * combined_se(r)


class TestMlsRowSkip:
    """Rows with a branch above its threshold CDF are never inverted; the
    mask must equal the outage mask of the full inverse transform."""

    @pytest.mark.parametrize("cfg", [
        ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1),
        ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0),
    ], ids=["subset", "los"])
    def test_mask_matches_full_inversion(self, cfg):
        gen = np.random.default_rng(11)
        # survivors spread from tiny G to G = 33, where 1 - e^{-G} is
        # clipped at 1 - 1e-14 by the quantile (it rounds to 1 past G ~ 36.7)
        g_surv = gen.gamma(0.05, size=(5000, cfg.M)) * 10.0 ** gen.uniform(-3, 0, (5000, 1))
        g_surv[:50, 0] = 33.0
        k = estimators._branch_cdfs(cfg)
        g_mat, mask = estimators._mls_advance(cfg, k, gen, g_surv, 0.01, 100_000)
        p = -np.expm1(-g_mat)
        assert np.any(p >= 1.0 - 1e-14) and np.any(p > k) and np.any(mask)
        full = estimators._outage(cfg, _inverse_rows(p, cfg.mu_array))
        assert np.array_equal(mask, full)


class TestTableDecision:
    """The outage decision read off the quantile tables equals the outage
    mask of the exact inverse transform, row for row."""

    CONFIGS = [
        ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1),
        ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0),
        SMALL,
        ChannelConfig(M=8, m=4, mu=0.5, gamma_th=1.0),
        ChannelConfig(M=8, m=2, mu=3.0, gamma_th=20.0),  # lambda = 18
        ChannelConfig(M=8, m=2, mu=5.0, gamma_th=50.0),  # lambda = 50, uncertified
    ]
    IDS = ["subset", "los", "small", "dense", "mu3", "mu5"]

    @staticmethod
    def rows(cfg, style):
        gen = np.random.default_rng(17)
        k = estimators._branch_cdfs(cfg)
        if style == "uis":
            return k * gen.random((100_000, cfg.M))
        # gamma-process points over a spread of path lengths, pre-skipped by k
        g = gen.gamma(0.3, size=(100_000, cfg.M)) * 10.0 ** gen.uniform(-3, 1, (100_000, 1))
        p = -np.expm1(-g)
        return p[~(p > k).any(axis=1)]

    @staticmethod
    def band_sizes(monkeypatch):
        sizes = []
        exact = estimators._inverse_rows

        def recording(p, mu):
            sizes.append(p.shape[0])
            return exact(p, mu)

        monkeypatch.setattr(estimators, "_inverse_rows", recording)
        return sizes

    @pytest.mark.parametrize("style", ["uis", "mls"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_matches_exact_inversion(self, cfg, style, monkeypatch):
        p = self.rows(cfg, style)
        full = estimators._outage(cfg, _inverse_rows(p, cfg.mu_array))
        band = self.band_sizes(monkeypatch)
        mask = estimators._outage_at(cfg, p)
        assert p.shape[0] > 1000 and full.any() and not full.all()
        assert np.array_equal(mask, full)
        if cfg.mu[0] == 5.0:  # no certificate: every row is inverted exactly
            assert band == [p.shape[0]]

    @pytest.mark.parametrize("cfg", CONFIGS[:2], ids=IDS[:2])
    def test_forced_band(self, cfg, monkeypatch):
        table = samplers._quantile_table
        monkeypatch.setattr(samplers, "_quantile_table",
                            lambda dof, lam: table(dof, lam)._replace(eps=1e-2))
        p = self.rows(cfg, "uis")
        band = self.band_sizes(monkeypatch)
        mask = estimators._outage_at(cfg, p)
        assert 0 < sum(band) < p.shape[0]
        assert np.array_equal(mask, estimators._outage(cfg, _inverse_rows(p, cfg.mu_array)))

    def test_few_coordinates_reach_the_cdf(self, monkeypatch):
        # a count, not a timing: mixture-CDF points per coordinate whose
        # outage is decided, after tables and threshold CDFs are cached
        cfg = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        estimate_uis(cfg, 1000, RngStream(5))
        estimate_mls(cfg, 300, RngStream(5), replications=5)
        decided, points = [], []
        decide, raw = estimators._outage_at, specfun._cdf_pdf_raw

        def deciding(config, p):
            decided.append(p.size)
            return decide(config, p)

        def counting(x, *args, **kwargs):
            points.append(np.size(x))
            return raw(x, *args, **kwargs)

        monkeypatch.setattr(estimators, "_outage_at", deciding)
        monkeypatch.setattr(specfun, "_cdf_pdf_raw", counting)
        estimate_uis(cfg, 100_000, RngStream(6))
        assert sum(decided) == 800_000 and sum(points) <= 0.01 * sum(decided)
        decided.clear()
        points.clear()
        estimate_mls(cfg, 300, RngStream(6), replications=5)
        assert sum(decided) > 100_000 and sum(points) <= 0.01 * sum(decided)


class TestScvSampleSizeInvariance:
    def test_et_scv_stable_under_sample_count(self):
        # the squared coefficient of variation estimates a per-sample
        # quantity, so quadrupling S must not move it beyond sampling noise
        from outagemc.metrics import scv
        a = estimate_et(SMALL, 10 ** 5, RngStream(32))
        b = estimate_et(SMALL, 4 * 10 ** 5, RngStream(33))
        assert scv(b) / scv(a) == pytest.approx(1.0, abs=0.2)


class TestWorkerDeterminism:
    @pytest.mark.parametrize("runner,kwargs", [
        (estimate_et, {}),
        (estimate_pis, {}),
        (estimate_ce, {"S0": 20_000}),
        (estimate_nmc, {}),
        (estimate_uis, {}),
    ])
    def test_sharded_estimators(self, runner, kwargs):
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=0.8)
        a = runner(cfg, 300_000, RngStream(29), workers=1, **kwargs)
        b = runner(cfg, 300_000, RngStream(29), workers=3, **kwargs)
        assert a.p_hat == b.p_hat
        assert a.var_hat == b.var_hat
        assert a.diagnostics == b.diagnostics

    def test_mls(self):
        a = estimate_mls(SMALL, 1000, RngStream(30), replications=12,
                         pilot_samples=2000, workers=1)
        b = estimate_mls(SMALL, 1000, RngStream(30), replications=12,
                         pilot_samples=2000, workers=3)
        assert a.p_hat == b.p_hat and a.var_hat == b.var_hat
        assert a.diagnostics == b.diagnostics


def _counts(r):
    """Integer diagnostics: hits, pis proposals, ce stages, mls levels, work."""
    d = r.diagnostics
    out = {"work_units": r.work_units}
    for key in ("hit_fraction", "hit_rate"):
        if key in d:
            out["hits"] = round(d[key] * r.samples)
    for key in ("hits", "proposals"):
        if key in d:
            out[key] = d[key]
    if "trace" in d:
        out["ce_stages"] = len(d["trace"])
    if "levels" in d:
        out["levels"] = len(d["levels"]) - 1
    return out


class TestReproducibility:
    """Outputs at one seed, pinned so that any change to child-stream
    indices, draw order or reductions fails here."""

    @pytest.mark.parametrize("method,size,kwargs,p_hat,var_hat,counts", [
        ("nmc", 20_000, {}, 0.01045, 0.0103407975,
         {"work_units": 20_000, "hits": 209}),
        ("uis", 20_000, {}, 0.010656547319765336, 0.0002500691256333786,
         {"work_units": 20_000, "hits": 6246}),
        ("pis", 20_000, {}, 0.010776736532385787, 9.082630913140866e-05,
         {"work_units": 20_000, "hits": 11223, "proposals": 49711}),
        ("et", 20_000, {}, 0.010683266318179318, 0.0001518257629254988,
         {"work_units": 20_000, "hits": 13166}),
        ("ce", 20_000, {"S0": 2_000}, 0.010650029016097228,
         0.00011109147690091719,
         {"work_units": 24_000, "hits": 16316, "ce_stages": 3}),
        ("mls", 200, {"replications": 4, "pilot_samples": 1_000},
         0.0113750625, 0.003297175759375001,
         {"work_units": 27_400, "levels": 3}),
    ])
    def test_pinned_outputs(self, method, size, kwargs, p_hat, var_hat, counts):
        r = ESTIMATORS[method](SMALL, size, RngStream(2024), **kwargs)
        assert r.p_hat == pytest.approx(p_hat, rel=1e-12)
        assert r.var_hat == pytest.approx(var_hat, rel=1e-12)
        assert _counts(r) == counts


class TestUnderflow:
    """Thresholds past double precision raise instead of returning a silent 0.

    At M = m = 8, mu = 0.5 the outage probability is 3.36e-166 at
    gamma_th = 1e-20 and below the smallest subnormal at 1e-40.
    """

    @staticmethod
    def config(gamma_th):
        return ChannelConfig(M=8, m=8, mu=0.5, gamma_th=gamma_th)

    @pytest.mark.parametrize("gamma_th", [1e-20, 1e-40])
    def test_et(self, gamma_th):
        # the squared weights underflow at 1e-20, the weights too at 1e-40
        with pytest.raises(TruncationUnderflowError, match="too extreme"):
            estimate_et(self.config(gamma_th), 20_000, RngStream(1))

    @pytest.mark.parametrize("gamma_th", [1e-20, 1e-40])
    def test_uis(self, gamma_th):
        # 3 hits: ell1 * p underflows at 1e-20; at 1e-40 ell1 is subnormal
        with pytest.raises(TruncationUnderflowError, match="too extreme"):
            estimate_uis(self.config(gamma_th), 200_000, RngStream(1))

    def test_pis_partition_plan(self):
        with pytest.raises(TruncationUnderflowError, match="ell2 underflows"):
            build_partition_plan(self.config(1e-40))
        with pytest.raises(TruncationUnderflowError):
            estimate_pis(self.config(1e-40), 1000, RngStream(1))

    def test_fails_before_sampling(self, monkeypatch):
        # ell1 and ell2 are subnormal at 1e-40: raise at set-up, draw nothing
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled although the set-up underflowed")

        monkeypatch.setattr(estimators, "_run_blocks", no_sampling)
        with pytest.raises(TruncationUnderflowError, match="ell1 underflows"):
            estimate_uis(self.config(1e-40), 200_000, RngStream(1))
        with pytest.raises(TruncationUnderflowError, match="ell2 underflows"):
            estimate_pis(self.config(1e-40), 1000, RngStream(1))
        cfg = self.config(1e-40).replace(m=1)
        with pytest.raises(TruncationUnderflowError, match="ell2 underflows"):
            build_partition_plan(cfg)

    def test_pis_every_sample_hits(self):
        # at m = M every partition sample is an outage: exact, zero variance
        cfg = self.config(1e-20)
        r = estimate_pis(cfg, 20_000, RngStream(1))
        assert r.p_hat == pytest.approx(closed_form_outage(cfg), rel=1e-11)
        assert r.p_hat > 0.0 and r.var_hat == 0.0
        assert r.diagnostics["hit_fraction"] == 1.0
