"""Estimator-level tests: oracles, invariants, determinism.

Statistical assertions use 4-standard-error windows around independent
references (closed forms where they exist, otherwise a large naive MC run),
so they are deterministic for the fixed seeds used here.
"""

import functools
import math
import os
import sys

import numpy as np
import pytest
from scipy import optimize, special, stats

from conftest import ce_fit_brentq, mls_replications

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
from outagemc.specfun import Ncx2Params, _log_density, log_bessel_i0, ncx2_cdf


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
        assert [b.block_size for b in plan.bounds] == [2, 2]
        r = estimate_pis(cfg, 100_000, RngStream(7))
        ref = estimate_nmc(cfg, 2_000_000, RngStream(8))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_remainder_block(self):
        cfg = ChannelConfig(M=7, m=3, mu=0.4, gamma_th=0.9)
        plan = build_partition_plan(cfg)
        assert [b.block_size for b in plan.bounds] == [3, 3, 1]

    def test_blocks_land_in_their_columns(self):
        # H is symmetric in the coordinates, so no estimate can tell a block
        # written to the wrong columns; branch means 1 + mu^2 can
        cfg = ChannelConfig(M=5, m=2, mu=(0.2, 0.2, 3.0, 3.0, 1.0), gamma_th=60.0)
        plan = build_partition_plan(cfg)
        assert [(b.block_mu, b.block_size) for b in plan.bounds] == [(0.2, 2), (3.0, 2), (1.0, 1)]
        x, _ = estimators._pis_rows(cfg, plan, RngStream(12).generator(), 4000)
        means = x.mean(axis=0)
        assert max(means[:2]) < means[4] < min(means[2:4])

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
        # threshold above half the ncx2 mode: not the paper's increasing branch
        (ChannelConfig(M=4, m=2, mu=2.3, gamma_th=8.0), 50_000, 500_000, 34),
        (ChannelConfig(M=3, m=1, mu=3.0, gamma_th=12.0), 20_000, 500_000, 36),
        (ChannelConfig(M=5, m=4, mu=2.3, gamma_th=8.0), 20_000, 2_000_000, 38),
        # mu just above 1: the density mode sits between 0 and the paper's A_mu
        (ChannelConfig(M=2, m=1, mu=1.01, gamma_th=1.0), 20_000, 500_000, 40),
        (ChannelConfig(M=4, m=4, mu=1.02, gamma_th=4.0), 20_000, 500_000, 42),
    ])
    def test_large_mean_bound_edges(self, cfg, s_pis, s_nmc, seed):
        # each used to abort on an invalid rejection constant
        r = estimate_pis(cfg, s_pis, RngStream(seed))
        ref = estimate_nmc(cfg, s_nmc, RngStream(seed + 1))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_proposal_choice(self):
        # the simplex on the subset benchmark (cost 2.1 against 3.6 tilted),
        # the tilted law on los (3.9 tilted trials per row against 7.7 simplex ones)
        subset = ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1)
        los = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        assert [b.proposal for b in build_partition_plan(subset).bounds] == ["simplex"] * 4
        assert [b.proposal for b in build_partition_plan(los).bounds] == ["tilted"] * 2
        r = estimate_pis(los, 1000, RngStream(12))
        assert r.diagnostics["proposal"] == ["tilted", "tilted"]

    @pytest.mark.parametrize("mu,seed", [(4.0, 61), (5.0, 63)])
    def test_large_mean_against_ce(self, mu, seed):
        # the paper's constant made these stall (mu 4) or the plan's linear
        # block CDF underflow (mu 5); p is 8e-21 and 3e-39
        cfg = ChannelConfig(M=8, m=4, mu=mu, gamma_th=17.0)
        r = estimate_pis(cfg, 20_000, RngStream(seed))
        ref = estimate_ce(cfg, 50_000, RngStream(seed + 1), S0=20_000)
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert r.diagnostics["hit_fraction"] > 0.0
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_m_equals_M_zero_variance(self):
        cfg = ChannelConfig(M=4, m=4, mu=0.6, gamma_th=2.0)
        r = estimate_pis(cfg, 10_000, RngStream(11))
        assert r.p_hat == pytest.approx(closed_form_outage(cfg), rel=1e-11)
        assert r.var_hat == 0.0


class TestEt:
    def test_likelihood_ratio_identity(self):
        # et's log LR plus the log proposal density is the log channel density,
        # the branch law X = (1/2) ncx2(2, 2 mu^2) read from scipy
        cfg = ChannelConfig(M=5, m=3, mu=(0.2, 0.4, 0.6, 0.8, 3.0), gamma_th=0.9)
        x = RngStream(12).generator().exponential(cfg.gamma_th / cfg.M, size=(256, cfg.M))
        mu = cfg.mu_array
        log_proposal = stats.expon.logpdf(x, scale=cfg.gamma_th / cfg.M).sum(axis=1)
        log_channel = (stats.ncx2.logpdf(2.0 * x, 2, 2.0 * mu * mu) + math.log(2.0)).sum(axis=1)
        log_lr = estimators._et_log_lr_rows(cfg, x)
        assert np.allclose(log_lr + log_proposal, log_channel, rtol=1e-12, atol=1e-12)

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


def _los_final_set():
    """A LOS final-fit elite set: 20,000 rows drawn from a late proposal
    (0.2, 14.3), kept where H <= gamma_th = 17 (about 75k coordinates)."""
    nominal, v = CEParams(0.5, 2.0 * 2.3 * 2.3), CEParams(0.2, 14.3)
    x = _scaled_ncx2_rows(v.v1, v.v2, RngStream(36).generator(), (20_000, 8))
    return estimators._elite_weights(x, gsc_statistic_rows(x, 4), 17.0, nominal, v)


def _near_edge_set():
    """Coordinates from v = (0.5, 0.1) whose moments sit just inside the
    edge: m2 / (2 m1^2) = 0.9964, root nu = 0.24 sqrt(m1)."""
    x = _scaled_ncx2_rows(0.5, 0.1, RngStream(37).generator(), (4000, 4))
    return x, np.ones(x.shape[0])


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

    @pytest.mark.parametrize("data,most", [(_subset_elite_set, 8), (_los_final_set, 8),
                                           (_near_edge_set, None)],
                             ids=["subset-pilot", "los-final", "near-edge"])
    def test_matches_brentq_fit(self, data, most, monkeypatch):
        # the same root as a brentq solve of the same score; a fit costs
        # one ratio I1/I0 (one i0e call) per score evaluation
        x, w = data()
        v1, v2 = ce_fit_brentq(x, w)
        assert v2 > 0.0
        calls = []
        raw = special.i0e
        monkeypatch.setattr(special, "i0e", lambda a: calls.append(1) or raw(a))
        got = ce_update(x, w)
        monkeypatch.undo()
        assert got.v1 == pytest.approx(v1, rel=1e-12)
        assert got.v2 == pytest.approx(v2, rel=1e-12)
        assert most is None or len(calls) <= most

    def test_score_rising_at_the_moment_root(self, monkeypatch):
        # the moment root, 0.161 sqrt(m1), lies left of the score's maximum,
        # so s' >= 0 there; the root 0.197 sqrt(m1) is pinned from a 30-digit
        # evaluation of the score on these draws
        x = _scaled_ncx2_rows(0.5, 0.1, RngStream(36).generator(), (4000, 4))
        calls = []
        raw = special.i0e
        monkeypatch.setattr(special, "i0e", lambda a: calls.append(1) or raw(a))
        got = ce_update(x, np.ones(x.shape[0]))
        monkeypatch.undo()
        assert len(calls) <= 8
        assert got.v1 == pytest.approx(0.4991030554601595, rel=1e-12)
        assert got.v2 == pytest.approx(0.08065900211872538, rel=1e-12)

    def test_near_edge_root_is_small(self):
        x, w = _near_edge_set()
        m1, m2 = np.mean(x), np.mean(x * x)
        assert 0.99 * 2.0 * m1 * m1 < m2 < 2.0 * m1 * m1
        got = ce_update(x, w)
        assert math.sqrt(got.v1 * got.v2) < 0.3 * math.sqrt(m1)

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
        # threshold so mild that the first pilot level is already below it
        cfg = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=2.5)
        r = estimate_ce(cfg, 200_000, RngStream(18), S0=20_000)
        assert len(r.diagnostics["trace"]) == 2  # initial + final fit only
        ref = estimate_nmc(cfg, 2_000_000, RngStream(19))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 3.0 * se

    def test_thresholds_strictly_decreasing(self):
        # the pis batch keeps too few outage rows to end the walk here
        cfg = TestCePilot.WIDE
        r = estimate_ce(cfg, 50_000, RngStream(20), S0=20_000)
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


class TestCePilot:
    """One stage walk, whose first batch is pis rows."""

    DENSE = ChannelConfig(M=8, m=4, mu=0.5, gamma_th=1.0)
    WIDE = ChannelConfig(M=16, m=4, mu=0.5, gamma_th=0.5)  # pis hit fraction ~0.0015

    @pytest.mark.parametrize("cfg,expected", [
        (ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1), "exact"),  # subset
        (DENSE, "exact"),
        (ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0), "exact"),  # los, cost 15.6
        (ChannelConfig(M=8, m=2, mu=3.0, gamma_th=10.0), "exact"),  # cost 18.6
        (ChannelConfig(M=8, m=4, mu=4.0, gamma_th=17.0), "multilevel"),  # cost 42.7
        (ChannelConfig(M=8, m=4, mu=5.0, gamma_th=17.0), "multilevel"),  # cost 55.7
    ])
    def test_rule(self, cfg, expected):
        # the walk starts from a batch of pis rows on every config; it ends
        # there ("exact") where the batch keeps CE_EXACT_PILOT_MIN_ROWS outage
        # rows (3.6% at mu 3), and at mu = 4 and 5 it goes on from the batch's fit
        r = estimate_ce(cfg, 1000, RngStream(60), S0=10_000)
        trace = r.diagnostics["trace"]
        assert (len(trace) == 2) == (expected == "exact")
        assert (trace[0]["v1"], trace[0]["v2"]) == (0.5, 2.0 * cfg.mu[0] ** 2)
        assert trace[-1]["gamma_t"] == cfg.gamma_th
        assert r.work_units == 1000 + 10_000 * (len(trace) - 1)
        if expected == "exact":
            # the pis batch, levelled at its 200th smallest H, and the final fit
            assert trace[0]["gamma_t"] <= cfg.gamma_th
            assert estimators.CE_EXACT_PILOT_MIN_ROWS <= r.diagnostics["pilot_hits"] <= 10_000
        else:
            assert trace[0]["gamma_t"] > cfg.gamma_th

    @pytest.mark.parametrize("cfg,seed", [
        (ChannelConfig(M=8, m=2, mu=3.0, gamma_th=10.0), 65),
        (ChannelConfig(M=8, m=4, mu=3.0, gamma_th=17.0), 67),  # criterion 04, cost 27.5
        (ChannelConfig(M=4, m=2, mu=10.0, gamma_th=40.0), 69),  # p ~ 3e-59, cost 37.6
    ])
    def test_flipped_configs_agree_with_pis(self, cfg, seed):
        # each pis batch keeps 200 outage rows and ends the walk
        r = estimate_ce(cfg, 50_000, RngStream(seed), S0=20_000)
        assert len(r.diagnostics["trace"]) == 2
        ref = estimate_pis(cfg, 100_000, RngStream(seed + 1))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    @pytest.mark.parametrize("seed", [90, 91])
    def test_large_means_reach_the_threshold(self, seed):
        # pis proposes about 140 coordinates per row here and p ~ 1.3e-156;
        # a walk from the nominal law hit the CE_MAX_ITER cap
        cfg = ChannelConfig(M=12, m=6, mu=7.0, gamma_th=20.0)
        r = estimate_ce(cfg, 20_000, RngStream(seed), S0=10_000)
        assert 0.0 < r.p_hat < math.inf
        assert r.diagnostics["trace"][-1]["gamma_t"] == cfg.gamma_th

    def test_large_means_agree_with_pis(self):
        # pis proposes about 56 coordinates per row; its batch keeps too few
        # outage rows to end the walk, which goes on from their fit
        cfg = ChannelConfig(M=8, m=4, mu=5.0, gamma_th=17.0)
        r = estimate_ce(cfg, 100_000, RngStream(80), S0=20_000)
        trace = r.diagnostics["trace"]
        x, _ = estimators._pis_rows(cfg, build_partition_plan(cfg),
                                    RngStream(80).child(0).generator(), 20_000)
        h = np.sort(gsc_statistic_rows(x, cfg.m))
        assert trace[0]["gamma_t"] == h[estimators.CE_EXACT_PILOT_MIN_ROWS - 1] > cfg.gamma_th
        assert (trace[0]["v1"], trace[0]["v2"]) == (0.5, 50.0)
        ref = estimate_pis(cfg, 200_000, RngStream(81))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    @pytest.mark.parametrize("seed,kept", [(71, 1), (73, 0)])
    def test_small_batch_falls_back(self, seed, kept):
        # pis's hit fraction is about 0.0015 here, so 100 rows keep one or
        # none; one row fitted gave SCV 60.  A batch under 200 rows has no
        # 200th smallest H, so its level is inf: it cannot end the walk, and
        # the walk goes on from the fit to all its rows.  The reference is
        # pis itself
        cfg = self.WIDE
        x, _ = estimators._pis_rows(cfg, build_partition_plan(cfg),
                                    RngStream(seed).child(0).generator(), 100)
        assert np.count_nonzero(estimators._outage(cfg, x)) == kept
        r = estimate_ce(cfg, 100_000, RngStream(seed), S0=100)
        d = r.diagnostics
        assert len(d["trace"]) > 2
        assert d["trace"][0]["gamma_t"] == math.inf
        assert d["trace"][-1]["gamma_t"] == cfg.gamma_th
        # the 100 pis rows are the first stage
        assert r.work_units == 100_000 + 100 * (len(d["trace"]) - 1)
        ref = estimate_pis(cfg, 200_000, RngStream(70))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_small_batch_cannot_end_the_walk(self):
        # at m = M every pis row is an outage row, yet 150 of them do not
        # end the walk
        cfg = ChannelConfig(M=6, m=6, mu=0.5, gamma_th=0.5)
        r = estimate_ce(cfg, 10_000, RngStream(75), S0=150)
        trace = r.diagnostics["trace"]
        assert trace[0]["gamma_t"] == math.inf
        assert len(trace) >= 3
        assert r.work_units == 10_000 + 150 * (len(trace) - 1)

    def test_walk_goes_on_from_the_pis_batch(self):
        # 2e4 pis rows keep about 30 outage rows here, too few to end the
        # walk; it goes on from their fit
        cfg = self.WIDE
        r = estimate_ce(cfg, 100_000, RngStream(77), S0=20_000)
        trace = r.diagnostics["trace"]
        assert len(trace) > 2
        assert trace[0]["gamma_t"] > cfg.gamma_th
        assert (trace[0]["v1"], trace[0]["v2"]) == (0.5, 0.5)
        assert r.work_units == 100_000 + 20_000 * (len(trace) - 1)
        ref = estimate_pis(cfg, 200_000, RngStream(78))
        se = combined_se(r, r2_var=ref.var_hat, r2_n=ref.samples)
        assert abs(r.p_hat - ref.p_hat) < 4.0 * se

    def test_iteration_cap(self, monkeypatch):
        # at S0 = 1,000 the walk here draws three batches before the final fit
        monkeypatch.setattr(estimators, "CE_MAX_ITER", 1)
        with pytest.raises(estimators.CeAdaptationError,
                           match="CE failed to reach target threshold"):
            estimate_ce(self.WIDE, 1000, RngStream(79), S0=1_000)

    @pytest.mark.parametrize("cfg", [
        ChannelConfig(M=6, m=1, mu=0.5, gamma_th=0.2),
        ChannelConfig(M=6, m=6, mu=0.5, gamma_th=0.5),
    ])
    def test_partition_event_is_outage(self, cfg):
        # at m = 1 and m = M every partition row is an outage row
        r = estimate_ce(cfg, 100_000, RngStream(62), S0=5000)
        assert len(r.diagnostics["trace"]) == 2
        assert r.diagnostics["pilot_hits"] == 5000
        exact = closed_form_outage(cfg)
        assert abs(r.p_hat - exact) < 4.0 * math.sqrt(r.var_hat / r.samples)


class TestMlsSchedule:
    def test_invariants(self):
        MlsSchedule((0.0, 0.4, 1.0), (0.3, 0.5))
        with pytest.raises(ValueError):
            MlsSchedule((0.0, 0.4), (0.3,))  # does not end at 1
        with pytest.raises(ValueError):
            MlsSchedule((0.0, 0.5, 0.4, 1.0), (0.3, 0.5, 0.5))
        with pytest.raises(ValueError):
            MlsSchedule((0.0, 1.0), (1.5,))

    def test_pilot_properties(self):
        sched = mls_pilot_levels(SMALL, 4000, 0.25, RngStream(22))
        levels = np.array(sched.levels)
        assert levels[0] == 0.0 and levels[-1] == 1.0
        assert np.all(np.diff(levels) > 0.0)
        # observed fractions should sit near the target (half is the floor)
        assert all(f >= 0.125 for f in sched.survivor_fractions)

    def test_pilot_non_rare_single_level(self):
        cfg = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=1e3)
        r = estimate_mls(cfg, 100, RngStream(23), replications=3, pilot_samples=1000)
        assert r.diagnostics["levels"] == [0.0, 1.0]
        assert r.warnings == ["outage event is not rare: single-level schedule"]


class TestMls:
    def test_telescoping_certain_event(self):
        cfg = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=1e3)
        sched = MlsSchedule((0.0, 0.5, 1.0), (1.0, 1.0))
        r = estimate_mls(cfg, 500, RngStream(24), schedule=sched,
                         replications=5)
        assert r.p_hat == 1.0 and r.var_hat == 0.0

    def test_single_level_matches_naive_law(self):
        # with the degenerate schedule [0, 1] each replication is a plain
        # binomial hit fraction of the nominal law
        sched = MlsSchedule((0.0, 1.0), (0.5,))
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
        # probability ~0.4, so the pilot legitimately notes non-rarity
        cfg = ChannelConfig(M=2, m=1, mu=0.0, gamma_th=1.0)
        r = estimate_mls(cfg, 3000, RngStream(28), replications=50,
                         pilot_samples=5000)
        assert any("not rare" in w for w in r.warnings)
        exact = closed_form_outage(cfg)
        assert abs(r.p_hat - exact) < 4.0 * combined_se(r)


class TestMlsRowSkip:
    """Rows with a branch above its threshold CDF are decided by the screen
    alone; the mask must equal the outage mask of the full inverse transform."""

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
        k = estimators._screen(cfg).k
        g_mat, mask = estimators._mls_advance(cfg, [gen], [g_surv], 0.01, 100_000)
        p = -np.expm1(-g_mat)
        assert np.any(p >= 1.0 - 1e-14) and np.any(p > k) and np.any(mask)
        full = estimators._outage(cfg, _inverse_rows(p, cfg.mu_array))
        assert np.array_equal(mask, full)


class TestMlsGroups:
    """Replications stepped in groups give, bit for bit, what the same
    replications give one at a time (conftest's mls_replications)."""

    @staticmethod
    def check(cfg, s, replications, rng, **kwargs):
        per = estimators.MLS_ROWS // s
        assert per > 1 and replications > per and replications % per
        r = estimate_mls(cfg, s, rng, replications=replications, **kwargs)
        ref = mls_replications(cfg, r.diagnostics["levels"], rng, s, replications)
        assert r.diagnostics["replication_estimates"] == [e for e, _ in ref]
        dead = sum(1 for _, d in ref if d)
        assert r.diagnostics["warnings"] == (
            [f"{dead} replication(s) died with zero survivors"] if dead else [])
        return ref

    @pytest.mark.parametrize("cfg", [
        ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1),
        ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0),
    ], ids=["subset", "los"])
    def test_pilot_schedule(self, cfg):
        s = 300
        self.check(cfg, s, estimators.MLS_ROWS // s + 5, RngStream(40),
                   pilot_samples=2000)

    def test_fixed_schedule_with_deaths(self):
        # on los with 20 chains most replications die, some at each level
        cfg = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        levels = (0.0, 0.7, 0.85, 1.0)
        ref = self.check(cfg, 20, estimators.MLS_ROWS // 20 + 19, RngStream(41),
                         schedule=MlsSchedule(levels, (0.5, 0.5, 0.5)))
        assert {d for _, d in ref} == {0, 1, 2, 3}


class TestTableDecision:
    """The outage decision read off the quantile tables equals the outage
    mask of the exact inverse transform, row for row."""

    CONFIGS = [
        ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1),
        ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0),
        SMALL,
        ChannelConfig(M=8, m=4, mu=0.5, gamma_th=1.0),
        ChannelConfig(M=8, m=2, mu=3.0, gamma_th=20.0),  # lambda = 18
        ChannelConfig(M=8, m=2, mu=5.0, gamma_th=50.0),  # lambda = 50, served uncertified
    ]
    IDS = ["subset", "los", "small", "dense", "mu3", "mu5"]

    @staticmethod
    def rows(cfg, style):
        gen = np.random.default_rng(17)
        k = estimators._screen(cfg).k
        if style == "uis":
            return k * gen.random((100_000, cfg.M))
        # gamma-process points over a spread of path lengths, pre-skipped by k
        g = gen.gamma(0.3, size=(100_000, cfg.M)) * 10.0 ** gen.uniform(-3, 1, (100_000, 1))
        p = -np.expm1(-g)
        return p[~(p > k).any(axis=1)]

    @staticmethod
    def band_sizes(monkeypatch, name="_inverse_rows"):
        """Row counts of every call _outage_at makes to estimators.<name>:
        _inverse_rows(p, mu) once per band, _table_value(tab, q) once per
        equal-mean group of the rows in doubt."""
        sizes = []
        wrapped = getattr(estimators, name)
        rows = 1 if name == "_table_value" else 0

        def recording(*args):
            sizes.append(args[rows].shape[0])
            return wrapped(*args)

        monkeypatch.setattr(estimators, name, recording)
        return sizes

    @staticmethod
    def uncertified(monkeypatch):
        """Serve eps = inf, n_cert = 0 tables to the screen, whose groups
        hold the table decision's tables, with a _screen cache of this
        test's own."""
        table = estimators._quantile_table

        def void(lam):
            return table(lam)._replace(eps=math.inf, n_cert=0)

        monkeypatch.setattr(estimators, "_quantile_table", void)
        monkeypatch.setattr(estimators, "_screen", functools.lru_cache(maxsize=64)(
            estimators._screen.__wrapped__))

    @pytest.mark.parametrize("style", ["uis", "mls"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_matches_exact_inversion(self, cfg, style, monkeypatch):
        if cfg.mu[0] == 5.0:
            self.uncertified(monkeypatch)
        p = self.rows(cfg, style)
        full = estimators._outage(cfg, _inverse_rows(p, cfg.mu_array))
        band = self.band_sizes(monkeypatch)
        doubt = self.band_sizes(monkeypatch, "_table_value")
        mask = estimators._outage_at(cfg, p)
        assert p.shape[0] > 1000 and full.any() and not full.all()
        assert np.array_equal(mask, full)
        if cfg.mu[0] == 5.0:  # no certificate: every row the screen passes on is exact
            assert band == doubt

    @pytest.mark.parametrize("cfg", CONFIGS[:2], ids=IDS[:2])
    def test_forced_band(self, cfg, monkeypatch):
        # the band is the screen's tol, so eps reaches it through _screen
        table = estimators._quantile_table
        monkeypatch.setattr(estimators, "_quantile_table",
                            lambda lam: table(lam)._replace(eps=1e-2))
        monkeypatch.setattr(estimators, "_screen", functools.lru_cache(maxsize=64)(
            estimators._screen.__wrapped__))
        p = self.rows(cfg, "uis")
        band = self.band_sizes(monkeypatch)
        mask = estimators._outage_at(cfg, p)
        assert 0 < sum(band) < p.shape[0]
        assert np.array_equal(mask, estimators._outage(cfg, _inverse_rows(p, cfg.mu_array)))

    def test_few_coordinates_reach_the_cdf(self, monkeypatch):
        # a count, not a timing: points inverted exactly per coordinate
        # whose outage is decided, after tables and threshold CDFs are
        # cached (off the table, the exact inverse spends no CDF call)
        cfg = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        estimate_uis(cfg, 1000, RngStream(5))
        estimate_mls(cfg, 300, RngStream(5), replications=5)
        decided, points = [], []
        decide, raw = estimators._outage_at, samplers.ncx2_quantile

        def deciding(config, p):
            decided.append(p.size)
            return decide(config, p)

        def counting(x, *args, **kwargs):
            points.append(np.size(x))
            return raw(x, *args, **kwargs)

        monkeypatch.setattr(estimators, "_outage_at", deciding)
        monkeypatch.setattr(samplers, "ncx2_quantile", counting)
        estimate_uis(cfg, 100_000, RngStream(6))
        assert sum(decided) == 800_000 and sum(points) <= 0.01 * sum(decided)
        decided.clear()
        points.clear()
        estimate_mls(cfg, 300, RngStream(6), replications=5)
        assert sum(decided) > 100_000 and sum(points) <= 0.01 * sum(decided)


class TestOutageScreen:
    """The p-space screen in _outage_at decides most rows from the branch
    CDFs at gamma_th/m and gamma_th; its mask must still equal the outage
    mask of the full inverse transform, row for row."""

    CONFIGS = [
        ChannelConfig(M=4, m=2, mu=(0.5, 0.5, 2.3, 2.3), gamma_th=3.0),
        ChannelConfig(M=4, m=4, mu=0.6, gamma_th=2.0),
        ChannelConfig(M=4, m=1, mu=0.7, gamma_th=0.8),
        ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1),
        ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0),
        ChannelConfig(M=2, m=1, mu=0.0, gamma_th=34.0),  # k = 1 - 1.7e-15
        # groups of 3 above m = 2: the table reads each group's top 2 columns
        ChannelConfig(M=6, m=2, mu=(0.5, 0.5, 0.5, 2.3, 2.3, 2.3), gamma_th=3.0),
        # past one 8-byte word of comparisons: a padded second word, with a
        # level row per group, and two full words on one scalar level
        ChannelConfig(M=12, m=3, mu=(0.5,) * 6 + (2.3,) * 6, gamma_th=3.0),
        ChannelConfig(M=16, m=4, mu=0.5, gamma_th=0.5),
    ]
    IDS = ["mixed", "m_eq_M", "m1", "subset", "los", "clip", "mixed_groups", "two_words_groups",
           "two_words"]

    @staticmethod
    def level_cdfs(cfg):
        """(c, k): each branch's CDF at gamma_th/m and at gamma_th."""
        mu = cfg.mu_array
        c, k = (np.array([ncx2_cdf(2.0 * x, Ncx2Params(2, 2.0 * v * v)) for v in mu])
                for x in (cfg.gamma_th / cfg.m, cfg.gamma_th))
        return c, k

    @staticmethod
    def check(cfg, p):
        full = estimators._outage(cfg, _inverse_rows(p, cfg.mu_array))
        assert np.array_equal(estimators._outage_at(cfg, p), full)
        return full

    @pytest.mark.parametrize("cfg", CONFIGS[:3] + CONFIGS[-3:], ids=IDS[:3] + IDS[-3:])
    def test_matches_exact_inversion(self, cfg, monkeypatch):
        gen = np.random.default_rng(23)
        k = estimators._screen(cfg).k
        uis = k * gen.random((50_000, cfg.M))
        g = gen.gamma(0.3, size=(50_000, cfg.M)) * 10.0 ** gen.uniform(-3, 1.5, (50_000, 1))
        mls = -np.expm1(-g)  # it rounds to 1 past G ~ 36.7
        assert (mls == 1.0).any()
        doubt = TestTableDecision.band_sizes(monkeypatch, "_table_value")
        full = [self.check(cfg, p) for p in (uis, mls)]
        assert full[1].any() and not full[1].all()
        # the two-word configs' uis rows hold under m branches above
        # gamma_th/m with probability 2e-5 (M = 16) and 1.3e-4 (M = 12):
        # 50,000 of them hold no outage, and the mls rows carry the hits
        assert full[0].any() == (cfg.M <= 8)
        # m = 1 leaves no row in doubt; otherwise the screen passes some on,
        # but never one with a branch clearly past gamma_th
        assert (sum(doubt) == 0) == (cfg.m == 1)
        doubt.clear()
        past = mls[(mls > k * (1.0 + 1e-6)).any(axis=1)]
        assert past.shape[0] > 1000 and not estimators._outage_at(cfg, past).any()
        assert doubt == []

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_rows_on_the_levels(self, cfg):
        c, k = self.level_cdfs(cfg)
        M, m = cfg.M, cfg.m
        rows = []
        for level in (c, k, np.nextafter(c, 0.0), np.nextafter(c, 1.0),
                      np.nextafter(k, 0.0), np.nextafter(k, 1.0)):
            for n_on in range(1, M + 1):
                for rest in (0.0, 1e-3, 0.5):
                    row = np.full(M, rest * c.min())
                    row[:n_on] = level[:n_on]
                    rows.append(row)
                    rows.append(row[::-1].copy())
        # one coordinate on k, the others on c; one past the quantile's clip
        for j in range(M):
            row = c.copy()
            row[j] = k[j]
            rows.append(row)
            row = np.full(M, 0.5 * c.min())
            row[j] = np.nextafter(1.0, 0.0)
            rows.append(row)
        full = self.check(cfg, np.array(rows))
        if m > 1:
            assert full.any() and not full.all()

    def test_few_rows_reach_the_table(self, monkeypatch):
        # a count, not a timing: rows _outage_at reads off the quantile tables
        subset, m1 = self.CONFIGS[3], self.CONFIGS[2]
        doubt = TestTableDecision.band_sizes(monkeypatch, "_table_value")
        estimate_uis(subset, 100_000, RngStream(8))
        assert 0 < sum(doubt) <= 10_000
        doubt.clear()
        estimate_uis(m1, 100_000, RngStream(8))
        assert doubt == []


class TestScvSampleSizeInvariance:
    def test_et_scv_stable_under_sample_count(self):
        # the squared coefficient of variation estimates a per-sample
        # quantity, so quadrupling S must not move it beyond sampling noise
        from outagemc.metrics import scv
        a = estimate_et(SMALL, 10 ** 5, RngStream(32))
        b = estimate_et(SMALL, 4 * 10 ** 5, RngStream(33))
        assert scv(b) / scv(a) == pytest.approx(1.0, abs=0.2)


class TestSampleCount:
    @pytest.mark.parametrize("runner", [estimate_et, estimate_ce])
    def test_weighted_estimators_need_two_samples(self, runner, monkeypatch):
        # one sample has no sample variance; it used to report var_hat = 0
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled although S < 2")

        monkeypatch.setattr(estimators, "_run_blocks", no_sampling)
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=2.0)
        for S in (0, 1):
            with pytest.raises(ValueError, match="S must be >= 2"):
                runner(cfg, S, RngStream(3))

    @pytest.mark.parametrize("method,name,bad", [
        (method, name, bad)
        for method, least in estimators.LEAST.items()
        for name, low in least.items()
        for bad in ((0.0, 1.0) if low is None else (low - 1,))])
    def test_every_minimum_checked_before_sampling(self, method, name, bad, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError(f"sampled although {name} = {bad}")

        for target in ("_run_blocks", "_map_ordered", "_pis_rows", "mls_pilot_levels"):
            monkeypatch.setattr(estimators, target, no_sampling)
        least = estimators.LEAST[method]
        size = next(iter(least))
        kwargs = {size: least[size], name: bad}
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=2.0)
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {bad}$"):
            ESTIMATORS[method](cfg, rng=RngStream(3), **kwargs)

    @pytest.mark.parametrize("name,bad", [("pilot_samples", 99), ("target_cond_prob", 1.0)])
    def test_pilot_levels_check_the_mls_minimums(self, name, bad):
        cfg = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=2.0)
        kwargs = {"pilot_samples": 100, "target_cond_prob": 0.2, name: bad}
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {bad}$"):
            mls_pilot_levels(cfg, rng=RngStream(3), **kwargs)

    def test_results_stamped_by_the_frame(self):
        assert ESTIMATORS.keys() == estimators.LEAST.keys()
        kwargs = {"ce": {"S0": 2000}, "mls": {"replications": 3, "pilot_samples": 500}}
        rng = RngStream(17, 4)
        for method, fn in ESTIMATORS.items():
            assert fn.__name__ == f"estimate_{method}"
            result = fn(SMALL, 100 if method == "mls" else 2000, rng, **kwargs.get(method, {}))
            assert (result.method, result.seed) == (method, rng.seed)
            assert result.wall_time_s > 0.0


class TestWorkerDeterminism:
    @pytest.fixture(autouse=True)
    def threads_only(self, monkeypatch):
        # blocks run on threads of this process, never on a forked one; a short
        # switch interval interleaves the threads often
        def no_fork():
            raise AssertionError("block dispatch forked a process")

        monkeypatch.setattr(os, "fork", no_fork)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

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

    def test_ce_multilevel_pilot(self):
        # the walk goes on past its pis batch here
        cfg = TestCePilot.WIDE
        a = estimate_ce(cfg, 300_000, RngStream(29), S0=20_000, workers=1)
        b = estimate_ce(cfg, 300_000, RngStream(29), S0=20_000, workers=3)
        assert len(a.diagnostics["trace"]) > 2
        assert (a.p_hat, a.var_hat, a.diagnostics) == (b.p_hat, b.var_hat, b.diagnostics)

    def test_pis_with_a_nominal_block(self):
        # the size-4 block draws from the simplex, the size-1 block from the
        # tilted law at theta = 0, which is the nominal law
        cfg = ChannelConfig(M=5, m=4, mu=1.0, gamma_th=2.0)
        plan = build_partition_plan(cfg)
        assert [b.proposal for b in plan.bounds] == ["simplex", "tilted"]
        assert plan.bounds[1].theta == 0.0
        a = estimate_pis(cfg, 300_000, RngStream(29), workers=1)
        b = estimate_pis(cfg, 300_000, RngStream(29), workers=3)
        assert a.p_hat == b.p_hat
        assert a.var_hat == b.var_hat
        assert a.diagnostics == b.diagnostics

    def test_pis_with_a_tilted_block(self):
        # los: both blocks draw from the law tilted by e^{-0.24 x} and spend
        # a uniform on each row whose sum is below the threshold
        cfg = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        assert all(b.proposal == "tilted" and b.theta > 0.2
                   for b in build_partition_plan(cfg).bounds)
        a = estimate_pis(cfg, 300_000, RngStream(29), workers=1)
        b = estimate_pis(cfg, 300_000, RngStream(29), workers=3)
        assert (a.p_hat, a.var_hat, a.diagnostics) == (b.p_hat, b.var_hat, b.diagnostics)

    def test_mls(self):
        a = estimate_mls(SMALL, 1000, RngStream(30), replications=12,
                         pilot_samples=2000, workers=1)
        b = estimate_mls(SMALL, 1000, RngStream(30), replications=12,
                         pilot_samples=2000, workers=3)
        assert a.p_hat == b.p_hat and a.var_hat == b.var_hat
        assert a.diagnostics == b.diagnostics

    def test_mls_several_replications_per_group(self):
        # 200 chains put several replications in each group, and 45 leaves
        # the last group partial
        assert 1 < estimators.MLS_ROWS // 200 < 45 and 45 % (estimators.MLS_ROWS // 200)
        a = estimate_mls(SMALL, 200, RngStream(30), replications=45,
                         pilot_samples=2000, workers=1)
        b = estimate_mls(SMALL, 200, RngStream(30), replications=45,
                         pilot_samples=2000, workers=3)
        assert a.p_hat == b.p_hat and a.var_hat == b.var_hat
        assert a.work_units == b.work_units
        assert a.diagnostics == b.diagnostics

    def test_blocks_in_order(self):
        # each block draws from its own child stream, counted from `first`,
        # and the blocks' sums are added field by field in block order
        sizes = [estimators.BLOCK_SIZE] * 3 + [1000]
        rng = RngStream(31)

        def kernel(gen, n):
            return n, gen.random()

        rows = draws = 0
        for i, n in enumerate(sizes):
            rows += n
            draws += rng.child(2 + i).generator().random()
        for workers in (1, 3):
            assert estimators._run_blocks(kernel, sum(sizes), rng, workers,
                                          first=2) == (rows, draws)


class TestTabledRatios:
    """ce's and et's ln w read their Bessel terms off specfun's certified tables."""

    # (config, a fitted ce proposal near the one the stage walk ends on)
    CASES = [
        (ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1), CEParams(0.0034, 5.5)),  # subset
        (ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0), CEParams(0.17, 15.1)),  # los
        (TestCePilot.DENSE, CEParams(0.026, 3.6)),
        (ChannelConfig(M=8, m=2, mu=4.0, gamma_th=10.0), CEParams(0.05, 60.0)),
        (ChannelConfig(M=8, m=4, mu=5.0, gamma_th=17.0), CEParams(0.029, 126.0)),
        (ChannelConfig(M=4, m=2, mu=10.0, gamma_th=40.0), CEParams(0.05, 200.0)),
    ]

    @staticmethod
    def bound(x, *laws):
        """_BESSEL_CERT times each row's sum of max(1, sum |ln I0|) + sum |ln f|."""
        bessel = sum(np.abs(log_bessel_i0(np.sqrt(v2 / v1) * np.sqrt(x))) for v1, v2 in laws)
        dens = sum(np.abs(_log_density(x, v1, v2)) for v1, v2 in laws)
        return specfun._BESSEL_CERT * (np.maximum(bessel, 1.0) + dens).sum(axis=1)

    @staticmethod
    def outage_rows(cfg, v, seed):
        x = _scaled_ncx2_rows(v.v1, v.v2, RngStream(seed).generator(), (40_000, cfg.M))
        x = x[estimators._outage(cfg, x)]
        assert x.shape[0] >= 50
        return x

    @pytest.mark.parametrize("cfg,v", CASES)
    def test_ce_ratio_within_certificate(self, cfg, v):
        nominal = CEParams(0.5, 2.0 * cfg.mu[0] ** 2)
        x = self.outage_rows(cfg, v, 71)
        exact = (_log_density(x, nominal.v1, nominal.v2) - _log_density(x, v.v1, v.v2)).sum(axis=1)
        err = np.abs(estimators._ce_log_lr_rows(x, nominal, v) - exact)
        assert np.all(err <= self.bound(x, (nominal.v1, nominal.v2), (v.v1, v.v2)))

    @pytest.mark.parametrize("cfg", [c for c, _ in CASES] + [
        ChannelConfig(M=4, m=2, mu=(0.3, 0.3, 1.5, 1.5), gamma_th=1.0),
        ChannelConfig(M=4, m=2, mu=0.0, gamma_th=1.0),
    ])
    def test_et_ratio_within_certificate(self, cfg):
        rate, mu = cfg.M / cfg.gamma_th, cfg.mu_array
        x = RngStream(72).generator().exponential(1.0 / rate, size=(40_000, cfg.M))
        x = x[estimators._outage(cfg, x)]
        exact = ((_log_density(x, 0.5, 2.0 * mu * mu) + rate * x).sum(axis=1)
                 - cfg.M * math.log(rate))
        err = np.abs(estimators._et_log_lr_rows(cfg, x) - exact)
        assert np.all(err <= self.bound(x, (0.5, 2.0 * mu * mu)))

    def test_rayleigh_and_edge_fits(self):
        # mu = 0 and a fit on the v2 = 0 edge have no Bessel term to read
        x = RngStream(73).generator().uniform(0.0, 1.0, (500, 4))
        for nominal, v in [(CEParams(0.5, 0.0), CEParams(0.3, 0.0)),
                           (CEParams(0.5, 0.0), CEParams(0.2, 3.0)),
                           (CEParams(0.5, 0.5), CEParams(0.3, 0.0))]:
            exact = (_log_density(x, nominal.v1, nominal.v2)
                     - _log_density(x, v.v1, v.v2)).sum(axis=1)
            err = np.abs(estimators._ce_log_lr_rows(x, nominal, v) - exact)
            assert np.all(err <= self.bound(x, (nominal.v1, nominal.v2), (v.v1, v.v2)))

    @pytest.mark.parametrize("runner,kwargs", [(estimate_et, {}), (estimate_ce, {"S0": 5_000})])
    def test_blocks_bit_identical_across_workers(self, runner, kwargs):
        # two sample blocks on los, each reading the same cached table
        cfg = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        size = estimators.BLOCK_SIZE + 5_000
        a = runner(cfg, size, RngStream(74), workers=1, **kwargs)
        b = runner(cfg, size, RngStream(74), workers=2, **kwargs)
        assert a.p_hat > 0.0
        assert (a.p_hat, a.var_hat, a.diagnostics) == (b.p_hat, b.var_hat, b.diagnostics)


def _counts(r):
    """Integer diagnostics: hits, pis proposals, ce stages and fitted rows,
    mls levels, work."""
    d = r.diagnostics
    out = {"work_units": r.work_units}
    for key in ("hit_fraction", "hit_rate"):
        if key in d:
            out["hits"] = round(d[key] * r.samples)
    for key in ("hits", "proposals", "pilot_hits"):
        if key in d:
            out[key] = d[key]
    if "trace" in d:
        out["ce_stages"] = len(d["trace"])
    if "levels" in d:
        out["levels"] = len(d["levels"]) - 1
    return out


class TestReproducibility:
    """Outputs at one seed, pinned so that any change to child-stream
    indices, draw order, reductions or outage decisions fails here."""

    @pytest.mark.parametrize("method,size,kwargs,p_hat,var_hat,counts", [
        ("nmc", 20_000, {}, 0.01045, 0.0103407975,
         {"work_units": 20_000, "hits": 209}),
        ("uis", 20_000, {}, 0.010656547319765336, 0.0002500691256333786,
         {"work_units": 20_000, "hits": 6246}),
        ("pis", 20_000, {}, 0.010683593572068457, 9.103640202184305e-05,
         {"work_units": 20_000, "hits": 11126, "proposals": 70500}),
        ("et", 20_000, {}, 0.010683266318179318, 0.0001518257629254988,
         {"work_units": 20_000, "hits": 13166}),
        ("ce", 20_000, {"S0": 150}, 0.010652774993424182, 0.0001013193180756338,
         {"work_units": 20_300, "hits": 16088, "ce_stages": 3, "pilot_hits": 88}),
        ("mls", 200, {"replications": 4, "pilot_samples": 1_000},
         0.0113750625, 0.003297175759375001,
         {"work_units": 27_400, "levels": 3}),
        ("ce", 20_000, {"S0": 2_000}, 0.010618187660885821, 0.00010985644293087286,
         {"work_units": 22_000, "hits": 16399, "ce_stages": 2, "pilot_hits": 1132}),
    ])
    def test_pinned_outputs(self, method, size, kwargs, p_hat, var_hat, counts):
        # the first ce row's 150 pis rows cannot end the walk: three stages
        self.check(SMALL, method, size, kwargs, p_hat, var_hat, counts)

    MLS = {"replications": 4, "pilot_samples": 1_000}

    @pytest.mark.parametrize("cfg,method,size,kwargs,p_hat,var_hat,counts", [
        (TestOutageScreen.CONFIGS[3], "uis", 20_000, {},
         9.739408477266983e-12, 9.684120983034586e-21, {"work_units": 20_000, "hits": 194}),
        (TestOutageScreen.CONFIGS[3], "mls", 200, MLS,
         4.162965906074546e-12, 4.060594753379071e-20, {"work_units": 181_800, "levels": 16}),
        (TestOutageScreen.CONFIGS[4], "uis", 20_000, {},
         0.0008517270626360318, 0.0008053178823736655, {"work_units": 20_000, "hits": 18}),
        (TestOutageScreen.CONFIGS[4], "mls", 200, MLS,
         0.0009132047203125001, 0.0002919055226344041, {"work_units": 50_000, "levels": 5}),
    ], ids=["subset-uis", "subset-mls", "los-uis", "los-mls"])
    def test_pinned_screen_outputs(self, cfg, method, size, kwargs, p_hat, var_hat, counts):
        # uis and mls decide every row through _outage_at's screen at M = 8,
        # so one flipped decision moves a count or an estimate here
        self.check(cfg, method, size, kwargs, p_hat, var_hat, counts)

    @pytest.mark.parametrize("method,kwargs,p_hat,var_hat,counts", [
        ("pis", {}, 0.0009215847791433612, 9.616713597731355e-06,
         {"work_units": 20_000, "hits": 1623, "proposals": 155_758}),
        ("ce", {"S0": 2_000}, 0.0009140476428410647, 2.430749941115989e-06,
         {"work_units": 24_000, "hits": 13_549, "ce_stages": 3, "pilot_hits": 1263}),
    ], ids=["los-pis", "los-ce"])
    def test_pinned_tilted_outputs(self, method, kwargs, p_hat, var_hat, counts):
        # every pis block on los is tilted, and ce's first batch is pis rows,
        # so a change to the tilted draw order fails here
        self.check(TestOutageScreen.CONFIGS[4], method, 20_000, kwargs, p_hat, var_hat, counts)

    @staticmethod
    def check(cfg, method, size, kwargs, p_hat, var_hat, counts):
        r = ESTIMATORS[method](cfg, size, RngStream(2024), **kwargs)
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
        monkeypatch.setattr(estimators, "_pis_rows", no_sampling)
        with pytest.raises(TruncationUnderflowError, match="ell2 underflows"):
            estimate_ce(self.config(1e-40), 1000, RngStream(1))
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
