"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Reference probabilities are benchmark values for the standard 8-branch
configurations, cross-validated here by three independent estimators whose
relative errors at these sample counts are 0.15-0.35 percent; each test
prints an ``ACCEPTANCE`` line (run with -s to see them when green).

The large-mean rejection constants are checked against the bound's
definition, not against quoted numbers.  Partition sampling is exact only
if M_ell >= sup f/g on the whole solid simplex (Devroye, Non-Uniform Random
Variate Generation, 1986, II.3).  The branch density is log-concave, so the
supremum sits at equal coordinates min(mode, gamma / n); evaluated with
scipy alone it is 7.75 at mu 2.3 and 21.8 at mu 3 (n 4, gamma 17), and
compute_m_ell equals it; the paper's near-mode formula gives 8.98 and
392.06 above it.  The quoted constants 6.15 and 313.6 equal that formula
times exp(-n / (2 mu^2)); 6.15 lies below the supremum (about 0.5 percent
of proposals exceed it), so a sampler using it would be biased, and neither
quote is a target.  The observed mean trials-to-acceptance of the simplex
proposal equal M_ell for any valid constant, so they confirm the
normalizer F, not the value of the constant.

A nearby caution: the splitting estimator's work-normalized SCV (~7.6e2)
sits only ~10 percent below the per-branch selection sampler's (~8.5e2);
the tier separation between those two is measured at about 4 standard
errors here, far less dramatic than their wall-time gap in unvectorized
implementations.

Run: pytest tests/test_acceptance.py -v -s
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from outagemc.estimators import (
    estimate_ce,
    estimate_et,
    estimate_mls,
    estimate_pis,
    estimate_uis,
)
from conftest import PAPER_REJECTION_C, log_m_ell_asymptotic, log_m_ell_paper
from outagemc.experiment import run_method
from outagemc.metrics import relative_error, scv
from outagemc.model import ChannelConfig, closed_form_outage
from outagemc.samplers import (
    RngStream,
    _pis_block_rows,
    compute_m_ell,
)
from outagemc.cli import main as cli_main

SEED = 20240601

DENSE = ChannelConfig(M=8, m=4, mu=0.5, gamma_th=1.0)
SMALL = ChannelConfig(M=3, m=2, mu=0.5, gamma_th=0.5)
EDGE_MIN = ChannelConfig(M=4, m=1, mu=0.7, gamma_th=0.8)
EDGE_MAX = ChannelConfig(M=4, m=4, mu=0.6, gamma_th=2.0)

# benchmark outage probabilities (consensus of three sub-percent estimators)
P_GAMMA_1 = 9.22e-6
P_GAMMA_05 = 5.56e-8
P_RARER = {0.4: 1.02e-8, 0.3: 1.11e-9, 0.2: 4.73e-11}
P_SMALL_SUBSET = 9.05e-12          # M=8, m=2, gamma 0.1
P_LARGE_MEAN = 9.0e-4              # gamma 17, mu 2.3
P_LARGE_MEAN_3 = 1.07e-8           # gamma 17, mu 3
QUOTED_BOUND_CONSTANTS = (6.15, 313.6)   # not targets, see module docstring


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")


def se_of(result):
    return math.sqrt(result.var_hat / result.samples)


@pytest.fixture(scope="module")
def mls_ranking_run():
    return estimate_mls(DENSE, 300, RngStream(SEED, 910), replications=2500,
                        target_cond_prob=0.2, pilot_samples=10_000)


class TestCriterion01TableBenchmark:
    def test_dense_benchmark_reproduction(self):
        t0 = time.perf_counter()
        failures = []
        details = []
        for gamma, ref in ((1.0, P_GAMMA_1), (0.5, P_GAMMA_05)):
            cfg = DENSE.replace(gamma_th=gamma)
            sid = 0 if gamma == 1.0 else 10
            runs = {
                "pis": estimate_pis(cfg, 10 ** 6, RngStream(SEED, sid + 1)),
                "et": estimate_et(cfg, 10 ** 6, RngStream(SEED, sid + 2)),
                "ce": estimate_ce(cfg, 10 ** 6, RngStream(SEED, sid + 3)),
            }
            for name, r in runs.items():
                rel = abs(r.p_hat / ref - 1.0)
                details.append(f"{name}@{gamma}: {r.p_hat:.4e} ({rel * 100:.2f}%)")
                if rel > 0.01:
                    failures.append(details[-1])
            uis = estimate_uis(cfg, 5 * 10 ** 6, RngStream(SEED, sid + 4))
            dev = abs(uis.p_hat - ref)
            details.append(f"uis@{gamma}: {uis.p_hat:.4e}")
            if dev > 4.0 * se_of(uis):
                failures.append(details[-1])
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed <= 120.0
        report("01 dense benchmark", ok, f"{'; '.join(details)}; {elapsed:.0f}s")
        assert not failures, failures
        assert elapsed <= 120.0, f"budget exceeded: {elapsed:.0f}s"


class TestCriterion02RarerThresholds:
    def test_three_thresholds_within_two_percent(self):
        failures = []
        details = []
        for i, (gamma, ref) in enumerate(sorted(P_RARER.items(), reverse=True)):
            cfg = DENSE.replace(gamma_th=gamma)
            runs = {
                "pis": estimate_pis(cfg, 10 ** 6, RngStream(SEED, 20 + 3 * i)),
                "et": estimate_et(cfg, 10 ** 6, RngStream(SEED, 21 + 3 * i)),
                "ce": estimate_ce(cfg, 10 ** 6, RngStream(SEED, 22 + 3 * i)),
            }
            for name, r in runs.items():
                rel = abs(r.p_hat / ref - 1.0)
                details.append(f"{name}@{gamma}: {rel * 100:.2f}%")
                if rel > 0.02:
                    failures.append(f"{name}@{gamma}: {r.p_hat:.4e} vs {ref:.4e}")
        report("02 rarer thresholds", not failures, "; ".join(details))
        assert not failures, failures


class TestCriterion03SmallSubset:
    def test_probability_and_tilting_deterioration(self):
        cfg = ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1)
        pis = estimate_pis(cfg, 10 ** 6, RngStream(SEED, 40))
        ce = estimate_ce(cfg, 10 ** 6, RngStream(SEED, 41))
        et = estimate_et(cfg, 10 ** 6, RngStream(SEED, 42))
        rel_pis = abs(pis.p_hat / P_SMALL_SUBSET - 1.0)
        rel_ce = abs(ce.p_hat / P_SMALL_SUBSET - 1.0)
        ratio = relative_error(et) / relative_error(pis)
        ok = rel_pis <= 0.03 and rel_ce <= 0.03 and ratio >= 5.0
        report("03 small subset", ok,
               f"pis {pis.p_hat:.4e} ({rel_pis * 100:.2f}%), "
               f"ce {ce.p_hat:.4e} ({rel_ce * 100:.2f}%), "
               f"ET/PIS RE ratio {ratio:.1f}x, ET hit rate "
               f"{et.diagnostics['hit_rate']:.3f}")
        assert rel_pis <= 0.03
        assert rel_ce <= 0.03
        assert ratio >= 5.0


class TestCriterion04LargeMeans:
    def test_probabilities(self):
        cfg23 = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)
        cfg30 = ChannelConfig(M=8, m=4, mu=3.0, gamma_th=17.0)
        pis = estimate_pis(cfg23, 10 ** 6, RngStream(SEED, 50))
        ce23 = estimate_ce(cfg23, 10 ** 6, RngStream(SEED, 51))
        # the tilted estimator's RE here is a few percent at 1e6, so it gets
        # a larger budget to make the 3 percent window a >3-sigma statement
        et = estimate_et(cfg23, 10 ** 7, RngStream(SEED, 52))
        ce30 = estimate_ce(cfg30, 10 ** 6, RngStream(SEED, 53))
        rels = {
            "pis@2.3": abs(pis.p_hat / P_LARGE_MEAN - 1.0),
            "et@2.3": abs(et.p_hat / P_LARGE_MEAN - 1.0),
            "ce@2.3": abs(ce23.p_hat / P_LARGE_MEAN - 1.0),
            "ce@3.0": abs(ce30.p_hat / P_LARGE_MEAN_3 - 1.0),
        }
        ok = all(v <= 0.03 for v in rels.values())
        report("04 large means (probabilities)", ok,
               "; ".join(f"{k} {v * 100:.2f}%" for k, v in rels.items()))
        assert ok, rels

    def test_rejection_bound_constants(self, log_sup_density_ratio,
                                       log_best_simplex_density_ratio):
        # judged by the bound's definition (see module docstring); every
        # reference below comes from scipy, not from outagemc.specfun
        n, gamma = 4, 17.0
        failures = []
        details = []
        sups = {}
        bests = {}
        for i, (mu, count) in enumerate(((2.3, 30_000), (3.0, 3_000))):
            bound = replace(compute_m_ell(mu, n, gamma), proposal="simplex")
            log_sup = log_sup_density_ratio(mu, n, gamma)
            sups[mu] = math.exp(log_sup)
            # the reference is the supremum: no proposal exceeds it and the
            # best of 1e6 comes close
            best = log_best_simplex_density_ratio(mu, n, gamma, 1_000_000,
                                                  SEED + i)
            bests[mu] = math.exp(best)
            # the paper's branch 3: [2 gamma C max(f(0), f(A_mu))]^n / (n! F);
            # f(0) = exp(-lam / 2) / 2 in closed form, since scipy's ncx2
            # pdf reads 0 at the origin
            lam = 2.0 * mu * mu
            a_mu = lam - 2.0 + 2.0 / lam
            log_peak = max(stats.ncx2.logpdf(a_mu, 2, lam),
                           -math.log(2.0) - lam / 2.0)
            log_paper, case = log_m_ell_paper(mu, n, gamma)
            log_formula = (n * (math.log(2.0 * gamma * PAPER_REJECTION_C) + log_peak)
                           - special.gammaln(n + 1)
                           - stats.ncx2.logcdf(2.0 * gamma, 2 * n, n * lam))
            _, proposals = _pis_block_rows(mu, n, gamma,
                                           RngStream(SEED, 54 + i).generator(),
                                           count, bound=bound)
            trials = proposals / count
            z = (trials - bound.value) / math.sqrt(
                bound.value * (bound.value - 1.0) / count)
            details.append(
                f"mu={mu}: M_ell {bound.value:.2f} >= sup f/g {sups[mu]:.2f} "
                f"(best proposal {bests[mu]:.2f}), paper's formula "
                f"{math.exp(log_paper):.2f}, trials {trials:.2f} (z {z:+.2f})")
            if bound.log_value < log_sup - 1e-9:
                failures.append(f"mu={mu}: M_ell below sup f/g")
            if not log_sup - math.log(1.05) <= best <= log_sup + 1e-9:
                failures.append(f"mu={mu}: reference is not the supremum")
            if (case != "large_mean_large_gamma"
                    or abs(math.expm1(log_paper - log_formula)) > 0.01):
                failures.append(f"mu={mu}: paper's constant off its branch-3 formula")
            if abs(z) > 4.0:
                failures.append(f"mu={mu}: trials-to-acceptance off M_ell")
        # the recorded reason the quotes are not targets: a proposal whose
        # f/g exceeds the quoted 6.15 witnesses that it is below the supremum
        if not QUOTED_BOUND_CONSTANTS[0] < bests[2.3] <= sups[2.3]:
            failures.append("quoted 6.15 no longer below sup f/g")
        report("04 large means (bound constants)", not failures,
               "; ".join(details) + f"; quoted {QUOTED_BOUND_CONSTANTS[0]} "
               f"< best proposal {bests[2.3]:.2f} <= sup {sups[2.3]:.2f}")
        assert not failures, failures


class TestCriterion05OracleEquivalence:
    def test_all_estimators_against_references(self):
        t0 = time.perf_counter()
        failures = []
        hyper = {"rho": 0.1, "s0": 20_000, "mls_replications": 50,
                 "mls_target_cond_prob": 0.2, "mls_pilot_samples": 5000}
        sid = 60
        for cfg in (SMALL, EDGE_MIN, EDGE_MAX):
            exact = closed_form_outage(cfg)
            for name in ("nmc", "uis", "pis", "et", "ce", "mls"):
                S = {"nmc": 10 ** 6, "mls": 3000}.get(name, 2 * 10 ** 5)
                r = run_method(name, cfg, S, RngStream(SEED, sid), hyper)
                sid += 1
                dev, allowed = abs(r.p_hat - exact), 4.0 * se_of(r) + 1e-12
                if dev > allowed:
                    failures.append(f"{name} vs exact m={cfg.m}/{cfg.M}: "
                                    f"dev {dev:.3e} > {allowed:.3e}")
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed <= 300.0
        report("05 oracle equivalence", ok,
               f"18 comparisons with exact values, {elapsed:.0f}s")
        assert not failures, failures
        assert elapsed <= 300.0, f"budget exceeded: {elapsed:.0f}s"


class TestCriterion06ClosedFormVariance:
    def test_selection_sampler_variances(self):
        p_ref = closed_form_outage(SMALL)
        failures = []
        details = []
        for name, sid in (("uis", 70), ("pis", 71)):
            fn = estimate_uis if name == "uis" else estimate_pis
            r = fn(SMALL, 10 ** 6, RngStream(SEED, sid))
            ell = r.diagnostics["ell1" if name == "uis" else "ell2"]
            q = r.diagnostics["hit_fraction"]
            n = r.samples
            sample_var = ell * ell * q * (1.0 - q) * n / (n - 1)
            formula = ell * p_ref - p_ref * p_ref
            rel = abs(sample_var / formula - 1.0)
            details.append(f"{name}: rel {rel * 100:.2f}%")
            if rel > 0.05:
                failures.append(f"{name}: {sample_var:.4e} vs {formula:.4e}")
        report("06 closed-form variance", not failures, "; ".join(details))
        assert not failures, failures


class TestCriterion07BoundedRelativeError:
    def test_scv_flat_as_threshold_shrinks(self):
        grid = (0.4, 0.3, 0.2, 0.1)
        scvs = {"et": [], "pis": []}
        for i, gamma in enumerate(grid):
            cfg = DENSE.replace(gamma_th=gamma)
            scvs["et"].append(scv(estimate_et(cfg, 2 * 10 ** 5,
                                              RngStream(SEED, 80 + 2 * i))))
            scvs["pis"].append(scv(estimate_pis(cfg, 2 * 10 ** 5,
                                                RngStream(SEED, 81 + 2 * i))))
        spreads = {k: max(v) / min(v) for k, v in scvs.items()}
        ok = all(s <= 2.0 for s in spreads.values())
        report("07 bounded relative error (flatness)", ok,
               f"et spread {spreads['et']:.2f}x over {grid}, "
               f"pis spread {spreads['pis']:.2f}x")
        assert ok, (scvs, spreads)

    def test_asymptotic_bound_agreement(self):
        # the asymptote is the paper's constant's, not the supremum's
        exact = log_m_ell_paper(40.0, 4, 1.0)[0]
        asym = log_m_ell_asymptotic(40.0, 4, 1.0)
        rel = abs(exact / asym - 1.0)
        report("07 bounded relative error (asymptote)", rel <= 0.03,
               f"log bound {exact:.2f} vs asymptote {asym:.2f} ({rel * 100:.3f}%)")
        assert rel <= 0.03


class TestCriterion08RejectionSoundness:
    def test_grid_spanning_all_branches(self):
        # the simplex proposal on a grid spanning the paper's three branches
        grid = [
            (0.5, 4, 1.0, 400_000),    # small_mean
            (0.0, 1, 1.0, 150_000),    # small_mean, single coordinate
            (1.6, 2, 1.0, 100_000),    # large_mean_small_gamma
            (2.3, 4, 17.0, 30_000),    # large_mean_large_gamma
        ]
        cases = set()
        total_proposals = 0
        failures = []
        details = []
        for i, (mu, n, gamma, count) in enumerate(grid):
            bound = replace(compute_m_ell(mu, n, gamma), proposal="simplex")
            cases.add(log_m_ell_paper(mu, n, gamma)[1])
            # any bound violation raises inside the sampler
            _, proposals = _pis_block_rows(mu, n, gamma,
                                           RngStream(SEED, 90 + i).generator(),
                                           count, bound=bound)
            total_proposals += proposals
            rate = count / proposals
            rel = abs(rate * bound.value - 1.0)
            details.append(f"mu={mu},n={n}: rate {rate:.4f} vs 1/M {1 / bound.value:.4f}")
            if rel > 0.05:
                failures.append(details[-1])
        ok = (not failures and len(cases) == 3 and total_proposals >= 10 ** 6)
        report("08 rejection soundness", ok,
               f"{total_proposals} proposals, zero violations; " + "; ".join(details))
        assert len(cases) == 3
        assert total_proposals >= 10 ** 6
        assert not failures, failures


class TestCriterion09Determinism:
    def test_sweep_byte_identical_across_workers(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(
            "[channel]\nM = 8\nm = 4\nmu = 0.5\ngamma_th = 1.0\n\n"
            "[run]\nmethods = pis, et, ce\nsamples = 300000\nseed = 31415\n\n"
            "[sweep]\naxis = gamma_th\nvalues = 1.0, 0.5\n\n"
            "[hyper]\ns0 = 50000\n")
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert cli_main(["sweep", str(spec), "--out-dir", str(out1),
                         "--workers", "1"]) == 0
        assert cli_main(["sweep", str(spec), "--out-dir", str(out2),
                         "--workers", "2"]) == 0
        b1 = (out1 / "sweep_scv.csv").read_bytes()
        b2 = (out2 / "sweep_scv.csv").read_bytes()
        report("09 worker determinism", b1 == b2,
               f"{len(b1)} bytes, workers 1 vs 2")
        assert b1 == b2


@pytest.fixture(scope="module")
def measured(mls_ranking_run):
    """Work-normalized SCV of every method with a standard error.

    Replicated runs give each tier value a standard error; the ranking tests
    require adjacent distinct tiers to separate by 3 combined SEs.
    """
    reps = 8
    vals = {"ce": [], "et": [], "pis": []}
    for k in range(reps):
        vals["ce"].append(scv(estimate_ce(DENSE, 10 ** 5,
                                          RngStream(SEED, 100 + k), S0=50_000)))
        vals["et"].append(scv(estimate_et(DENSE, 10 ** 5,
                                          RngStream(SEED, 110 + k))))
        vals["pis"].append(scv(estimate_pis(DENSE, 10 ** 5,
                                            RngStream(SEED, 120 + k))))
    vals["uis"] = [scv(estimate_uis(DENSE, 10 ** 6, RngStream(SEED, 130 + k)))
                   for k in range(4)]
    out = {k: (float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v))))
           for k, v in vals.items()}
    r = mls_ranking_run
    mls_scv = scv(r)
    out["mls"] = (mls_scv,
                  mls_scv * math.sqrt(2.0 / (r.diagnostics["replications"] - 1)))
    out["nmc"] = ((1.0 - P_GAMMA_1) / P_GAMMA_1, 0.0)
    return out


class TestCriterion10MethodRanking:
    """SCV tier ordering on the dense benchmark, at 3-SE separation."""

    @staticmethod
    def _sep(lo, hi):
        return (hi[0] - lo[0]) / math.sqrt(lo[1] ** 2 + hi[1] ** 2 + 1e-30)

    def test_best_three_tiers(self, measured):
        m = measured
        sep_ce = self._sep(m["ce"], min((m["et"], m["pis"])))
        worst_is = max((m["et"], m["pis"]))
        sep_mls = self._sep(worst_is, m["mls"])
        ok = sep_ce >= 3.0 and sep_mls >= 3.0
        report("10 ranking (ce < et~pis << mls)", ok,
               f"ce {m['ce'][0]:.2f}, et {m['et'][0]:.2f}, pis {m['pis'][0]:.2f}, "
               f"mls {m['mls'][0]:.0f}; separations {sep_ce:.1f} and {sep_mls:.1f} SE")
        assert sep_ce >= 3.0
        assert sep_mls >= 3.0

    def test_uis_below_naive(self, measured):
        m = measured
        sep = self._sep(m["uis"], m["nmc"])
        report("10 ranking (uis < nmc)", sep >= 3.0,
               f"uis {m['uis'][0]:.0f} vs nmc {m['nmc'][0]:.0f}; {sep:.1f} SE")
        assert sep >= 3.0

    def test_mls_uis_separation(self, measured):
        # the true gap here is modest (~10 percent), so the budgets above are
        # sized to resolve it: 2500 splitting replications and 4e6 selection
        # samples put the combined SE near a quarter of the gap
        m = measured
        sep = self._sep(m["mls"], m["uis"])
        report("10 ranking (mls << uis)", sep >= 3.0,
               f"mls {m['mls'][0]:.0f} +- {m['mls'][1]:.0f} vs "
               f"uis {m['uis'][0]:.0f} +- {m['uis'][1]:.0f}; {sep:.1f} SE")
        assert sep >= 3.0, (m["mls"], m["uis"], sep)
