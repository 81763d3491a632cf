"""Benchmark workloads: channel configurations, run sizes and references.

Every workload drives the public API only: the ``estimate_*`` functions,
``ChannelConfig``, ``RngStream`` and ``verify_oracles``.  Sizes are fixed
per call so that a run's inputs depend only on the seed and the pass
index; the number of passes a run makes depends on the time budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import outagemc
from outagemc import ChannelConfig, RngStream
from outagemc.experiment import verify_oracles

SUBSET = ChannelConfig(M=8, m=2, mu=0.5, gamma_th=0.1)
LOS = ChannelConfig(M=8, m=4, mu=2.3, gamma_th=17.0)

# Consensus values pinned in the acceptance suite.  They are printed to
# the digits below, so half a unit of the last printed digit is taken as
# the reference's own standard error.
REFERENCES = {
    SUBSET: (9.05e-12, 0.005e-12),
    LOS: (9.0e-4, 0.05e-4),
}
N_SE = 4.0

CE_S0 = 20_000
MLS_PILOT = 2_000


@dataclass(frozen=True)
class Call:
    """One timed estimator call with one worker.

    ``size`` is S, or chains per level for mls; ``pilot`` is S0 for ce and
    pilot_samples for mls, 0 picking the size the timed calls use.
    """

    method: str
    config: ChannelConfig
    size: int
    replications: int = 0
    pilot: int = 0

    def run(self, seed: int, stream: int):
        rng = RngStream(seed, stream)
        fn = getattr(outagemc, "estimate_" + self.method)
        if self.method == "ce":
            return fn(self.config, self.size, rng, S0=self.pilot or CE_S0)
        if self.method == "mls":
            return fn(self.config, self.size, rng, replications=self.replications,
                      pilot_samples=self.pilot or MLS_PILOT)
        return fn(self.config, self.size, rng)


@dataclass(frozen=True)
class Workload:
    calls: tuple
    warmup: tuple
    oracle: bool = False


def _calls(config, nmc=0, uis=0, pis=0, et=0, ce=0, mls_reps=0):
    sizes = (("nmc", nmc), ("uis", uis), ("pis", pis), ("et", et), ("ce", ce))
    out = [Call(m, config, n) for m, n in sizes if n]
    if mls_reps:
        out.append(Call("mls", config, 300, replications=mls_reps))
    return tuple(out)


def _tiny(configs):
    """Smallest calls that still take every table-building path.

    uis at 2048 rows reaches the 8192-point threshold at which the quantile
    seed grid is built; pis builds the partition plan; uis and mls fill the
    Poisson mixture windows; ce loads the optimizer.
    """
    out = []
    for c in configs:
        out += [Call("uis", c, 2048), Call("pis", c, 256),
                Call("ce", c, 1000, pilot=1000),
                Call("mls", c, 10, replications=2, pilot=100)]
    return tuple(out)


WORKLOADS = {
    "subset": Workload(
        _calls(SUBSET, uis=100_000, pis=100_000, ce=100_000, mls_reps=240),
        warmup=_tiny([SUBSET])),
    "los": Workload(
        _calls(LOS, nmc=200_000, uis=100_000, pis=50_000, et=200_000,
               ce=100_000, mls_reps=150),
        warmup=_tiny([LOS]), oracle=True),
}

# The oracle suite runs only in the traced run of a workload flagged
# ``oracle``: it is the one caller that opens process pools, so it carries
# the dispatch and experiment layers.  verify_oracles uses these configs.
ORACLE_WORKERS = 2
ORACLE_WARMUP = _tiny([
    ChannelConfig(M=4, m=1, mu=0.7, gamma_th=0.8),
    ChannelConfig(M=4, m=4, mu=0.6, gamma_th=2.0),
    ChannelConfig(M=3, m=2, mu=0.5, gamma_th=0.5),
])


def warm_up(calls, seed: int) -> None:
    """Fill the lazily built tables that the given calls' configs use."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, call in enumerate(calls):
            call.run(seed, 900_000 + i)


def check_valid(result) -> str:
    """Empty string if the call returned an estimate at all, else why not."""
    if not (math.isfinite(result.p_hat) and math.isfinite(result.var_hat)):
        return "not finite"
    if result.p_hat <= 0.0:
        return "p_hat = 0"
    if result.var_hat <= 0.0:
        return "var_hat = 0"
    return ""


def pooled(recs) -> tuple:
    """(p, var, samples) of the sample-weighted mean of independent calls.

    ``var`` is per sample, like ``var_hat``: var / samples is the variance
    of the pooled p.
    """
    n = sum(r["samples"] for r in recs)
    p = sum(r["p"] * r["samples"] for r in recs) / n
    var = sum(r["var"] * r["samples"] for r in recs) / n
    return p, var, n


def z_score(config: ChannelConfig, p: float, var: float, samples: int) -> float:
    """Distance from the reference in combined standard errors."""
    ref, ref_se = REFERENCES[config]
    return (p - ref) / math.sqrt(var / samples + ref_se * ref_se)


def check_pooled(config: ChannelConfig, recs) -> str:
    """Empty string if the calls' pooled estimate is within N_SE of the reference."""
    p, var, n = pooled(recs)
    z = z_score(config, p, var, n)
    if abs(z) > N_SE:
        return (f"pooled p={p:.4e} over {len(recs)} call(s) is {z:+.2f} SE "
                f"from ref={REFERENCES[config][0]:.4e}")
    return ""


def run_oracles(seed: int) -> tuple:
    """(failure messages, number of checks) of the built-in oracle suite."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = verify_oracles(seed=seed, workers=ORACLE_WORKERS)
    fails = [f"{c['check']}: {c['detail']}" for c in checks if not c["passed"]]
    return fails, len(checks)
