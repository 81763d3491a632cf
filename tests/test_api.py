"""The public API, pinned: adding or removing a public name is a reviewed diff."""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outagemc

PUBLIC = [
    "CeAdaptationError", "ChannelConfig", "EfficiencyReport",
    "EstimateResult", "MellBound", "MlsSchedule", "Ncx2Params",
    "RejectionStalledError", "RngStream", "TruncationUnderflowError",
    "closed_form_outage", "compute_m_ell", "efficiency_report",
    "estimate_ce", "estimate_et", "estimate_mls", "estimate_nmc",
    "estimate_pis", "estimate_uis", "log_bessel_i0", "mls_pilot_levels",
    "ncx2_cdf", "ncx2_logcdf", "ncx2_quantile", "relative_error", "scv",
    "wnrv", "wnrv_work",
]

_HEAD = "config: 'ChannelConfig', S: 'int', rng: 'RngStream'"
_TAIL = "workers: 'int' = 1) -> 'EstimateResult'"
SIGNATURES = {
    "estimate_nmc": f"({_HEAD}, {_TAIL}",
    "estimate_uis": f"({_HEAD}, {_TAIL}",
    "estimate_pis": f"({_HEAD}, {_TAIL}",
    "estimate_et": f"({_HEAD}, {_TAIL}",
    "estimate_ce": f"({_HEAD}, S0: 'int' = 100000, rho: 'float' = 0.1, {_TAIL}",
    "estimate_mls": ("(config: 'ChannelConfig', s: 'int', rng: 'RngStream', "
                     "schedule='auto', replications: 'int' = 50, "
                     "target_cond_prob: 'float' = 0.2, pilot_samples: 'int' = 10000, "
                     f"{_TAIL}"),
}

MELL_BOUND_FIELDS = ["value", "log_value", "proposal", "block_mu", "block_size",
                     "log_block_cdf", "theta", "log_chernoff"]


def test_every_public_name_resolves():
    for name in outagemc.__all__:
        assert getattr(outagemc, name) is not None, name


def test_public_names_pinned():
    assert sorted(outagemc.__all__) == PUBLIC
    assert len(set(outagemc.__all__)) == len(outagemc.__all__)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_estimator_signatures_pinned(name):
    assert str(inspect.signature(getattr(outagemc, name))) == SIGNATURES[name]


def test_mell_bound_fields_pinned():
    fields = [f.name for f in dataclasses.fields(outagemc.MellBound)]
    assert fields == MELL_BOUND_FIELDS


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize costs about 0.2 s of every import and the package needs none of it
    # the child imports outagemc from wherever this process does
    code = "import sys, outagemc; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


def test_benchmark_probes_resolve(monkeypatch):
    # the benchmark's tracer wraps private functions by name, and a probe
    # whose target moved reads "absent"; load it without writing bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, home, attr in tracer.PROBES:
        target = getattr(importlib.import_module(f"outagemc.{home}"), attr, None)
        assert callable(target), f"{home}.{attr}"
    cfg = outagemc.ChannelConfig(M=3, m=2, mu=0.5, gamma_th=0.5)
    with tracer.Tracer() as tr, tr.top("mls"):
        outagemc.estimate_mls(cfg, 100, outagemc.RngStream(1), replications=3,
                              pilot_samples=500)
    assert tr.absent == []
    assert tr.counts["mls.levels"] > 0 and tr.counts["gsc.rows"] > 0
