"""Batch experiment harness: spec files, runs, sweeps, verification.

A spec file is flat INI text:

    [channel]
    M = 8
    m = 4
    mu = 0.5            ; scalar broadcast, or comma list of length M
    gamma_th = 1.0

    [run]
    methods = pis, et, ce
    samples = 1000000
    seed = 20240601

    [samples]           ; optional per-method overrides
    uis = 5000000
    mls = 20000         ; per-level chain count for the splitting estimator

    [sweep]             ; optional
    axis = gamma_th     ; or mu
    values = 1.0, 0.5

    [hyper]             ; optional
    rho = 0.1           ; ce's level for batches drawn from a proposal
    s0 = 100000         ; ce's pilot rows, per batch
    mls_replications = 50
    mls_target_cond_prob = 0.2
    mls_pilot_samples = 10000

Each run writes a CSV (4-significant-digit scientific notation) and a JSON
sidecar with full-precision values and per-method diagnostics.  All columns
except wall_time_s and wnrv_time are byte-reproducible for a fixed seed,
independent of the worker count.
"""

from __future__ import annotations

import configparser
import csv
import inspect
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import estimators as est
from . import metrics
from .model import ChannelConfig, EstimateResult, closed_form_outage
from .samplers import RngStream

CSV_COLUMNS = ["method", "M", "m", "mu", "gamma_th", "S", "p_hat", "var_hat",
               "re_pct", "scv", "wnrv_time", "wnrv_work", "wall_time_s",
               "seed", "warnings"]
SWEEP_COLUMNS = ["axis_value", "method", "scv"]

METHODS = tuple(est.ESTIMATORS)

# every [hyper] key: the method it reaches and its keyword there, whose
# default and least value (est.LEAST) are the key's own; the sidecar's hyper
# keeps this key order
_HYPER_ARGS = {
    "rho": ("ce", "rho"),
    "s0": ("ce", "S0"),
    "mls_replications": ("mls", "replications"),
    "mls_target_cond_prob": ("mls", "target_cond_prob"),
    "mls_pilot_samples": ("mls", "pilot_samples"),
}
DEFAULT_HYPER = {key: inspect.signature(est.ESTIMATORS[method]).parameters[kw].default
                 for key, (method, kw) in _HYPER_ARGS.items()}


class SpecError(ValueError):
    """Experiment spec failed to parse or validate."""


@dataclass
class ExperimentSpec:
    config: ChannelConfig
    methods: tuple
    samples: dict
    seed: int
    sweep_axis: str = None
    sweep_values: tuple = ()
    hyper: dict = field(default_factory=dict)  # missing keys take DEFAULT_HYPER's

    def __post_init__(self):
        if self.seed < 0:
            raise SpecError(f"run.seed must be >= 0, got {self.seed}")
        if not self.methods:
            raise SpecError("run.methods must list at least one method")
        bad = [m for m in dict.fromkeys((*self.methods, *self.samples)) if m not in METHODS]
        if bad:
            raise SpecError(f"unknown method(s) {bad}; choose from {METHODS}")
        bad = [m for m in self.methods if m not in self.samples]
        if bad:
            raise SpecError(f"method(s) {bad} have no sample count in samples")
        bad = [key for key in self.hyper if key not in _HYPER_ARGS]
        if bad:
            raise SpecError(f"unknown hyper key(s) {bad}; choose from {tuple(_HYPER_ARGS)}")
        self.hyper = {key: self.hyper.get(key, DEFAULT_HYPER[key]) for key in _HYPER_ARGS}
        for meth, n in self.samples.items():  # the size is each method's first minimum
            est._check_least(f"samples.{meth}", n, next(iter(est.LEAST[meth].values())),
                             SpecError)
        for key, (meth, kw) in _HYPER_ARGS.items():
            est._check_least(f"hyper.{key}", self.hyper[key], est.LEAST[meth][kw], SpecError)
        if self.sweep_axis is None and self.sweep_values:
            raise SpecError("sweep.values needs sweep.axis (gamma_th or mu)")
        if self.sweep_axis is not None:
            if self.sweep_axis not in ("gamma_th", "mu"):
                raise SpecError("sweep.axis must be gamma_th or mu")
            vals = tuple(float(v) for v in self.sweep_values)
            if not vals:
                raise SpecError("sweep.values must be nonempty")
            for v in vals:  # ChannelConfig's own checks: mu >= 0, gamma_th > 0
                try:
                    self.config.replace(**{self.sweep_axis: v})
                except ValueError as exc:
                    raise SpecError(f"invalid sweep.values {v!r}: {exc}") from None
            if list(vals) != sorted(vals) and list(vals) != sorted(vals, reverse=True):
                raise SpecError("sweep.values must be sorted")
            self.sweep_values = vals


def _float_list(raw: str):
    return [float(v) for v in raw.replace(",", " ").split()]


def _str_list(raw: str):
    return [v.strip() for v in raw.replace(",", " ").split() if v.strip()]


# every spec key and the cast of its value; no other section or key is accepted
_SPEC_KEYS = {
    "channel": {"M": int, "m": int, "mu": _float_list, "gamma_th": float},
    "run": {"methods": _str_list, "samples": int, "seed": int},
    "samples": dict.fromkeys(METHODS, int),
    "sweep": {"axis": str, "values": _float_list},
    "hyper": {key: type(value) for key, value in DEFAULT_HYPER.items()},
}
_REQUIRED_KEYS = ("M", "m", "mu", "gamma_th", "methods")


def load_spec(path) -> ExperimentSpec:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keys are case-sensitive (M vs m)
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise SpecError(f"spec parse error: {exc}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise SpecError(f"cannot read spec file {path}: {exc}")
    for key in parser.defaults():  # configparser would copy it into every section
        raise SpecError(f"unknown key {key!r} in section [DEFAULT]")
    for section in parser.sections():
        if section not in _SPEC_KEYS:
            raise SpecError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SPEC_KEYS[section]:
                raise SpecError(f"unknown key {key!r} in section [{section}]")
    got = {section: {} for section in _SPEC_KEYS}
    for section, casts in _SPEC_KEYS.items():
        for key, cast in casts.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    got[section][key] = cast(raw)
                except ValueError as exc:
                    raise SpecError(f"invalid value for [{section}] {key}: {raw!r} ({exc})")
            elif key in _REQUIRED_KEYS:
                raise SpecError(f"missing required key [{section}] {key}")
    try:
        config = ChannelConfig(**got["channel"])
    except ValueError as exc:
        raise SpecError(f"invalid [channel] section: {exc}")
    run, sweep = got["run"], got["sweep"]
    methods = tuple(run["methods"])
    return ExperimentSpec(
        config=config, methods=methods,
        samples=dict.fromkeys(methods, run.get("samples", 100_000)) | got["samples"],
        seed=run.get("seed", 0), sweep_axis=sweep.get("axis"),
        sweep_values=tuple(sweep.get("values", ())), hyper=got["hyper"])


def _sweep_configs(spec: ExperimentSpec):
    if spec.sweep_axis is None:
        return [(None, spec.config)]
    # both axes are ChannelConfig fields, and a scalar mu sets every branch
    return [(v, spec.config.replace(**{spec.sweep_axis: v})) for v in spec.sweep_values]


def run_method(method: str, config: ChannelConfig, S: int, rng: RngStream,
               hyper: dict, workers: int = 1) -> EstimateResult:
    kwargs = {kw: hyper[key] for key, (meth, kw) in _HYPER_ARGS.items() if meth == method}
    return est.ESTIMATORS[method](config, S, rng, workers=workers, **kwargs)


def _csv_row(rec: dict, seed: int, notes: list, wnrv: float = None) -> dict:
    """One results.csv row formatted from a cell's sidecar record.

    A failed cell passes a record holding only method, config and samples;
    every value it lacks, like a None from a zero-hit estimate, is blank.
    """
    def sci(key, scale=1.0):
        v = rec.get(key)
        return "" if v is None else f"{scale * v:.3e}"
    cfg = rec["config"]
    mu = cfg["mu"] if len(set(cfg["mu"])) > 1 else cfg["mu"][:1]
    return {
        "method": rec["method"], "M": cfg["M"], "m": cfg["m"],
        "mu": ";".join(f"{v:.10g}" for v in mu),
        "gamma_th": f"{cfg['gamma_th']:.10g}",
        "S": rec["samples"], "p_hat": sci("p_hat"), "var_hat": sci("var_hat"),
        "re_pct": sci("re", 100.0), "scv": sci("scv"),
        "wnrv_time": "" if wnrv is None else f"{wnrv:.3e}",
        "wnrv_work": sci("wnrv_work"), "wall_time_s": sci("wall_time_s"),
        "seed": seed, "warnings": ";".join(notes),
    }


def run_experiment(spec: ExperimentSpec, workers: int = 1, seed: int = None):
    """Run every (sweep point, method) cell; returns (rows, sidecar, hard_failure).

    Inapplicable or failed methods produce an error-tagged row and the run
    continues; hard_failure is set if any method raised at run time (as
    opposed to failing validation).
    """
    base_seed = spec.seed if seed is None else seed
    rows = []
    sidecar = {"hyper": dict(spec.hyper), "seed": base_seed,
               "workers_note": "results are independent of the worker count",
               "results": []}
    hard_failure = False
    stream_id = 0
    for axis_value, config in _sweep_configs(spec):
        for method in spec.methods:
            S = spec.samples[method]
            rng = RngStream(base_seed, stream_id)
            stream_id += 1
            rec = {"method": method, "axis_value": axis_value,
                   "config": {"M": config.M, "m": config.m,
                              "mu": list(config.mu), "gamma_th": config.gamma_th},
                   "samples": S}
            try:
                result = run_method(method, config, S, rng, spec.hyper,
                                    workers=workers)
            except (ValueError, RuntimeError) as exc:
                rows.append(_csv_row(rec, base_seed, [f"error: {exc}"]))
                hard_failure |= isinstance(exc, RuntimeError)
                continue
            rep = metrics.efficiency_report(result) if result.p_hat > 0 else None
            rec.update({
                "samples": result.samples,
                "stream_id": rng.stream_id,
                "p_hat": result.p_hat,
                "var_hat": result.var_hat,
                "re": rep.re if rep else None,
                "scv": rep.scv if rep else None,
                "wnrv_work": rep.wnrv_work if rep else None,
                "wall_time_s": result.wall_time_s,
                "work_units": result.work_units,
                "diagnostics": result.diagnostics,
            })
            sidecar["results"].append(rec)
            notes = list(result.warnings)
            if rep is None:
                notes.append("zero hits at this sample count; derived metrics undefined")
            rows.append(_csv_row(rec, base_seed, notes, rep.wnrv if rep else None))
    return rows, sidecar, hard_failure


def write_csv(rows, columns, path):
    """Write dict rows under a header of columns, quoted per RFC 4180."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_json(payload, path):
    """Write payload as strict JSON: a non-finite float, like ce's first level inf, is null."""
    def finite(obj):
        if isinstance(obj, dict):
            return {k: finite(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [finite(v) for v in obj]
        return None if isinstance(obj, float) and not math.isfinite(obj) else obj
    path = Path(path)
    path.write_text(json.dumps(finite(payload), indent=2, allow_nan=False) + "\n")
    return path


def sweep_scv_rows(spec: ExperimentSpec, workers: int = 1, seed: int = None):
    """Plot-data rows (axis_value, method, scv) for the sweep axis of a spec that has one."""
    _, sidecar, hard_failure = run_experiment(spec, workers=workers, seed=seed)
    out = []
    for rec in sidecar["results"]:
        if rec["scv"] is not None:
            out.append({"axis_value": f"{rec['axis_value']:.10g}",
                        "method": rec["method"],
                        "scv": f"{rec['scv']:.6e}"})
    return out, sidecar, hard_failure


# ---------------------------------------------------------------------------
# verification suite


def _check_within_se(name, result, exact, n_se=4.0):
    se = math.sqrt(result.var_hat / result.samples)
    dev = abs(result.p_hat - exact)
    ok = dev <= n_se * se or dev <= 1e-15
    detail = f"p_hat={result.p_hat:.4e} ref={exact:.4e} dev={dev:.2e} allowed={n_se * se:.2e}"
    return {"check": name, "passed": bool(ok), "detail": detail}


def verify_oracles(seed: int = 20240601, workers: int = 1,
                   samples: int = 200_000) -> list:
    """Every method against exact values at m = 1, m = M and m = 2, and variance formulas.

    Returns one pass/fail record per check; used by the `verify` subcommand.
    """
    checks = []
    hyper = DEFAULT_HYPER | {"s0": 20_000}
    ids = itertools.count()

    def run(method, config, S):
        return run_method(method, config, S, RngStream(seed, next(ids)), hyper,
                          workers=workers)

    # one branch-selection, one full-sum and one 1 < m < M instance
    for config in (ChannelConfig(M=4, m=1, mu=(0.7,) * 4, gamma_th=0.8),
                   ChannelConfig(M=4, m=4, mu=(0.6,) * 4, gamma_th=2.0),
                   ChannelConfig(M=3, m=2, mu=(0.5,) * 3, gamma_th=0.5)):
        exact = closed_form_outage(config)
        for method in METHODS:
            result = run(method, config, samples if method != "mls" else 4000)
            checks.append(_check_within_se(
                f"closed-form m={config.m}/{config.M}: {method}", result, exact))

    # closed-form single-sample variance of the two selection samplers on the
    # 1 < m < M instance, where both selection events are proper supersets
    for method in ("uis", "pis"):
        result = run(method, config, samples)
        ell = result.diagnostics["ell1" if method == "uis" else "ell2"]
        q = result.diagnostics["hit_fraction"]
        n = result.samples
        sample_var = ell * ell * q * (1.0 - q) * n / (n - 1)
        formula = ell * exact - exact * exact
        rel = abs(sample_var / formula - 1.0)
        checks.append({
            "check": f"variance closed form: {method}",
            "passed": bool(rel <= 0.05),
            "detail": f"sample={sample_var:.4e} formula={formula:.4e} rel={rel:.3f}",
        })
    return checks
