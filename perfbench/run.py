#!/usr/bin/env python3
"""Benchmark for outagemc: per-estimator WNRV, set-up time and layer spans.

    python3 perfbench/run.py --workload los --seed 1 --seconds 52 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced passes over the same inputs and reports
the per-layer metrics.  Every estimate is checked, and each method's
estimates pooled over the run are checked against its reference.
The last line of standard output is one JSON object; a run record with
the per-pass figures is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# One worker means one core: BLAS would otherwise start a thread per core
# for the large dot products in ce, and its timing then swings with
# whatever else the other core is doing.  Set before numpy is imported;
# set-up children and pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("subset", "los")
N_SETUP = 5

E2E_METHODS = ("uis", "pis", "ce", "mls")
ALL_METHODS = ("nmc", "uis", "pis", "et", "ce", "mls")

# per-layer metric -> (unit, probe attributes it needs)
LAYER_METRICS = {
    "specfun.ncx2_quantile.s": ("s", ("ncx2_quantile",)),
    "specfun.ncx2_quantile.calls": ("count", ("ncx2_quantile",)),
    "specfun.ncx2_quantile.points": ("count", ("ncx2_quantile",)),
    "specfun.log_bessel_i0.s": ("s", ("log_bessel_i0",)),
    "specfun.log_bessel_i0.points": ("count", ("log_bessel_i0",)),
    "specfun.ncx2_cdf.s": ("s", ("ncx2_cdf",)),
    "samplers.variates.s": ("s", ("_nominal_rows", "_exponential_rows",
                                  "_scaled_ncx2_rows", "_simplex_rows")),
    "samplers.pis_rejection.s": ("s", ("_pis_block_rows",)),
    "samplers.pis.proposals": ("count", ("_pis_block_rows",)),
    "samplers.pis.acceptance": ("ratio", ("_pis_block_rows",)),
    "samplers.pis.bound_tightness": ("ratio", ("_pis_block_rows",)),
    "samplers.uis.k": ("ratio", ()),
    "estimators.ce_update.s": ("s", ("ce_update",)),
    "estimators.ce_update.calls": ("count", ("ce_update",)),
    "estimators.mls_pilot_levels.s": ("s", ("mls_pilot_levels",)),
    "estimators.mls.pilot_paths": ("count", ("mls_pilot_levels",)),
    "estimators.mls.levels": ("count", ("mls_pilot_levels",)),
    "model.gsc_statistic_rows.s": ("s", ("gsc_statistic_rows",)),
    "model.gsc_statistic_rows.rows": ("count", ("gsc_statistic_rows",)),
    "estimators.dispatch.s": ("s", ("_map_ordered",)),
    "estimators.dispatch.pools": ("count", ("_map_ordered",)),
    "experiment.verify_oracles.s": ("s", ()),
    "experiment.verify_oracles.serial_s": ("s", ("_map_ordered",)),
}
for _m in ALL_METHODS:
    LAYER_METRICS.update({
        f"estimators.{_m}.s": ("s", ()),
        f"estimators.{_m}.self_s": ("s", ()),
        f"estimators.{_m}.unreported_s": ("s", ()),
        f"estimators.{_m}.scv": ("ratio", ()),
        f"estimators.{_m}.work_units": ("count", ()),
    })
LAYER_METRICS["trace.overhead_frac"] = ("ratio", ())


def _load_package():
    """Import outagemc from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import outagemc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import outagemc from {SRC}: {exc}")
    if Path(outagemc.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: outagemc was imported from {outagemc.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads


def _setup_child(name: str, seed: int) -> None:
    t0 = time.perf_counter()
    wl = _load_package()
    wl.warm_up(wl.WORKLOADS[name].warmup, seed)
    print(f"{time.perf_counter() - t0:.9f}")


def _measure_setup(name: str, seed: int) -> list:
    """Set-up seconds of N_SETUP fresh interpreters, each import plus warm-up."""
    out = []
    for i in range(N_SETUP):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", name,
             "--seed", str(seed + i)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# passes


def _run_pass(wl, speed, workload, seed: int, index: int, tracer=None) -> dict:
    """One pass over the workload's calls; every estimate is timed and checked.

    ``t`` is a call's outside seconds; ``t_ref`` is the same at reference
    host speed, from the ``speed`` kernel timed just before the call.
    """
    calls = []
    for j, call in enumerate(workload.calls):
        ctx = tracer.top(call.method) if tracer else contextlib.nullcontext()
        rec = {"method": call.method, "ref": speed.kernel_seconds()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            try:
                with ctx:
                    res = call.run(seed, 1000 * index + j)
            except (ValueError, RuntimeError, FloatingPointError) as exc:
                rec.update(t=time.perf_counter() - t0, fail=f"raised {exc!r}")
                rec["t_ref"] = rec["t"] * speed.NOMINAL_S / rec["ref"]
                calls.append(rec)
                continue
            rec["t"] = time.perf_counter() - t0
        rec["t_ref"] = rec["t"] * speed.NOMINAL_S / rec["ref"]
        fail = wl.check_valid(res)
        rec.update(p=res.p_hat, var=res.var_hat, samples=res.samples,
                   reported_s=res.wall_time_s, work_units=res.work_units,
                   fail=fail)
        if not fail:
            rec["z"] = wl.z_score(call.config, res.p_hat, res.var_hat, res.samples)
        if call.method == "uis" and "ell1" in res.diagnostics:
            rec["uis_k"] = res.diagnostics["ell1"] ** (1.0 / call.config.M)
        calls.append(rec)
    return {"calls": calls, "t": sum(c["t"] for c in calls),
            "t_ref": sum(c["t_ref"] for c in calls)}


def _method_recs(passes, method):
    return [c for ps in passes for c in ps["calls"] if c["method"] == method]


def _scv(wl, recs):
    """SCV of the calls pooled: sample-weighted var_hat over pooled p_hat^2.

    A pooled mean, not a median over calls: per-call SCVs are skewed (about
    one mls call in five returns twice the others'), so a median reads low.
    """
    ok = [r for r in recs if not r["fail"]]
    if not ok:
        return None
    p, var, _ = wl.pooled(ok)
    return var / (p * p)


def _wnrv(wl, passes, method):
    """SCV times reference-speed seconds per sample, summed over the calls."""
    recs = [r for r in _method_recs(passes, method) if not r["fail"]]
    scv = _scv(wl, recs)
    if scv is None:
        return None
    return scv * sum(r["t_ref"] for r in recs) / sum(r["samples"] for r in recs)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run


def _layer_metrics(wl, tr, traced, untraced, suite):
    """Per-pass layer figures from ``tr``; dispatch figures per suite call."""
    n = len(traced)
    c = tr.counts
    span = tr.span_total

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "specfun.ncx2_quantile.s": span("specfun.ncx2_quantile") / n,
        "specfun.ncx2_quantile.calls": tr.calls["specfun.ncx2_quantile"] / n,
        "specfun.ncx2_quantile.points": c["ncx2_quantile.points"] / n,
        "specfun.log_bessel_i0.s": span("specfun.log_bessel_i0") / n,
        "specfun.log_bessel_i0.points": c["log_bessel_i0.points"] / n,
        "specfun.ncx2_cdf.s": span("specfun.ncx2_cdf") / n,
        "samplers.variates.s": span("samplers.variates") / n,
        "samplers.pis_rejection.s": span("samplers.pis_rejection") / n,
        "samplers.pis.proposals": c["pis.proposals"] / n,
        "samplers.pis.acceptance": ratio(c["pis.accepted"], c["pis.proposals"]),
        "samplers.pis.bound_tightness":
            ratio(c["pis.accepted"], c["pis.proposals_over_m_ell"]),
        "estimators.ce_update.s": span("estimators.ce_update") / n,
        "estimators.ce_update.calls": tr.calls["estimators.ce_update"] / n,
        "estimators.mls_pilot_levels.s": span("estimators.mls_pilot_levels") / n,
        "estimators.mls.pilot_paths": c["mls.pilot_paths"] / n,
        "estimators.mls.levels": ratio(c["mls.levels"], c["mls.pilot_calls"]),
        "model.gsc_statistic_rows.s": span("model.gsc_statistic_rows") / n,
        "model.gsc_statistic_rows.rows": c["gsc.rows"] / n,
    }
    if suite is None:
        m.update({k: 0.0 for k in ("estimators.dispatch.s",
                                   "estimators.dispatch.pools",
                                   "experiment.verify_oracles.s",
                                   "experiment.verify_oracles.serial_s")})
    else:
        verify_s = suite.span_total("verify_oracles", "verify_oracles")
        dispatch_s = suite.span_total("estimators.dispatch")
        m.update({"estimators.dispatch.s": dispatch_s,
                  "estimators.dispatch.pools": suite.counts["dispatch.pools"],
                  "experiment.verify_oracles.s": verify_s,
                  "experiment.verify_oracles.serial_s": verify_s - dispatch_s})
    ks = [r["uis_k"] for r in _method_recs(untraced, "uis") if "uis_k" in r]
    m["samplers.uis.k"] = statistics.fmean(ks) if ks else 0.0
    for meth in ALL_METHODS:
        recs = _method_recs(untraced, meth)
        ok = [r for r in recs if not r["fail"]]
        m[f"estimators.{meth}.s"] = span(meth, meth) / n
        m[f"estimators.{meth}.self_s"] = span(meth, meth, self_time=True) / n
        m[f"estimators.{meth}.unreported_s"] = (
            statistics.fmean(r["t"] - r["reported_s"] for r in ok) if ok else 0.0)
        m[f"estimators.{meth}.scv"] = _scv(wl, recs) or 0.0
        m[f"estimators.{meth}.work_units"] = (
            statistics.fmean(r["work_units"] for r in ok) if ok else 0.0)
    m["trace.overhead_frac"] = (sum(p["t_ref"] for p in traced)
                                / sum(p["t_ref"] for p in untraced) - 1.0)
    missing = set(tr.absent) | set(suite.absent if suite else ())
    absent = sorted(k for k, (_, attrs) in LAYER_METRICS.items()
                    if attrs and all(any(a.endswith("." + x) for a in missing)
                                     for x in attrs))
    for k in absent:
        m[k] = 0.0
    return m, absent


def _print_self_times(tracer, labels, calls):
    """Show that the span self times under each top-level call add up to it."""
    for label in labels:
        total = tracer.span_total(label, label)
        if not total:
            continue
        parts = tracer.breakdown(label)
        body = ", ".join(f"{k}={v:.4f}" for k, v in
                         sorted(parts.items(), key=lambda kv: -kv[1]))
        print(f"# self time {label}, {calls} traced call(s): {total:.4f} s = {body} "
              f"(residual {total - sum(parts.values()):.1e} s)")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=52.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", choices=WORKLOAD_NAMES,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        _setup_child(args.setup_child, args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    load_start = os.getloadavg()[0]
    wl = _load_package()
    import numpy
    import scipy

    import hostspeed
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    setup = [] if args.trace else _measure_setup(args.workload, args.seed)
    wl.warm_up(workload.warmup, args.seed)

    deadline = time.perf_counter() + args.seconds
    suite, suite_checks, suite_failures = None, 0, []
    if args.trace and workload.oracle:
        wl.warm_up(wl.ORACLE_WARMUP, args.seed)
        suite = Tracer()
        with suite, suite.top("verify_oracles"):
            suite_failures, suite_checks = wl.run_oracles(args.seed)

    untraced, traced = [], []
    tr = Tracer() if args.trace else None
    index = 0
    while True:
        t0 = time.perf_counter()
        if tr is None:
            untraced.append(_run_pass(wl, hostspeed, workload, args.seed, index))
        else:
            # alternate the order so neither side always runs on warm caches
            for traced_side in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_side:
                    with tr:
                        traced.append(_run_pass(wl, hostspeed, workload, args.seed,
                                                index, tr))
                else:
                    untraced.append(_run_pass(wl, hostspeed, workload, args.seed,
                                              index))
        index += 1
        now = time.perf_counter()
        # start another pass only if at least half of one fits before the
        # deadline, so a run measures about --seconds on average
        if deadline - now < 0.5 * (now - t0):
            break

    recs = [c for ps in untraced + traced for c in ps["calls"]]
    failures = [f"{c['method']}: {c['fail']}" for c in recs if c["fail"]]
    failed = len(failures)
    # Accuracy is checked on each method's calls pooled over the run, and
    # a miss fails every one of them.  Traced passes repeat the untraced
    # inputs, so only the untraced calls are pooled.
    for meth in ALL_METHODS:
        ok = [c for c in _method_recs(untraced, meth) if not c["fail"]]
        miss = wl.check_pooled(workload.calls[0].config, ok) if ok else ""
        if miss:
            n_meth = sum(c["method"] == meth for c in recs)
            failures.append(f"{meth}: {miss}")
            failed += n_meth
    failures += suite_failures
    failed += len(suite_failures)
    attempted = len(recs) + suite_checks
    if args.trace:
        metrics, absent = _layer_metrics(wl, tr, traced, untraced, suite)
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": statistics.fmean(p["t_ref"] for p in untraced)}
        for meth in E2E_METHODS:
            metrics[f"wnrv.{meth}"] = _wnrv(wl, untraced, meth)
        absent = []
        units = {k: "s" for k in metrics}

    load_end = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    by_method = {m: _method_recs(untraced, m) for m in ALL_METHODS}
    by_method = {m: r for m, r in by_method.items() if r}
    zs = [(m, i, r["z"]) for m, rs in by_method.items()
          for i, r in enumerate(rs) if "z" in r]
    misses = [(m, i, z) for m, i, z in zs if abs(z) > wl.N_SE]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": 1,
        "oracle_workers": wl.ORACLE_WORKERS if suite else None,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "loadavg_start": load_start, "loadavg_end": load_end,
        "loaded": max(load_start, load_end) > nproc,
        "passes": len(untraced), "setup_s_samples": setup,
        "attempted": attempted, "failed": failed, "failures": failures,
        "fail_frac": failed / attempted,
        "per_call_miss_frac": len(misses) / len(zs) if zs else 0.0,
        "absent_metrics": absent,
        "per_pass": {m: {key: [r.get(key) for r in recs]
                         for key in ("p", "var", "samples", "z", "t", "ref", "t_ref",
                                     "reported_s")}
                     for m, recs in by_method.items()},
        "scv_by_pass": {m: [None if r["fail"] else r["var"] / r["p"] ** 2
                            for r in recs]
                        for m, recs in by_method.items()},
        "metrics": metrics,
    }

    print(f"# {args.workload} seed={args.seed} trace={args.trace} workers=1 "
          f"passes={len(untraced)} nproc={nproc} python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']} "
          f"loadavg={load_start:.2f}->{load_end:.2f}")
    refs = [c["ref"] for ps in untraced for c in ps["calls"]]
    print(f"# host speed kernel: median {statistics.median(refs):.4f} s, nominal "
          f"{hostspeed.NOMINAL_S} s; raw seconds per pass "
          f"{statistics.fmean(p['t'] for p in untraced):.4f}")
    if record["loaded"]:
        print(f"# WARNING: load average exceeded nproc={nproc} during this run")
    for meth, scvs in record["scv_by_pass"].items():
        vals = " ".join("-" if v is None else f"{v:.4g}" for v in scvs)
        print(f"# scv {meth}: {vals}")
    for line in failures:
        print(f"# FAILED {line}")
    for meth, i, z in misses:
        print(f"# note: {meth} call {i} alone is {z:+.2f} SE from the reference "
              f"(per-call error bars are not gated)")
    if tr:
        _print_self_times(tr, ALL_METHODS, len(traced))
        if suite:
            _print_self_times(suite, ("verify_oracles",), 1)
        for name in absent:
            print(f"# ABSENT {name}: its probe target no longer exists")
    for name, value in metrics.items():
        shown = "absent" if name in absent else (
            "n/a" if value is None else f"{value:.6g}")
        print(f"{name:40s} {shown:>14s} {units[name]}")
    print(f"{'fail_frac':40s} {record['fail_frac']:>14.6g} share "
          f"({failed}/{attempted})")
    print(f"{'per_call_miss_frac':40s} {record['per_call_miss_frac']:>14.6g} share "
          f"({len(misses)}/{len(zs)}, not gated)")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
