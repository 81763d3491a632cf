"""Layer spans recorded from outside the package.

A traced run rebinds module attributes of ``outagemc`` with timing
wrappers, for instance ``outagemc.estimators.ncx2_quantile``.  Every
``outagemc`` module that holds the same function object gets the wrapper,
so a call site that moves between modules is still seen.  A probe whose
target no longer exists is reported as absent and the run goes on.

Spans nest: a span's self time is its inclusive time minus the inclusive
time of the spans it encloses.  Totals are kept per top-level label (the
estimator or suite the benchmark called), so that for every label the
self times of all spans under it add up to its traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("specfun", "samplers", "model", "estimators", "experiment")

# (span name, defining module, attribute).  Several attributes may share a
# span name; nested calls of one span name are separate spans.
PROBES = (
    ("specfun.ncx2_quantile", "specfun", "ncx2_quantile"),
    ("specfun.log_bessel_i0", "specfun", "log_bessel_i0"),
    ("specfun.ncx2_cdf", "specfun", "ncx2_cdf"),
    ("samplers.variates", "samplers", "_nominal_rows"),
    ("samplers.variates", "samplers", "_exponential_rows"),
    ("samplers.variates", "samplers", "_scaled_ncx2_rows"),
    ("samplers.variates", "samplers", "_simplex_rows"),
    ("samplers.pis_rejection", "samplers", "_pis_block_rows"),
    ("model.gsc_statistic_rows", "model", "gsc_statistic_rows"),
    ("estimators.ce_update", "estimators", "ce_update"),
    ("estimators.mls_pilot_levels", "estimators", "mls_pilot_levels"),
    ("estimators.dispatch", "estimators", "_map_ordered"),
)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _dispatch_opens_pool(args, kwargs) -> bool:
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    return workers > 1 and len(tasks) > 1


class Tracer:
    """Install with ``with Tracer() as tr:``; label work with ``tr.top(name)``."""

    def __init__(self):
        self.incl = defaultdict(float)   # (top, span) -> inclusive seconds
        self.self_s = defaultdict(float)  # (top, span) -> self seconds
        self.calls = defaultdict(int)    # span -> calls
        self.counts = defaultdict(float)  # counter name -> total
        self.absent = []
        self._stack = []
        self._top = None
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)

    def _exit(self, key, elapsed):
        child = self._stack.pop()
        self.incl[key] += elapsed
        self.self_s[key] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    @contextlib.contextmanager
    def top(self, label):
        """Label one top-level call made by the benchmark; it is a span too."""
        self._top = label
        self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit((label, label), time.perf_counter() - t0)
            self._top = None

    def _wrap(self, span, fn, home, attr):
        tracer = self

        def wrapper(*args, **kwargs):
            if attr == "_map_ordered" and not _dispatch_opens_pool(args, kwargs):
                # in-process dispatch is transparent: only pools are spans
                return fn(*args, **kwargs)
            tracer._enter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit((tracer._top, span), time.perf_counter() - t0)
            tracer.calls[span] += 1
            try:
                tracer._count(attr, args, kwargs, out)
            except (LookupError, AttributeError, TypeError):
                # the signature changed: its counters can no longer be read
                name = f"{home}.{attr}"
                if name not in tracer.absent:
                    tracer.absent.append(name)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, attr, args, kwargs, out):
        c = self.counts
        if attr in ("ncx2_quantile", "log_bessel_i0"):
            c[attr + ".points"] += _size(args[0])
        elif attr == "gsc_statistic_rows":
            c["gsc.rows"] += args[0].shape[0]
        elif attr == "_pis_block_rows":
            count = args[4] if len(args) > 4 else kwargs["count"]
            bound = kwargs.get("bound", args[5] if len(args) > 5 else None)
            c["pis.accepted"] += count
            c["pis.proposals"] += out[1]
            if bound is not None:
                c["pis.proposals_over_m_ell"] += out[1] / bound.value
        elif attr == "mls_pilot_levels":
            c["mls.pilot_paths"] += getattr(out, "pilot_work", 0)
            c["mls.levels"] += getattr(out, "n_levels", 0)
            c["mls.pilot_calls"] += 1
        elif attr == "_map_ordered":
            c["dispatch.pools"] += 1

    # -- installation -----------------------------------------------------

    def __enter__(self):
        mods = {"": sys.modules["outagemc"]}
        for name in MODULES:
            with contextlib.suppress(ImportError):
                mods[name] = importlib.import_module("outagemc." + name)
        self.absent = []
        for span, home, attr in PROBES:
            orig = getattr(mods.get(home), attr, None)
            if orig is None:
                self.absent.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(span, orig, home, attr)
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    # -- reading ----------------------------------------------------------

    def span_total(self, span, top=None, self_time=False):
        table = self.self_s if self_time else self.incl
        return sum(v for (t, s), v in table.items()
                   if s == span and (top is None or t == top))

    def breakdown(self, top):
        """{span: self seconds} under one top-level label, the label included."""
        return {s: v for (t, s), v in self.self_s.items() if t == top}
