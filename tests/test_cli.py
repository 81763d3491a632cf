"""Spec parsing, output files, exit codes, and worker-count determinism."""

import csv
import inspect
import json
import re

import pytest

from outagemc import ChannelConfig, RngStream, estimators, experiment
from outagemc.cli import main
from outagemc.experiment import (
    DEFAULT_HYPER,
    METHODS,
    ExperimentSpec,
    SpecError,
    load_spec,
    run_method,
)

GOOD_SPEC = """\
[channel]
M = 4
m = 2
mu = 0.5
gamma_th = 0.8

[run]
methods = pis, et
samples = 50000
seed = 4242

[hyper]
s0 = 10000
"""

SWEEP_SPEC = """\
[channel]
M = 4
m = 2
mu = 0.5
gamma_th = 0.8

[run]
methods = pis, et
samples = 300000
seed = 4242

[sweep]
axis = gamma_th
values = 0.8, 0.5
"""


def write(tmp_path, text, name="spec.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadSpec:
    def test_round_trip(self, tmp_path):
        spec = load_spec(write(tmp_path, GOOD_SPEC))
        assert spec.config.M == 4 and spec.config.m == 2
        assert spec.config.mu == (0.5,) * 4
        assert spec.methods == ("pis", "et")
        assert spec.samples == {"pis": 50000, "et": 50000}
        assert spec.seed == 4242
        assert spec.hyper["s0"] == 10000

    def test_mu_vector_and_per_method_samples(self, tmp_path):
        text = GOOD_SPEC.replace("mu = 0.5", "mu = 0.1, 0.2, 0.3, 0.4")
        text += "\n[samples]\npis = 1000\n"
        spec = load_spec(write(tmp_path, text))
        assert spec.config.mu == (0.1, 0.2, 0.3, 0.4)
        assert spec.samples == {"pis": 1000, "et": 50000}

    @pytest.mark.parametrize("mangle,fragment", [
        (lambda t: t.replace("methods = pis, et", "methods ="), "method"),
        (lambda t: t.replace("M = 4", "M = 0"), "channel"),
        (lambda t: t.replace("gamma_th = 0.8", "gamma_th = -1"), "channel"),
        (lambda t: t.replace("[run]", "[run]\nbogus ="), "bogus"),
        (lambda t: t.replace("pis, et", "pis, zzz"), "zzz"),
        (lambda t: t + "\n[samples]\nqmc = 1000\n", "qmc"),
        (lambda t: t.replace("s0 = 10000", "s0 = 10000\ntau = 2"), "tau"),
        (lambda t: t.replace("seed = 4242", "seed = -5"), "run.seed must be >= 0, got -5"),
        (lambda t: t + "\n[samples]\npis = 0\n", "samples.pis must be >= 1, got 0"),
        (lambda t: t.replace("samples = 50000", "samples = 1"), "samples.et must be >= 2, got 1"),
        (lambda t: t + "\n[samples]\nce = 1\n", "samples.ce must be >= 2, got 1"),
        (lambda t: t + "\n[samples]\nmls = 9\n", "samples.mls must be >= 10, got 9"),
        (lambda t: t.replace("s0 = 10000", "s0 = 99"), "hyper.s0 must be >= 100, got 99"),
        (lambda t: t + "rho = 1.0\n", "hyper.rho must be in (0, 1), got 1.0"),
        (lambda t: t + "mls_target_cond_prob = 0\n",
         "hyper.mls_target_cond_prob must be in (0, 1), got 0.0"),
        (lambda t: t + "mls_replications = 1\n", "hyper.mls_replications must be >= 2, got 1"),
        (lambda t: t + "mls_pilot_samples = 99\n",
         "hyper.mls_pilot_samples must be >= 100, got 99"),
        (lambda t: t + "\n[sweep]\nvalues = 0.8, 0.5\n", "sweep.axis"),
        (lambda t: t + "\n[sweep]\naxis = gamma_th\nvalues = 0.8, 0\n",
         "invalid sweep.values 0.0: gamma_th must be finite and > 0"),
        (lambda t: t + "\n[sweep]\naxis = mu\nvalues = -0.5, 0.5\n",
         "invalid sweep.values -0.5: all mu_i must be finite and >= 0"),
        (lambda t: t.replace("gamma_th = 0.8\n", ""), "missing required key [channel] gamma_th"),
        (lambda t: t.replace("s0 = 10000", "s0 = 1.5"), "invalid value for [hyper] s0"),
        (lambda t: t + "rho = abc\n", "invalid value for [hyper] rho"),
        (lambda t: t + "\n[sweep]\nvalues = a, b\n", "invalid value for [sweep] values"),
        (lambda t: t + "\n[samples]\npis = x\n", "invalid value for [samples] pis"),
        # with two faults, unknown sections and keys are reported before any value
        (lambda t: t.replace("s0 = 10000", "s0 = 1.5\ntau = 2"), "unknown key 'tau'"),
        (lambda t: t.replace("seed = 4242", "seed = x") + "\n[extra]\n",
         "unknown section [extra]"),
        # configparser copies [DEFAULT] keys into every section
        (lambda t: "[DEFAULT]\nseed = 3\n\n" + t, "unknown key 'seed' in section [DEFAULT]"),
    ])
    def test_invalid_specs(self, tmp_path, mangle, fragment):
        with pytest.raises(SpecError, match=re.escape(fragment)):
            load_spec(write(tmp_path, mangle(GOOD_SPEC)))

    def test_empty_default_section(self, tmp_path):
        spec = load_spec(write(tmp_path, "[DEFAULT]\n" + GOOD_SPEC))
        assert spec == load_spec(write(tmp_path, GOOD_SPEC, "plain.ini"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            load_spec(tmp_path / "absent.ini")

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_file(self, tmp_path, capsys, kind):
        # a path that is not UTF-8 text is a spec error (exit 1), not a
        # traceback or an estimation error
        spec = tmp_path / "spec.ini"
        if kind == "directory":
            spec.mkdir()
        else:
            spec.write_bytes(GOOD_SPEC.replace("mu = 0.5", "mu = 0.5 ; \xb5").encode("latin-1"))
        with pytest.raises(SpecError, match="cannot read spec file"):
            load_spec(spec)
        assert main(["estimate", str(spec), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spec error: cannot read spec file") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_hyper_defaults_match_estimators(self):
        # a spec without [hyper] must run ce and mls at their own defaults
        ce = inspect.signature(estimators.estimate_ce).parameters
        mls = inspect.signature(estimators.estimate_mls).parameters
        pairs = {"s0": ce["S0"], "rho": ce["rho"],
                 "mls_replications": mls["replications"],
                 "mls_target_cond_prob": mls["target_cond_prob"],
                 "mls_pilot_samples": mls["pilot_samples"]}
        assert {key: param.default for key, param in pairs.items()} == DEFAULT_HYPER


class TestExperimentSpec:
    CONFIG = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=0.8)

    def spec(self, **kwargs):
        return ExperimentSpec(config=self.CONFIG, methods=("pis",), samples={"pis": 100},
                              seed=1, **kwargs)

    def test_partial_hyper_takes_the_defaults(self):
        # missing keys are DEFAULT_HYPER's, in its key order (the sidecar's)
        spec = self.spec(hyper={"mls_pilot_samples": 500, "rho": 0.5})
        assert spec.hyper == DEFAULT_HYPER | {"rho": 0.5, "mls_pilot_samples": 500}
        assert list(spec.hyper) == list(DEFAULT_HYPER)
        assert self.spec().hyper == DEFAULT_HYPER

    def test_unknown_hyper_key(self):
        with pytest.raises(SpecError, match="unknown hyper key.*'tau'"):
            self.spec(hyper={**DEFAULT_HYPER, "tau": 3})

    def test_unknown_method_in_samples(self):
        with pytest.raises(SpecError, match=re.escape("unknown method(s) ['qmc']")):
            ExperimentSpec(config=self.CONFIG, methods=("pis",),
                           samples={"pis": 100, "qmc": 100}, seed=1)

    def test_listed_method_without_samples(self):
        # load_spec fills every listed method's count; a spec built in code
        # that lists one without a count used to fail later with a KeyError
        with pytest.raises(SpecError, match=re.escape("method(s) ['et'] have no sample count")):
            ExperimentSpec(config=self.CONFIG, methods=("pis", "et"),
                           samples={"pis": 100}, seed=1)


class TestRunMethod:
    def test_hyper_values_reach_their_keywords(self, monkeypatch):
        # ce and mls get their [hyper] values, every method the worker count
        calls = {}

        def recorder(method):
            def record(config, S, rng, **kwargs):
                calls[method] = kwargs
            return record

        for method in METHODS:
            monkeypatch.setitem(estimators.ESTIMATORS, method, recorder(method))
        hyper = {"rho": 0.3, "s0": 1234, "mls_replications": 7,
                 "mls_target_cond_prob": 0.4, "mls_pilot_samples": 567}
        assert hyper.keys() == DEFAULT_HYPER.keys()
        assert not hyper.items() & DEFAULT_HYPER.items()
        config = ChannelConfig(M=4, m=2, mu=0.5, gamma_th=0.8)
        for method in METHODS:
            run_method(method, config, 100, RngStream(1), hyper, workers=3)
        assert calls == {
            "nmc": {"workers": 3}, "uis": {"workers": 3}, "pis": {"workers": 3},
            "et": {"workers": 3}, "ce": {"workers": 3, "S0": 1234, "rho": 0.3},
            "mls": {"workers": 3, "replications": 7, "target_cond_prob": 0.4,
                    "pilot_samples": 567},
        }


class TestEstimateCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        spec = write(tmp_path, GOOD_SPEC)
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 0
        csv = (out / "results.csv").read_text().splitlines()
        assert csv[0].startswith("method,M,m,mu,gamma_th,S,p_hat")
        assert len(csv) == 3
        payload = json.loads((out / "results.json").read_text())
        assert len(payload["results"]) == 2
        assert payload["results"][0]["p_hat"] > 0

    def test_inapplicable_method_gets_error_row(self, tmp_path):
        text = GOOD_SPEC.replace("mu = 0.5", "mu = 0.1, 0.2, 0.3, 0.4")
        text = text.replace("methods = pis, et", "methods = ce, et")
        spec = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        ce_row = next(r for r in rows if r.startswith("ce,"))
        assert "error:" in ce_row and "identical" in ce_row
        et_row = next(r for r in rows if r.startswith("et,"))
        assert "error:" not in et_row

    def test_runtime_failure_sets_exit_code(self, tmp_path, monkeypatch):
        # a method that fails at run time gets an error row, the others
        # still run, and the run exits with the runtime code
        def failing(*args, **kwargs):
            raise estimators.CeAdaptationError("CE failed to reach target threshold")

        monkeypatch.setitem(estimators.ESTIMATORS, "ce", failing)
        spec = write(tmp_path, GOOD_SPEC.replace("methods = pis, et", "methods = ce, et"))
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 2
        rows = (out / "results.csv").read_text().splitlines()
        ce_row = next(r for r in rows if r.startswith("ce,"))
        assert "error: CE failed" in ce_row
        et_row = next(r for r in rows if r.startswith("et,"))
        assert "error:" not in et_row and float(et_row.split(",")[6]) > 0

    def test_underflow_gets_error_row(self, tmp_path):
        # a threshold past double precision is reported, not returned as 0;
        # with no estimate left the run exits with the runtime code
        text = GOOD_SPEC.replace("M = 4\nm = 2", "M = 8\nm = 8")
        text = text.replace("gamma_th = 0.8", "gamma_th = 1e-40")
        spec = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 2
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all("error:" in r and "too extreme" in r for r in rows)
        # et's message holds a comma, which must not split its field
        assert [len(r) for r in csv.reader(rows)] == [15, 15]

    def test_zero_variance_below_square_underflow(self, tmp_path):
        # p_hat ~ 3.4e-166 squares to 0; pis is exact here, so its SCV is 0
        text = GOOD_SPEC.replace("M = 4\nm = 2", "M = 8\nm = 8")
        text = text.replace("gamma_th = 0.8", "gamma_th = 1e-20")
        spec = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert rows["pis"]["scv"] == "0.000e+00"
        assert rows["et"]["warnings"].startswith("error:")
        assert len(rows["et"]) == 15 and None not in rows["et"]

    def test_csv_rows_match_sidecar(self, tmp_path):
        spec = write(tmp_path, GOOD_SPEC)
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        records = json.loads((out / "results.json").read_text())["results"]
        assert [r["method"] for r in rows] == [rec["method"] for rec in records]
        for row, rec in zip(rows, records):
            for key in ("p_hat", "var_hat", "scv"):
                assert row[key] == f"{rec[key]:.3e}", (row["method"], key)

    def test_sidecar_is_strict_json(self, tmp_path):
        # 150 pis rows have no 200th smallest H, so ce's first level is inf,
        # which the sidecar writes as null
        text = GOOD_SPEC.replace("methods = pis, et", "methods = ce")
        spec = write(tmp_path, text.replace("s0 = 10000", "s0 = 150"))
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads((out / "results.json").read_text(), parse_constant=reject)
        assert payload["results"][0]["diagnostics"]["trace"][0]["gamma_t"] is None

    def test_mls_not_rare_note_reaches_csv(self, tmp_path):
        # at gamma_th = 1e3 outage is almost sure, so mls's pilot keeps one level
        text = GOOD_SPEC.replace("gamma_th = 0.8", "gamma_th = 1e3")
        text = text.replace("methods = pis, et", "methods = mls").replace("s0 = 10000", (
            "mls_replications = 3\nmls_pilot_samples = 1000\n\n[samples]\nmls = 100"))
        spec = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["warnings"] == "outage event is not rare: single-level schedule"

    def test_spec_error_exit_code(self, tmp_path):
        spec = write(tmp_path, GOOD_SPEC.replace("M = 4", "M = -4"))
        assert main(["estimate", str(spec)]) == 1

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, monkeypatch, command):
        # an --out-dir that is an existing file stops the command with one
        # line and exit 1 before any cell runs
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiment, "run_method", no_cells)
        blocker = write(tmp_path, "", "taken")
        argv = [command, str(write(tmp_path, SWEEP_SPEC)), "--out-dir", str(blocker)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"spec error: cannot create --out-dir {blocker}: File exists\n"

    def test_seed_override_changes_results(self, tmp_path):
        spec = write(tmp_path, GOOD_SPEC)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["estimate", str(spec), "--out-dir", str(a)])
        main(["estimate", str(spec), "--out-dir", str(b), "--seed", "999"])
        main(["estimate", str(spec), "--out-dir", str(c), "--seed", "999"])
        ra = (a / "results.csv").read_text()
        rb = (b / "results.csv").read_text()
        rc = (c / "results.csv").read_text()
        assert ra != rb  # different seed, different numbers

        def strip_timing(text):
            out = []
            for line in text.splitlines():
                cells = line.split(",")
                if len(cells) > 12 and cells[0] != "method":
                    cells[10] = cells[12] = "X"  # wnrv_time, wall_time_s
                out.append(",".join(cells))
            return "\n".join(out)
        # identical seed: everything but the measured wall time reproduces
        assert strip_timing(rb) == strip_timing(rc)


class TestNegativeSeed:
    """A negative seed is a spec error (exit 1) that names the seed, on every
    command, before any estimator runs."""

    def test_spec_seed(self, tmp_path, capsys):
        spec = write(tmp_path, GOOD_SPEC.replace("seed = 4242", "seed = -5"))
        out = tmp_path / "out"
        assert main(["estimate", str(spec), "--out-dir", str(out)]) == 1
        assert "run.seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "sweep", "verify"])
    def test_seed_flag(self, tmp_path, capsys, command):
        spec = write(tmp_path, SWEEP_SPEC)
        argv = [command] + ([] if command == "verify" else [str(spec)])
        assert main(argv + ["--seed", "-1"]) == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err


class TestOutOfRange:
    """Out-of-range spec values and CLI integers are spec errors (exit 1)
    that name the key, before any estimator runs."""

    def test_spec_values(self, tmp_path, capsys):
        text = GOOD_SPEC.replace("methods = pis, et", "methods = pis, ce, mls")
        text = text.replace("s0 = 10000", "s0 = 50") + "\n[samples]\nmls = 0\n"
        out = tmp_path / "out"
        assert main(["estimate", str(write(tmp_path, text)), "--out-dir", str(out)]) == 1
        assert "samples.mls must be >= 10, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,fragment", [
        ("estimate", ["--workers", "0"], "--workers must be >= 1, got 0"),
        ("sweep", ["--workers", "-4"], "--workers must be >= 1, got -4"),
        ("verify", ["--workers", "0"], "--workers must be >= 1, got 0"),
        ("verify", ["--samples", "0"], "--samples must be >= 2, got 0"),
    ])
    def test_cli_integers(self, tmp_path, capsys, command, flags, fragment):
        out = tmp_path / "out"
        argv = [command] + ([] if command == "verify" else
                            [str(write(tmp_path, SWEEP_SPEC)), "--out-dir", str(out)])
        assert main(argv + flags) == 1
        assert fragment in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_plot_data_columns(self, tmp_path):
        spec = write(tmp_path, SWEEP_SPEC)
        out = tmp_path / "out"
        assert main(["sweep", str(spec), "--out-dir", str(out)]) == 0
        lines = (out / "sweep_scv.csv").read_text().splitlines()
        assert lines[0] == "axis_value,method,scv"
        assert len(lines) == 5  # two methods at two sweep points

    def test_single_point_sweep(self, tmp_path):
        text = SWEEP_SPEC.replace("values = 0.8, 0.5", "values = 0.8")
        spec = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", str(spec), "--out-dir", str(out)]) == 0
        lines = (out / "sweep_scv.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_mean_sweep_of_unequal_means(self, tmp_path):
        # a swept mu sets every branch, whatever the spec's own means
        text = GOOD_SPEC.replace("mu = 0.5", "mu = 0.3, 0.3, 1.5, 1.5")
        text = text.replace("samples = 50000", "samples = 20000")
        text += "\n[sweep]\naxis = mu\nvalues = 0.3, 0.5\n"
        out = tmp_path / "out"
        assert main(["sweep", str(write(tmp_path, text)), "--out-dir", str(out)]) == 0
        results = json.loads((out / "sweep_scv.json").read_text())["results"]
        assert [(r["axis_value"], r["config"]["mu"]) for r in results] == [
            (v, [v] * 4) for v in (0.3, 0.3, 0.5, 0.5)]

    def test_mean_sweep_from_rayleigh(self, tmp_path):
        # mu = 0 is Rayleigh fading, which every estimator accepts
        text = GOOD_SPEC.replace("samples = 50000", "samples = 20000")
        text += "\n[sweep]\naxis = mu\nvalues = 0, 0.5\n"
        out = tmp_path / "out"
        assert main(["sweep", str(write(tmp_path, text)), "--out-dir", str(out)]) == 0
        results = json.loads((out / "sweep_scv.json").read_text())["results"]
        assert [(r["axis_value"], r["method"]) for r in results] == [
            (0.0, "pis"), (0.0, "et"), (0.5, "pis"), (0.5, "et")]

    def test_requires_sweep_section(self, tmp_path):
        spec = write(tmp_path, GOOD_SPEC)
        assert main(["sweep", str(spec)]) == 1

    def test_missing_sweep_section_makes_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "new"
        assert main(["sweep", str(write(tmp_path, GOOD_SPEC)), "--out-dir", str(out)]) == 1
        assert "requires a [sweep] section" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_across_worker_counts(self, tmp_path):
        spec = write(tmp_path, SWEEP_SPEC)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["sweep", str(spec), "--out-dir", str(out1),
                     "--workers", "1"]) == 0
        assert main(["sweep", str(spec), "--out-dir", str(out2),
                     "--workers", "2"]) == 0
        assert ((out1 / "sweep_scv.csv").read_bytes()
                == (out2 / "sweep_scv.csv").read_bytes())

    def test_threshold_sweep_scv_ordering(self, tmp_path):
        # adaptive cross-entropy tracks the target event, so its SCV curve
        # stays below both bounded-relative-error competitors on the grid
        from outagemc.experiment import load_spec, sweep_scv_rows
        text = (
            "[channel]\nM = 8\nm = 4\nmu = 0.5\ngamma_th = 1.0\n\n"
            "[run]\nmethods = pis, et, ce\nsamples = 100000\nseed = 606\n\n"
            "[sweep]\naxis = gamma_th\nvalues = 1.0, 0.5, 0.2\n\n"
            "[hyper]\ns0 = 50000\n")
        rows, _, _ = sweep_scv_rows(load_spec(write(tmp_path, text)))
        by_point = {}
        for row in rows:
            by_point.setdefault(row["axis_value"], {})[row["method"]] = float(row["scv"])
        assert len(by_point) == 3
        for point, scvs in by_point.items():
            assert scvs["ce"] < min(scvs["pis"], scvs["et"]), (point, scvs)

    def test_mean_sweep_scv_ordering(self, tmp_path):
        # at a large threshold with growing means the tilted proposal's SCV
        # blows up while the partition sampler's stays moderate
        from outagemc.experiment import load_spec, sweep_scv_rows
        text = (
            "[channel]\nM = 8\nm = 4\nmu = 2.3\ngamma_th = 17.0\n\n"
            "[run]\nmethods = pis, et, ce\nsamples = 100000\nseed = 607\n\n"
            "[sweep]\naxis = mu\nvalues = 2.3, 2.5\n\n"
            "[hyper]\ns0 = 50000\n")
        rows, _, _ = sweep_scv_rows(load_spec(write(tmp_path, text)))
        by_point = {}
        for row in rows:
            by_point.setdefault(row["axis_value"], {})[row["method"]] = float(row["scv"])
        for point, scvs in by_point.items():
            assert scvs["pis"] < scvs["et"], (point, scvs)
            assert scvs["ce"] < scvs["pis"], (point, scvs)


class TestVerifyCommand:
    def test_passes_on_fresh_checkout(self, capsys):
        assert main(["verify", "--samples", "30000"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
