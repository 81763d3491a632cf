"""Command-line front end.

    outagemc estimate SPEC [--seed N] [--workers N] [--out-dir D]
    outagemc sweep    SPEC [--seed N] [--workers N] [--out-dir D]
    outagemc verify        [--seed N] [--workers N] [--samples N]

estimate writes results.csv and sweep sweep_scv.csv, each computed from a
JSON sidecar of the same stem that holds every cell's record, a failed one's too.

Exit codes: 0 success, 1 spec validation error or an output path that
cannot be written, 2 runtime estimation failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from functools import partial
from pathlib import Path

from .experiment import (
    SpecError,
    load_spec,
    run_experiment,
    verify_oracles,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="outagemc",
        description="Rare-event Monte Carlo estimation of GSC/MRC outage probability")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text in (("estimate", "run every (method, sweep point) cell"),
                       ("sweep", "write plot-ready SCV-vs-axis data")):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("spec", type=Path, help="experiment spec file (INI)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the spec's seed")
        sub.add_argument("--workers", type=int, default=1,
                         help="worker threads; results do not depend on this")
        sub.add_argument("--out-dir", type=Path, default=Path("."),
                         help="directory for output files")

    p_ver = subs.add_parser("verify", help="run the built-in oracle checks")
    p_ver.add_argument("--seed", type=int, default=20240601)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--samples", type=int, default=200_000,
                       help="per-estimator sample count for the checks")
    return parser


def _cmd_report(args) -> int:
    sweep = args.command == "sweep"
    spec = load_spec(args.spec)
    if sweep and spec.sweep_axis is None:  # before --out-dir is made
        raise SpecError("sweep requires a [sweep] section with axis and values")
    try:  # before any cell runs
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"cannot create --out-dir {args.out_dir}: {exc.strerror}") from None
    sidecar, hard_failure = run_experiment(spec, workers=args.workers, seed=args.seed)
    stem = args.out_dir / ("sweep_scv" if sweep else "results")
    # the record first; a failed write removes its own file and the CSV
    for path, write in ((stem.with_suffix(".json"), partial(write_json, sidecar)),
                        (stem.with_suffix(".csv"), partial(write_csv, sidecar, sweep=sweep))):
        try:
            write(path)
        except OSError as exc:
            for stale in (path, stem.with_suffix(".csv")):  # no projection outlives its record
                with suppress(OSError):
                    stale.unlink(missing_ok=True)
            raise SpecError(f"cannot write {path}: {exc.strerror}") from None
        print(f"wrote {path}")
    # estimate fails when no record holds p_hat, sweep when none holds an SCV
    key = "scv" if sweep else "p_hat"
    if hard_failure or all(rec.get(key) is None for rec in sidecar["results"]):
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = verify_oracles(seed=args.seed, workers=args.workers,
                            samples=args.samples)
    width = max(len(c["check"]) for c in checks)
    failed = 0
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        failed += 0 if c["passed"] else 1
        print(f"{status}  {c['check']:<{width}}  {c['detail']}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise SpecError(f"--seed must be >= 0, got {args.seed}")
        if args.workers < 1:
            raise SpecError(f"--workers must be >= 1, got {args.workers}")
        if args.command == "verify" and args.samples < 2:
            raise SpecError(f"--samples must be >= 2, got {args.samples}")
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (RuntimeError, ValueError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
