"""Command-line front end.

    outagemc estimate SPEC [--seed N] [--workers N] [--out-dir D] [--format csv|json]
    outagemc sweep    SPEC [--seed N] [--workers N] [--out-dir D] [--format csv|json]
    outagemc verify        [--seed N] [--workers N] [--samples N]

Exit codes: 0 success, 1 spec validation error, 2 runtime estimation
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    SpecError,
    load_spec,
    run_experiment,
    sweep_scv_rows,
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
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="csv writes a CSV plus JSON sidecar; json writes JSON only")

    p_ver = subs.add_parser("verify", help="run the built-in oracle checks")
    p_ver.add_argument("--seed", type=int, default=20240601)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--samples", type=int, default=200_000,
                       help="per-estimator sample count for the checks")
    return parser


def _cmd_report(args) -> int:
    runner, stem, columns = {
        "estimate": (run_experiment, "results", CSV_COLUMNS),
        "sweep": (sweep_scv_rows, "sweep_scv", SWEEP_COLUMNS),
    }[args.command]
    spec = load_spec(args.spec)
    if args.command == "sweep" and spec.sweep_axis is None:  # before --out-dir is made
        raise SpecError("sweep requires a [sweep] section with axis and values")
    try:  # before any cell runs
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"cannot create --out-dir {args.out_dir}: {exc.strerror}") from None
    rows, sidecar, hard_failure = runner(spec, workers=args.workers, seed=args.seed)
    if args.format == "csv":
        csv_path = write_csv(rows, columns, args.out_dir / f"{stem}.csv")
        print(f"wrote {csv_path}")
    json_path = write_json(sidecar, args.out_dir / f"{stem}.json")
    print(f"wrote {json_path}")
    # estimate fails when no cell returned an estimate, sweep when no cell has an SCV
    if hard_failure or not rows or not sidecar["results"]:
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
