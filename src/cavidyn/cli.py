"""Command-line entry point.

Subcommands: `validate` checks a config and echoes its resolved values;
`run` executes the experiment that the config's `[experiment] kind`
declares.  A run's only inputs are its config file and `--out` (plus
`--workers`, which never changes a byte of an ensemble's outputs): the
config alone says what runs, the seeds included, and `--out` alone where
its outputs go, so rerunning a config into a fresh directory reproduces
its outputs and its manifest, but for the wall-clock time.

Exit codes: 0 success, 1 runtime failure, 2 config parse error,
3 constraint violation; SIGTERM ends a run with status -15, outputs removed.

Each command imports only the code it executes.  `validate` loads this
module and `cavidyn.config`, both numpy-free; `run` then imports
`cavidyn.runner`, which imports the modules of the configured experiment
alone (see its docstring).  Before that import, `run --workers` W > 1
defaults the BLAS thread variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS) to 1, so W forked workers do not each start a BLAS thread
pool (the parent only sums their results); a value already set wins, and
library callers of `runner.run` keep their own settings.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (ConfigConstraintError, ConfigParseError, load,
                     resolved_text)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise argparse.ArgumentTypeError(
            f"{workers} workers need os.fork, which this platform lacks; "
            "use 1")
    return workers


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cavidyn",
        description="cavity exciton dynamics and spectra; the config sets "
                    "everything a run computes, its seeds included, and "
                    "--out where its outputs go",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    validate = sub.add_parser(
        "validate", help="check a config and echo the resolved values")
    validate.add_argument("--config", required=True, metavar="PATH")
    run = sub.add_parser(
        "run", help="run the experiment the config declares as "
                    "[experiment] kind")
    run.add_argument("--config", required=True, metavar="PATH")
    run.add_argument("--out", default="out", metavar="DIR",
                     help="output directory (default: %(default)s)")
    run.add_argument("--workers", type=_worker_count, default=1,
                     metavar="INT", help="worker processes for the "
                     "realizations of dynamics and absorption runs; above 1, "
                     "BLAS thread variables not already set default to 1")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load(args.config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigConstraintError as exc:
        print("constraint violations:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_CONSTRAINT

    if args.command == "validate":
        sys.stdout.write(resolved_text(cfg))
        return EXIT_OK

    if args.workers > 1:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    from .runner import run

    try:
        manifest = run(cfg, args.out, workers=args.workers)
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for name in sorted(manifest["outputs"]):
        print(name)
    print(f"manifest: run_manifest.json ({manifest['wall_clock_s']} s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
