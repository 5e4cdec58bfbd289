"""Command-line entry point.

Subcommands: validate, run, absorption, pes-scan, spectra2d, oracle-compare.
`run` executes whatever experiment the config declares; the named experiment
subcommands override the config's experiment kind before validation.

Exit codes: 0 success, 1 runtime failure, 2 config parse error,
3 constraint violation; SIGTERM ends a run with status -15, outputs removed.

Each command imports only the code it executes.  `validate` loads this
module and `cavidyn.config`, both numpy-free; the other commands then import
`cavidyn.runner`, which imports the modules of the configured experiment
alone (see its docstring).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    EXPERIMENT_KINDS,
    ConfigConstraintError,
    ConfigParseError,
    load,
    resolved_text,
)

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
        description="cavity exciton dynamics and spectra",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("validate", "check a config and echo the resolved values"),
        ("run", "run the experiment declared in the config"),
        ("absorption", "run a linear absorption experiment"),
        ("pes-scan", "run a potential-surface scan"),
        ("spectra2d", "run a third-order 2D spectra experiment"),
        ("oracle-compare", "check htc/sf dynamics against an exact Fock twin"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, metavar="PATH")
        if name != "validate":
            p.add_argument("--out", metavar="DIR",
                           help="output directory (default: config value)")
            p.add_argument("--seed", type=int, metavar="U64",
                           help="override [run] seed (htc and sf runs)")
            p.add_argument("--workers", type=_worker_count, default=1,
                           metavar="INT",
                           help="worker processes for the realizations "
                                "of dynamics and absorption runs")
            p.add_argument("--resume", action="store_true",
                           help="keep spectra2d first legs and the ESA "
                                "checkpoint in OUT/bank/ and reuse them if "
                                "they match the config")
    return ap


def _load_config(args):
    overrides = {}
    if args.command in EXPERIMENT_KINDS:
        overrides.setdefault("experiment", {})["kind"] = args.command
    seed = getattr(args, "seed", None)
    if seed is not None:
        overrides.setdefault("run", {})["seed"] = str(seed)
    return load(args.config, overrides=overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
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

    from .runner import run

    try:
        manifest = run(cfg, out_dir=args.out, workers=args.workers,
                       resume=args.resume)
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for name in sorted(manifest["outputs"]):
        print(name)
    print(f"manifest: run_manifest.json ({manifest['wall_clock_s']} s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
