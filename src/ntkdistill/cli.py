"""Command-line entry point: one subcommand per experiment kind plus validate.

    ntkdistill <kind> --config PATH [--out DIR] [--seed U64] [--threads N]
    ntkdistill validate --config PATH

A run writes ``<kind>.csv`` and ``<kind>_manifest.json`` and prints their
paths.

``--threads`` must be between 1 and the machine's CPU count.

Exit codes: 0 success, 1 config error (a bad ``--threads`` too), 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import EXPERIMENT_KINDS, ConfigError, run, validate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntkdistill",
        description="Desk-scale distillation experiments for linearized wide networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_run_flags=True):
        p.add_argument("--config", required=True, help="path to the JSON config file")
        if with_run_flags:
            p.add_argument("--out", default=None, help="output directory (default: config's)")
            p.add_argument("--seed", type=int, default=None, help="override the root seed")
            p.add_argument("--threads", type=int, default=1, help="concurrent units")

    for kind in EXPERIMENT_KINDS:
        add_common(sub.add_parser(kind, help=f"run the {kind} experiment"))
    add_common(sub.add_parser("validate", help="check a config without running"),
               with_run_flags=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            print(validate(args.config))
            return 0
        cpus = os.cpu_count() or 1
        if not 1 <= args.threads <= cpus:
            raise ConfigError(f"--threads must be between 1 and {cpus}, got {args.threads}")
        from .experiments import load_config

        cfg = load_config(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"experiment: config names {cfg.experiment!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        status, paths = run(args.config, out_dir=args.out, seed=args.seed,
                            threads=args.threads)
        for path in paths:
            print(path)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
