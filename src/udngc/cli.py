"""Command line front end.

Subcommands::

    udngc analytic <config> [--out PATH]
    udngc simulate <config> [--out PATH] [--threads N]
    udngc figure <preset> [--out PATH] [--set key=value ...] [--threads N]
    udngc validate <config> [--out PATH] [--threads N]

The environment variable ``UDNGC_SEED``, a non-negative decimal integer,
overrides the seed of every command.  ``--threads`` takes a positive
integer.  Exit codes: 0 ok, 1 validation failure, 2 config or usage error,
3 numerical error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

from . import __version__
from .errors import ConfigError, NumericalError, ParameterError, UdngcError
from .harness import (
    FIGURE_PRESETS,
    analytic_rows,
    parse_config,
    run_figure,
    simulate_rows,
    validate,
    write_rows,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _positive_int(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads", type=_positive_int, default=os.cpu_count() or 1,
        help="worker processes; 1 forces bit-exact output (default: hardware count)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udngc",
        description="Group-cell handover analytics and simulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form metrics for a scenario")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    p = sub.add_parser("simulate", help="Monte Carlo metrics for a scenario")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    _add_threads(p)

    p = sub.add_parser("figure", help="reproduce a figure sweep as CSV")
    p.add_argument("preset", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--out", default=None, help="output CSV (default: <preset>.csv)")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a scenario key (repeatable)",
    )
    _add_threads(p)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="report CSV (default: stdout)")
    _add_threads(p)
    return parser


def _env_seed() -> int | None:
    """The seed ``UDNGC_SEED`` sets, or None when it is unset."""
    value = os.environ.get("UDNGC_SEED")
    if value is None:
        return None
    if not re.fullmatch(r"[0-9]+", value):
        raise ConfigError(f"UDNGC_SEED must be a non-negative integer, got {value!r}")
    return int(value)


def _load_scenario(path: str, seed: int | None):
    scenario = parse_config(path)
    return scenario if seed is None else dataclasses.replace(scenario, seed=seed)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        seed = _env_seed()
        if args.command == "analytic":
            scenario = _load_scenario(args.config, seed)
            write_rows(args.out, analytic_rows(scenario), bit_exact=True)
            return EXIT_OK
        if args.command == "simulate":
            scenario = _load_scenario(args.config, seed)
            rows = simulate_rows(scenario, threads=args.threads)
            write_rows(args.out, rows, bit_exact=(args.threads == 1))
            return EXIT_OK
        if args.command == "figure":
            out = args.out if args.out is not None else f"{args.preset}.csv"
            overrides = list(args.overrides)
            if seed is not None:
                overrides.append(f"seed={seed}")
            run_figure(args.preset, overrides, out, threads=args.threads)
            return EXIT_OK
        if args.command == "validate":
            scenario = _load_scenario(args.config, seed)
            ok, _ = validate(scenario, args.out, threads=args.threads)
            return EXIT_OK if ok else EXIT_VALIDATION
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError) as exc:
        print(f"udngc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"udngc: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UdngcError as exc:
        print(f"udngc: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
