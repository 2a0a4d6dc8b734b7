"""Command-line entry point.

    hierbandit run <config.yaml|manifest.json> [--out DIR]
    hierbandit validate [--suite NAME ...]
    hierbandit export-population <config.yaml> [--out FILE]

Output directory precedence for run: --out, then the HIERBANDIT_OUT
environment variable, then the config's output_dir, then ./out.

A run whose Bernoulli hier-ts chain warned prints one stderr line per
(algorithm, seed); the run still succeeds.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure,
3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .bench import ExperimentConfig, resolve_output_dir, run_experiment
from .envs import generate_population, population_to_csv
from .errors import ConfigError, NumericalError, ScheduleError
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_SUITE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hierbandit",
                     description="Multi-task Thompson sampling benchmark")
    parser.add_argument("--version", action="version",
                        version="hierbandit %s" % __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_p = sub.add_parser("run", help="run a benchmark experiment",
                           description="Run every (algorithm, seed) pair of "
                           "the config and write ledger, curves, summary, "
                           "manifest (and plots when enabled).")
    run_p.add_argument("config", help="YAML config or manifest.json of a "
                       "previous run")
    run_p.add_argument("--out", default=None,
                       help="output directory (beats HIERBANDIT_OUT and the "
                       "config's output_dir)")

    val_p = sub.add_parser("validate", help="run the self-validation suites",
                           description="Run internal consistency suites and "
                           "print one line per check.")
    val_p.add_argument("--suite", action="append", choices=SUITES,
                       help="suite to run (repeatable; default: all)")

    exp_p = sub.add_parser("export-population",
                           help="write one sampled population to CSV",
                           description="Sample the population of the "
                           "config's first seed and write it to CSV.")
    exp_p.add_argument("config", help="YAML config")
    exp_p.add_argument("--out", default=None,
                       help="output CSV path (default: population.csv in "
                       "the resolved output directory)")
    return parser


def _print_warnings(algorithm: str, seed: int, messages) -> None:
    print("hierbandit: warning: %s seed %d: %s"
          % (algorithm, seed, "; ".join(messages)), file=sys.stderr)


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    paths = run_experiment(config, args.out, on_warnings=_print_warnings)
    for name in ("ledger", "curves", "summary", "manifest"):
        print("wrote %s" % paths[name])
    for name, path in paths.items():
        if name.endswith(".svg"):
            print("wrote %s" % path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = run_suites(args.suite)
    failed = 0
    for suite_name, checks in results.items():
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            print("%s/%s: %s (%s)" % (suite_name, check.name, status,
                                      check.detail))
            failed += 0 if check.passed else 1
    total = sum(len(c) for c in results.values())
    print("%d/%d checks passed" % (total - failed, total))
    return EXIT_OK if failed == 0 else EXIT_SUITE


def _cmd_export_population(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    spec = config.spec_for_seed(config.seeds[0])
    population = generate_population(spec)
    out = args.out
    if out is None:
        out = os.path.join(resolve_output_dir(None, config), "population.csv")
    population_to_csv(population, out)
    print("wrote %s" % out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("hierbandit: error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_export_population(args)
    except (ConfigError, ScheduleError, OSError) as exc:
        print("hierbandit: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print("hierbandit: numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
