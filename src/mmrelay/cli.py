"""Command-line front end.

Subcommands::

    mmrelay analyze  <cfg>                      queue solution + throughput
    mmrelay simulate <cfg> [--slots --seed --mode]   Monte Carlo statistics
    mmrelay sweep    <cfg> -o out.csv [--jobs]       grid evaluation to CSV
    mmrelay compare  <cfg> [--slots --seed --mode]   analytic-vs-sim z table

``analyze`` prints ``ThroughputReport.metrics()``; every value is
printed by ``sweeps.format_value``, the CSV's formatter.

Exit codes: 0 ok, 1 usage error (including a file that cannot be read or
written), 2 model/configuration error (any exception the model raises),
3 comparison failure (some |z| > 3).
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback

from . import simulator
from .sweeps import (format_value, load_config, read_argument, run_sweep,
                     write_csv)
from .throughput import aggregate_throughput

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_COMPARISON = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _argument(name: str):
    """argparse type: ``read_argument(name, text)``; a broken rule is a
    usage error in the rule's own words."""
    def parse(text: str):
        try:
            return read_argument(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slots", type=_argument("n_slots"), default=None,
                   help="number of simulated slots (overrides the file)")
    p.add_argument("--seed", type=_argument("seed"), default=None,
                   help="RNG seed (overrides the file)")
    p.add_argument("--mode", choices=simulator.MODES, default=None,
                   help="LOS sampling mode (overrides the file)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmrelay",
                     description="Relay-assisted mm-wave random access: "
                                 "analytical model and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print queue solution and throughput")
    p.add_argument("config")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("simulate", help="run the slot-level simulator")
    p.add_argument("config")
    _add_sim_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("sweep", help="evaluate a sweep grid and write CSV")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--jobs", type=_argument("jobs"), default=1,
                   help="parallel worker processes")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare", help="analytic vs simulation z-score table")
    p.add_argument("config")
    _add_sim_flags(p)
    p.set_defaults(handler=cmd_compare)
    return parser


def _sim_args(spec, args) -> tuple[int, int, str]:
    slots = args.slots if args.slots is not None else spec.n_slots
    seed = args.seed if args.seed is not None else spec.seed
    mode = args.mode if args.mode is not None else spec.mode
    return slots, seed, mode


def cmd_analyze(args) -> int:
    spec = load_config(args.config)
    for name, value in aggregate_throughput(spec.base).metrics().items():
        print(f"{name:<12}: {format_value(value)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_config(args.config)
    slots, seed, mode = _sim_args(spec, args)
    stats = simulator.run(spec.base, slots, seed, mode)
    print(f"slots            : {stats.slots}")
    print(f"warmup_slots     : {stats.warmup_slots}")
    print(f"measured_slots   : {stats.measured_slots}")
    print(f"n_batches        : {stats.n_batches}")
    print(f"delivered_direct : {stats.delivered_direct}")
    print(f"delivered_relay  : {stats.delivered_relay}")
    print(f"t_sim            : {format_value(stats.t_sim)} +/- "
          f"{format_value(stats.t_sim_se)}")
    print(f"lambda_sim       : {format_value(stats.lambda_sim)} +/- "
          f"{format_value(stats.lambda_sim_se)}")
    print(f"mu_sim           : {format_value(stats.mu_sim)} +/- "
          f"{format_value(stats.mu_sim_se)}")
    print(f"p_empty_sim      : {format_value(stats.p_empty_sim)} +/- "
          f"{format_value(stats.p_empty_se)}")
    print(f"mean_queue       : {format_value(stats.mean_queue)}")
    print(f"max_queue        : {stats.max_queue}")
    print(f"queue_final      : {stats.queue_final}")
    print(f"drift_sim        : {format_value(stats.drift_sim)}")
    print(f"seed             : {stats.seed}")
    print(f"mode             : {stats.mode}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_config(args.config)
    # opened before the grid runs, so an unwritable path fails at once
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        rows = run_sweep(spec, jobs=args.jobs)
        write_csv(spec, rows, fh)
    n_err = sum(1 for r in rows if r.get("error"))
    print(f"wrote {len(rows)} rows to {args.output}"
          + (f" ({n_err} with errors)" if n_err else ""))
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = load_config(args.config)
    slots, seed, mode = _sim_args(spec, args)
    report = aggregate_throughput(spec.base)
    stats = simulator.run(spec.base, slots, seed, mode)
    result = simulator.compare(report, stats)
    print(f"{'metric':<10} {'analytic':>14} {'empirical':>14} "
          f"{'se':>12} {'z':>9}  status")
    for row in result.rows:
        if row.passed is None:
            status = "n/a"
        else:
            status = "pass" if row.passed else "FAIL"
        z = "-" if math.isnan(row.z) else f"{row.z:9.3f}"
        print(f"{row.name:<10} {row.analytic:>14.9g} {row.empirical:>14.9g} "
              f"{row.se:>12.4g} {z:>9}  {status}"
              + (f"  ({row.note})" if row.note else ""))
    if result.regime_note:
        print(f"note: {result.regime_note}")
    return EXIT_OK if result.all_passed else EXIT_COMPARISON


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"mmrelay: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # a ConfigError too
        print(f"mmrelay: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:  # an unexpected model fault, with its traceback
        traceback.print_exc()
        print(f"mmrelay: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
