"""Command line entry point.

Subcommands:
  simulate   run the paired Monte Carlo tracking experiment and write outputs
  counts     hypothesis-count combinatorics (single values or the full table)
  kld        Poisson-vs-negative-binomial clutter mismatch divergence
  oracle     self-check suites against brute-force enumeration
"""

from __future__ import annotations

import argparse
import sys

from .clutter import poisson_nb_kld
from .errors import PmbmError
from .harness import (
    ALL_FILTERS,
    DEFAULT_FILTERS,
    ScenarioConfig,
    experiment,
    load_scenario,
)
from .hypotheses import count_hypotheses
from .oracle import check_composite, check_gibbs, check_update

_TABLE_M = (1, 2, 3, 4, 5, 10)
_TABLE_N = (0, 1, 4)
_TABLE_COMBOS = (
    ("point", "ppp"),
    ("point", "arbitrary"),
    ("general", "ppp"),
    ("general", "arbitrary"),
)


def _print_count_table() -> None:
    header = "target/clutter   n " + "".join(f"{f'm={m}':>12}" for m in _TABLE_M)
    print(header)
    print("-" * len(header))
    for target, clutter in _TABLE_COMBOS:
        for n in _TABLE_N:
            row = "".join(
                f"{count_hypotheses(target, clutter, n, m):>12}" for m in _TABLE_M
            )
            print(f"{target}/{clutter:<9} n={n} {row}")


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    names = tuple(f.strip() for f in args.filters.split(",") if f.strip())
    for name in names:
        if name not in ALL_FILTERS:
            print(f"unknown filter: {name} (choose from {', '.join(ALL_FILTERS)})", file=sys.stderr)
            return 2
    records, summary = experiment(cfg, names, out_dir=args.out)
    print(f"wrote {args.out}/gospa.csv, curves.csv, summary.json, config.yaml")
    for name in names:
        m = summary["metrics"][name]
        if not m["runs"]:
            print(f"{name:>7}: all {m['failed_runs']} runs failed")
            continue
        print(
            f"{name:>7}: rms-gospa {m['rms_total']:.3f}  "
            f"({m['runs']} runs, {m['failed_runs']} failed, "
            f"{m['mean_ms_per_step']:.1f} ms/step)"
        )
    for label, (wins, total) in summary["paired"].items():
        if total:
            print(f"{label}: {wins}/{total} paired runs at or below")
    return 0


def _cmd_counts(args) -> int:
    if args.table:
        _print_count_table()
        return 0
    if args.n is None or args.m is None:
        print("provide --table, or both -n and -m", file=sys.stderr)
        return 2
    print(count_hypotheses(args.target, args.clutter, args.n, args.m))
    return 0


def _cmd_kld(args) -> int:
    print(f"{poisson_nb_kld(args.mean, args.dispersion):.12g}")
    return 0


def _cmd_oracle(args) -> int:
    suite = {"update": check_update, "gibbs": check_gibbs, "composite": check_composite}[args.check]
    ok, report = suite(seed=args.seed)
    print(report)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmbm",
        description="Multi-target tracking with Poisson multi-Bernoulli mixture "
        "filters under arbitrary clutter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo tracking experiment")
    sim.add_argument("--config", help="scenario YAML file (built-in defaults if omitted)")
    sim.add_argument("--runs", type=int, help="override the number of Monte Carlo runs")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--out", required=True, help="directory for CSV/JSON outputs")
    sim.add_argument(
        "--filters",
        default=",".join(DEFAULT_FILTERS),
        help="comma-separated filters to run (" + ", ".join(ALL_FILTERS) + ")",
    )
    sim.set_defaults(func=_cmd_simulate)

    cnt = sub.add_parser("counts", help="hypothesis-count combinatorics")
    cnt.add_argument("--table", action="store_true", help="print the full reference table")
    cnt.add_argument("-n", type=int, help="number of existing tracks")
    cnt.add_argument("-m", type=int, help="number of measurements in the scan")
    cnt.add_argument("--target", choices=("point", "general"), default="point")
    cnt.add_argument("--clutter", choices=("ppp", "arbitrary"), default="ppp")
    cnt.set_defaults(func=_cmd_counts)

    kld = sub.add_parser("kld", help="Poisson approximation divergence for clutter")
    kld.add_argument("--mean", type=float, required=True, help="clutter mean")
    kld.add_argument("--dispersion", type=float, required=True, help="variance-to-mean ratio")
    kld.set_defaults(func=_cmd_kld)

    orc = sub.add_parser("oracle", help="self-check suites (slow, exhaustive)")
    orc.add_argument("--check", choices=("update", "gibbs", "composite"), required=True)
    orc.add_argument("--seed", type=int, default=0)
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PmbmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
