"""Command-line front end.

Subcommands: ``run`` (execute a config), ``bounds`` (print the certified
parameter tables for a config's cells), ``verify-compressor`` (empirical
bound certification) and ``replicate-section5`` (the pinned built-in
benchmark scenario).  Performance is measured by ``perfbench/run.py``.

Exit codes: 0 success, 1 run or verification failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .compressors import CompressorError, verify_assumption
from .config import ConfigError, spec_from_config
from .costs import CostError
from .graph import GraphError
from .harness import (
    ExperimentConfig,
    build_instance,
    reference_scenario_config,
    resolve,
    run_experiment,
)

# The package's own error classes that a config can raise; any other
# exception is a program bug and surfaces as a traceback.  The rule and
# bound errors a config can cause are ConfigErrors by the time they get
# here (harness._parse_cell and resolve).
_CONFIG_ERRORS = (ConfigError, CompressorError, CostError, GraphError)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _experiment_config(path: str, seed: int | None,
                       out: str | None = None) -> ExperimentConfig:
    """The config at ``path``, with the root seed of ``--seed`` and the
    output directory of ``--out``; a document that is no JSON object is
    left for ``from_dict`` to refuse."""
    doc = _load_config(path)
    if isinstance(doc, dict):
        doc = dict(doc)
        if seed is not None:
            doc["seeds"] = {"graph": seed + 1, "cost": seed + 2,
                            "algo": seed + 3}
        if out:
            doc["output_dir"] = out
    return ExperimentConfig.from_dict(doc)


def _seed(text: str) -> int:
    """A ``--seed``: argparse reports any but a nonnegative int (exit 2)."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative int, not {text!r}")
    return int(text)


def _print_rows(report: dict) -> bool:
    """One line per report row: its label, status and, when it reached the
    threshold, k, bits and percent; whether every row's status is ``ok``."""
    for row in report["rows"]:
        reach = ("unreached" if row["bits"] is None
                 else f"k={row['iters']:5d} bits={row['bits']}")
        pct = ("" if row["percent"] is None
               else f" ({row['percent']:.2f}% of baseline)")
        print(f"  {row['label']:34s} {row['status']:10s} {reach}{pct}")
    return all(row["status"] == "ok" for row in report["rows"])


def _cmd_run(args) -> int:
    cfg = _experiment_config(args.config, args.seed, args.out)
    report, paths = run_experiment(cfg, plot=args.gnuplot)
    ok = _print_rows(report)
    print(f"report: {paths[-1]}")
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    cfg = _experiment_config(args.config, args.seed)
    net, suite, x0, reference = build_instance(cfg)
    tables = {"sigma": net.sigma, "L_f": suite.L_f, "nu_pl": suite.nu_pl,
              "cells": {}}
    # the reference is solved only for a table that needs it
    for cell, _, region, _ in resolve(cfg, net, suite, x0,
                                      lambda: reference().f_star):
        if region is None:  # a practical exact cell: no region
            continue
        tables["cells"][cell.resolved_label()] = (
            {"error": str(region)} if isinstance(region, Exception)
            else vars(region))
    print(json.dumps(tables, indent=2, sort_keys=True, default=float))
    return 0


def _cmd_verify_compressor(args) -> int:
    doc = _load_config(args.spec)
    spec = spec_from_config(doc, args.d)
    rng = np.random.default_rng(args.seed)
    report = verify_assumption(spec, trials=args.trials, rng=rng)
    print(json.dumps({
        "kind": spec.kind, "class": spec.assumption_class,
        "trials": report.trials, "bound": report.bound,
        "max_observed_ratio": report.max_observed_ratio,
        "passed": report.passed,
        "violations": len(report.violations),
    }, indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_replicate(args) -> int:
    modes = ["practical", "certified"] if args.mode == "both" else [args.mode]
    rc = 0
    for mode in modes:
        iters = args.iters if mode == "practical" else min(args.iters, 1000)
        doc = reference_scenario_config(mode=mode, iters=iters,
                                        output_dir=args.out)
        cfg = ExperimentConfig.from_dict(doc)
        report, _ = run_experiment(cfg, plot=args.gnuplot)
        print(f"== {cfg.scenario} (threshold {cfg.threshold}) ==")
        if not _print_rows(report):
            rc = 1
    return rc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cgtsim",
        description="Communication-compressed gradient-tracking simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a run/experiment config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--seed", type=_seed, default=None,
                   help="root seed N: the graph, cost and algo seeds become "
                        "N+1, N+2 and N+3")
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a gnuplot script for the trace CSVs")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bounds", help="print certified parameter tables")
    p.add_argument("config")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify-compressor",
                       help="empirically certify a compressor's error bound")
    p.add_argument("spec", help="JSON file with the compressor config")
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_verify_compressor)

    p = sub.add_parser("replicate-section5",
                       help="run the built-in 20-agent benchmark scenario")
    p.add_argument("--out", default="out")
    p.add_argument("--iters", type=int, default=3000)
    p.add_argument("--mode", choices=["practical", "certified", "both"],
                   default="practical")
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(fn=_cmd_replicate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
