"""Command-line front end.

Subcommands: ``run`` (execute a config), ``bounds`` (print the certified
parameter tables for a config's cells), ``verify-compressor`` (empirical
bound certification) and ``replicate-section5`` (the pinned built-in
benchmark scenario).  Performance is measured by ``perfbench/run.py``.

Exit codes: 0 success, 1 run or verification failure, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .algorithms import AlgorithmError, initial_point
from .compressors import CompressorError, verify_assumption
from .config import ConfigError, spec_from_config
from .costs import CostError, solve_reference
from .graph import GraphError
from .harness import (
    ExperimentConfig,
    _replacing,
    build_instance,
    reference_scenario_config,
    resolve,
    run_experiment,
)

# The package's own error classes; any other exception is a program bug and
# surfaces as a traceback.
_CONFIG_ERRORS = (ConfigError, CompressorError, CostError, GraphError,
                  AlgorithmError, analysis.AnalysisError)


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


def _emit_gnuplot(outdir: Path, scenario: str, labels: list) -> None:
    lines = [
        "set logscale y", "set xlabel 'iteration k'",
        "set ylabel 'consensus error + optimality gap'",
        "set datafile separator ','", "set key outside",
    ]
    def quoted(text):  # gnuplot writes ' inside a '...' string as ''
        return "'" + text.replace("'", "''") + "'"

    plots = [f"{quoted(f'{scenario}__{lab}.csv')} using 1:($2+$3) with lines "
             f"title {quoted(lab)}" for lab in labels]
    lines.append("plot " + ", \\\n     ".join(plots))
    with _replacing(outdir / f"{scenario}__plot.gnuplot") as f:
        f.write("\n".join(lines) + "\n")


def _cmd_run(args) -> int:
    cfg = _experiment_config(args.config, args.seed, args.out)
    if args.force:
        for cell in cfg.cells:
            cell.force_params = True
    result = run_experiment(cfg)
    failed = [r for r in result.rows if r.status != "ok"]
    for row in result.rows:
        reach = ("unreached" if row.bits_to_threshold is None
                 else f"k={row.iters_to_threshold} bits={row.bits_to_threshold}")
        pct = ("" if row.percent_of_dgt is None
               else f" ({row.percent_of_dgt:.2f}% of baseline)")
        print(f"{row.label:32s} {row.status:10s} {reach}{pct}")
    print(f"report: {result.report_path}")
    if args.gnuplot:
        _emit_gnuplot(Path(cfg.output_dir), cfg.scenario,
                      [r.label for r in result.rows])
    return 1 if failed else 0


def _cmd_bounds(args) -> int:
    cfg = _experiment_config(args.config, args.seed)
    net, suite = build_instance(cfg)
    x0 = initial_point(net.n, suite.d, cfg.seeds["algo"])
    # solved at most once, and only for a table that needs it
    f_star = functools.cache(
        lambda: solve_reference(suite, tol=cfg.fstar_tol).f_star)
    tables = {"sigma": net.sigma, "L_f": suite.L_f, "nu_pl": suite.nu_pl,
              "cells": {}}
    for cell, *_, b in resolve(cfg, net, suite, x0, f_star, all_regions=True):
        if cell.spec is None:  # exact messages: no table
            continue
        label = cell.resolved_label()
        tables["cells"][label] = ({"error": str(b)}
                                  if isinstance(b, Exception) else vars(b))
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
        result = run_experiment(cfg)
        print(f"== {cfg.scenario} (threshold {cfg.threshold}) ==")
        for row in result.rows:
            reach = ("unreached" if row.bits_to_threshold is None else
                     f"k={row.iters_to_threshold:5d} bits={row.bits_to_threshold}")
            pct = ("" if row.percent_of_dgt is None
                   else f" ({row.percent_of_dgt:.2f}% of baseline)")
            print(f"  {row.label:34s} {row.status:10s} {reach}{pct}")
        if args.gnuplot:
            _emit_gnuplot(Path(cfg.output_dir), cfg.scenario,
                          [r.label for r in result.rows])
        if any(r.status != "ok" for r in result.rows):
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
    p.add_argument("--force", action="store_true",
                   help="skip certified-region parameter validation")
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
