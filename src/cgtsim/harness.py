"""Experiment orchestration: cells resolved on their instance, the runs,
the running-minimum metric, the bit ledger and the output files.

This module owns what a checked config (``config``) means: ``from_dict``
parses each cell's spec and merges its params once, and ``resolve`` is the
one place a cell is resolved.  In one pass it gives each cell, for ``run``
and ``bounds`` alike, the params it runs, its certified region and what
``run`` refuses it for.  Every certified or compressed cell gets a region,
``cell_region``, picked by its compressor class.  A ``"certified"`` cell
runs the region's operating point and may give only the region's inputs
(``_REGION_INPUTS``).  A ``"practical"`` cell's params must lie in the
region unless ``force_params`` is set; a locally bounded region, which
fixes s0 and mu together with eta and gamma, certifies none.  The exact
rule asks only gamma < 1 and eta <= 1/L_f.  Every cell shares the network,
cost instance, reference value and initial point.  The ledger bills each
cell's bits per iteration once, in Python ints, so the cumulative ``bits``
column is exact at any size.  Trace CSVs carry the columns ``CSV_HEADER``,
a JSON sidecar the fully resolved cell, and the report one row per cell,
the only record of its outcome.  Reruns are byte-identical only at one BLAS
thread count: OpenBLAS rounds a large product or eigensolve that it splits
across threads differently at another count, such as the mixing product
and sigma at n = 1000 (README "Conventions" lists what moved).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analysis
from .algorithms import (
    RULES,
    AlgorithmError,
    AlgorithmParams,
    RunTrace,
    auto_s0,
    initial_point,
    practical_params,
    run,
)
from .compressors import (
    GLOBAL_ABSOLUTE,
    LOCAL_ABSOLUTE,
    RELATIVE,
    BitCostModel,
    CompressorSpec,
    bit_cost,
    make_compressor,
)
from .config import DOCUMENT, ConfigError, check_config, spec_from_config
from .costs import generate_suite, grad_all, mean_value, solve_reference
from .graph import generate_network

CSV_HEADER = "k,consensus_err,opt_gap,stationarity,lyapunov,bits"


@dataclass
class CellConfig:
    algo: str
    compressor: dict | None = None
    params: dict = field(default_factory=dict)
    mode: str = "practical"        # practical | certified
    force_params: bool = False
    label: str | None = None
    # set by from_dict: the compressor's spec and the merged params
    spec: CompressorSpec | None = field(default=None, init=False)
    merged: AlgorithmParams | None = field(default=None, init=False)

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        comp = (self.compressor or {}).get("kind", "exact")
        suffix = "" if self.mode == "practical" else f"_{self.mode}"
        return f"{self.algo}_{comp}{suffix}"


@dataclass
class ExperimentConfig:
    scenario: str
    iters: int
    network: dict
    cost: dict
    seeds: dict
    cells: list
    threshold: float = 1e-3
    bit_model: BitCostModel = field(default_factory=BitCostModel)
    broadcast: bool = True
    output_dir: str = "out"
    fstar_tol: float = 1e-9

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """The config of a document (``config.DOCUMENT``), whose cells may
        also be given in the single-run form: one cell's keys at the top
        level.  Each cell is parsed (``_parse_cell``) and has its own label."""
        if isinstance(doc, dict) and "cells" not in doc and "algo" in doc:
            doc = dict(doc)
            doc["cells"] = [{f.name: doc.pop(f.name) for f in fields(CellConfig)
                             if f.init and f.name in doc}]
        doc = check_config(doc, DOCUMENT, "config")
        doc["cells"] = [_parse_cell(CellConfig(**cell), doc["cost"]["d"])
                        for cell in doc["cells"]]
        if "bit_model" in doc:
            doc["bit_model"] = BitCostModel(**doc["bit_model"])
        labels = [cell.resolved_label() for cell in doc["cells"]]
        dup = sorted({lab for lab in labels if labels.count(lab) > 1})
        if dup:
            raise ConfigError(f"cells share the labels {dup}; each cell "
                              "needs its own output files")
        return ExperimentConfig(**doc)


def _parse_cell(cell: CellConfig, d: int) -> CellConfig:
    """``cell`` with its spec parsed and its params merged, once; and the
    rules that span its keys: its certified region's inputs and its merged
    params."""
    rule, label = RULES[cell.algo], cell.resolved_label()
    if cell.compressor is not None:
        cell.spec = spec_from_config(cell.compressor, d)
    if cell.mode == "certified":
        try:
            inputs = _REGION_INPUTS[_region_class(rule, cell.spec)]
        except ConfigError as exc:
            raise ConfigError(f"cell {label}: no certified region: "
                              f"{exc}") from None
        derived = [key for key in cell.params if key not in inputs]
        if derived:
            raise ConfigError(
                f"cell {label}: certified mode derives {derived[0]!r} from "
                'the region; use mode "practical" to run a given value')
    cell.merged = AlgorithmParams(**{**vars(practical_params(cell.algo)),
                                     **cell.params})
    try:
        cell.merged.validate(cell.algo)
    except AlgorithmError as exc:
        raise ConfigError(f"cell {label}: {exc}") from None
    return cell


def upsilon_series(trace: RunTrace) -> np.ndarray:
    return np.minimum.accumulate(trace.consensus_err + trace.opt_gap)


def bits_to_threshold(ups: np.ndarray, bpi: int, threshold: float):
    """(k, k * ``bpi``), the iterations and the bits sent at ``bpi`` a step,
    where a trace's running minimum ``ups`` first reaches the threshold;
    None when it never does."""
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    hit = np.nonzero(ups <= threshold)[0]
    if len(hit) == 0:
        return None
    k = int(hit[0])
    return k, k * bpi


def per_iteration_bits(algo: str, comp: CompressorSpec | None,
                       model: BitCostModel, net, d: int,
                       broadcast: bool = True) -> int:
    """Payload bits transmitted network-wide in one iteration; an exact
    rule's messages are billed as the identity compressor's."""
    per_vec = bit_cost(comp or make_compressor("identity", d), model)
    senders = net.n if broadcast else int(net.out_degrees().sum())
    return senders * len(RULES[algo].messages) * per_vec


# the params each compressor class's region reads from a cell; certified
# mode derives the rest of the rule's params from the region
_REGION_INPUTS = {RELATIVE: ("phi_x", "phi_y"),
                  GLOBAL_ABSOLUTE: ("s0", "mu"), LOCAL_ABSOLUTE: ()}


def _region_class(rule, comp: CompressorSpec | None) -> str:
    """The compressor class whose theorem certifies ``rule`` with ``comp``.

    The exact rule takes the identity compressor's relative class.  The
    identity compressor makes no error, so it takes the first class its rule
    is certified for."""
    if not rule.classes:
        return RELATIVE
    if comp.kind == "identity":
        return rule.classes[0]
    if comp.assumption_class not in rule.classes:
        raise ConfigError(
            f"{rule.name} expects a compressor class in {rule.classes}, got "
            f"{comp.assumption_class} ({comp.kind})")
    return comp.assumption_class


def cell_region(rule, cls: str, comp: CompressorSpec | None, inputs: dict,
                net, suite, x0, f_star) -> analysis.ParameterBounds:
    """The certified region of one cell, with its operating point.

    The calculator follows ``cls``, the cell's ``_region_class``, and, in
    the relative class, whether the rule sends error feedback.  It reads the
    class's ``_REGION_INPUTS`` from ``inputs`` (phi_x, phi_y default 1/(2r);
    s0 ``auto_s0``; mu 0.995), and a locally bounded one ``f_star()``."""
    if not rule.classes:
        comp = make_compressor("identity", suite.d)
    if cls == RELATIVE:
        fn = (analysis.bounds_error_feedback if rule.feedback
              else analysis.bounds_relative)
        b = fn(net.sigma, suite.L_f, comp, inputs.get("phi_x", 0.5 / comp.r),
               inputs.get("phi_y", 0.5 / comp.r))
    elif cls == GLOBAL_ABSOLUTE:
        b = analysis.bounds_absolute_global(
            net.sigma, suite.L_f, net.n, suite.d, comp.cap_c,
            mu=float(inputs.get("mu", 0.995)))
        b.s0 = float(inputs["s0"] if "s0" in inputs else auto_s0(x0, suite))
    else:
        if suite.nu_pl is None:
            raise ConfigError(
                "certified scaled-local runs need a cost with a "
                "known gradient-dominance constant")
        y0 = grad_all(suite, x0)
        xbar = x0.mean(axis=0)
        ybar = y0.mean(axis=0)
        b = analysis.bounds_scaled_local(
            net.sigma, suite.L_f, suite.nu_pl, comp.phi_c, net.n, suite.d,
            cons0=float(((x0 - xbar) ** 2).sum()),
            track0=float(((y0 - ybar) ** 2).sum()),
            gap0=net.n * (mean_value(suite, xbar) - f_star()),
            x0_norm_max=float(np.linalg.norm(x0, axis=1).max()),
            y0_norm_max=float(np.linalg.norm(y0, axis=1).max()))
    return b


def _refusal(cell, cls: str | None, params: AlgorithmParams, region,
             L_f: float) -> Exception | None:
    """What ``run`` refuses a resolved cell for, or None: a certified cell
    with no region; a practical one, unless force_params, whose region is
    missing or locally bounded, or whose params lie outside it (the eta
    limit taken at the given gamma; gamma < 1 and eta <= 1/L_f for dgt)."""
    rule, label = RULES[cell.algo], cell.resolved_label()
    missing = isinstance(region, Exception)
    if cell.mode == "certified" or cell.force_params:
        return region if missing and cell.mode == "certified" else None
    if not rule.classes:
        inside = params.gamma < 1.0 and params.eta <= 1.0 / L_f
    else:
        why = region if missing else None
        if cls == LOCAL_ABSOLUTE:
            why = ("a locally bounded region fixes s0 and mu together with "
                   'eta and gamma, so it certifies no given params; use mode '
                   '"certified"')
        if why is not None:
            return ConfigError(
                f"cell {label}: parameters cannot be certified ({why}); set "
                "force_params to run anyway")
        c = region.constants
        eta_max = min(analysis.eta_terms_relative(
            c["sigma"], c["L_f"], c["c1"], c["c2"], params.gamma).values())
        inside = (params.gamma < region.gamma_max and params.eta < eta_max
                  and (region.varsigma_max is None
                       or params.varsigma < region.varsigma_max))
    return None if inside else ConfigError(
        f"cell {label}: parameters outside the certified region; set "
        "force_params to run anyway")


def resolve(cfg: ExperimentConfig, net, suite, x0, f_star) -> list:
    """Each cell of ``cfg`` on the instance, for ``run`` and ``bounds``
    alike: ``(cell, params, region, refusal)``.  The params are the merged
    ones (``auto_s0`` for a scaled rule's unset s0) or a certified cell's
    operating point, the only thing its mode picks: the run derives its
    Lyapunov function from them.  Every certified or compressed cell gets a
    ``region`` of the class picked for it, or the error that says why there
    is none.  ``refusal`` is ``_refusal``'s; ``bounds`` ignores it."""
    out = []
    for cell in cfg.cells:
        rule, certified = RULES[cell.algo], cell.mode == "certified"
        params, cls, region = cell.merged, None, None
        if not certified and rule.scaled and "s0" not in cell.params:
            params = replace(params, s0=auto_s0(x0, suite))
        if certified or rule.classes:
            try:
                cls = _region_class(rule, cell.spec)
                region = cell_region(
                    rule, cls, cell.spec, cell.params if certified
                    else vars(params), net, suite, x0, f_star)
            except (ConfigError, analysis.AnalysisError) as exc:
                # with its traceback, its frames would keep the instance alive
                region = exc.with_traceback(None)
        if certified and not isinstance(region, Exception):
            c = region.constants
            params = AlgorithmParams(**{
                k: c[k] if k in ("phi_x", "phi_y") else getattr(region, k)
                for k in rule.params})
        out.append((cell, params, region,
                    _refusal(cell, cls, params, region, suite.L_f)))
    return out


@contextmanager
def _replacing(path: Path):
    """A text file open on a temp file beside ``path``; moved onto ``path``
    by ``os.replace`` when the block completes, and removed if it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(doc: dict, path: Path) -> None:
    with _replacing(path) as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True, default=float)
                + "\n")


def write_trace_csv(trace: RunTrace, path: Path, bpi: int) -> None:
    """One line per row k: k and its bits k * ``bpi`` as exact ints, the
    rest by ``repr`` of the float, which reads back to the same bits.  The
    file appears whole or not at all."""
    floats = (np.asarray(c, dtype=np.float64).tolist() for c in (
        trace.consensus_err, trace.opt_gap, trace.stationarity, trace.lyapunov))
    ks = range(len(trace))
    rows = zip(ks, *floats, (k * bpi for k in ks))
    with _replacing(Path(path)) as f:
        f.write(CSV_HEADER + "\n")
        f.writelines("%d,%r,%r,%r,%r,%d\n" % row for row in rows)


def build_instance(cfg: ExperimentConfig):
    """The network and cost suite that every cell of ``cfg`` shares."""
    net = generate_network(cfg.network["n"], cfg.network.get("edge_density"),
                           cfg.seeds["graph"],
                           topology=cfg.network["topology"])
    cost_kwargs = {k: v for k, v in cfg.cost.items()
                   if k not in ("kind", "d")}
    suite = generate_suite(cfg.cost["kind"], net.n, cfg.cost["d"],
                           cfg.seeds["cost"], **cost_kwargs)
    return net, suite


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Execute every cell on a shared instance and write CSVs plus a report;
    return ``(report, paths)``: the report written, whose rows are the only
    record of the cells, and each file written, the report last.

    Cell failures (diverged runs) are recorded per cell; remaining cells
    still execute.  Config problems, a cell that ``resolve`` refuses among
    them, raise ConfigError before any file is written.  A report from an
    earlier run is removed before the first cell file is written, and each
    file is written to a temp file and moved into place, so an interrupted
    run leaves no report and no partial file.
    """
    outdir = Path(cfg.output_dir)
    # the nearest path of outdir and its parents that is there must be a
    # directory, or mkdir fails after the set-up
    there = next(p for p in (outdir, *outdir.parents)
                 if p.exists() or p.is_symlink())
    if not there.is_dir():
        raise ConfigError(f"output_dir {cfg.output_dir!r}: {str(there)!r} is "
                          f"not a directory")
    # and every name a run writes, its temp files the longest, must fit
    # there; the plot script's counts with or without --gnuplot
    name_max = os.pathconf(there, "PC_NAME_MAX")
    for tail in ["plot.gnuplot", *(c.resolved_label() + ".json"
                                   for c in cfg.cells)]:
        name = f"{cfg.scenario}__{tail}.tmp"
        if len(os.fsencode(name)) > name_max:
            raise ConfigError(f"file name {name!r} is longer than the "
                              f"{name_max} bytes {str(there)!r} allows")
    net, suite = build_instance(cfg)
    ref = solve_reference(suite, tol=cfg.fstar_tol)
    x0 = initial_point(net.n, suite.d, cfg.seeds["algo"])

    resolved = resolve(cfg, net, suite, x0, lambda: ref.f_star)
    for *_, refusal in resolved:  # before touching the disk
        if refusal is not None:
            raise refusal

    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / f"{cfg.scenario}__report.json"
    report_path.unlink(missing_ok=True)
    rows, paths, baseline = [], [], None
    for cell, params, region, _ in resolved:
        label, comp = cell.resolved_label(), cell.spec
        bpi = per_iteration_bits(cell.algo, comp, cfg.bit_model, net,
                                 suite.d, cfg.broadcast)
        trace = run(cell.algo, cfg.iters, net, suite, params, comp,
                    seed=cfg.seeds["algo"], x0=x0, f_star=ref.f_star,
                    x_star=ref.x_star)
        csv_path = outdir / f"{cfg.scenario}__{label}.csv"
        json_path = csv_path.with_suffix(".json")
        write_trace_csv(trace, csv_path, bpi)
        ups = upsilon_series(trace)
        iters, bits = (bits_to_threshold(ups, bpi, cfg.threshold)
                       or (None, None))
        row = {"label": label, "algo": cell.algo,
               "compressor": comp.kind if comp else "exact",
               "status": trace.status, "iters": iters, "bits": bits,
               "percent": None, "unreached": bits is None,
               "upsilon_final": float(ups[-1])}
        sidecar = {
            "scenario": cfg.scenario, "label": label, "algo": cell.algo,
            "mode": cell.mode,
            "compressor": cell.compressor,
            "params": vars(params),
            "seeds": cfg.seeds, "bits_per_iteration": bpi,
            "sigma": net.sigma, "L_f": suite.L_f, "nu_pl": suite.nu_pl,
            "f_star": ref.f_star, "f_star_certified": ref.certified,
            "status": trace.status, "failed_at": trace.failed_at,
            "diagnostics": trace.diagnostics, "lyapunov": trace.lyapunov_name,
        }
        if cell.mode == "certified":
            sidecar["bounds"] = region.constants
        _write_json(sidecar, json_path)
        paths += [csv_path, json_path]
        if not RULES[cell.algo].classes and baseline is None:
            baseline = row
        rows.append(row)

    if baseline is not None and baseline["bits"]:
        for row in rows:
            if row["bits"] is not None:
                row["percent"] = 100.0 * row["bits"] / baseline["bits"]

    report = {
        "scenario": cfg.scenario,
        "threshold": cfg.threshold,
        "sigma": net.sigma,
        "f_star": ref.f_star,
        "rows": rows,
        "baseline": None if baseline is None else {
            "label": baseline["label"], "iters": baseline["iters"],
            "bits": baseline["bits"], "percent": 100.0,
        },
    }
    _write_json(report, report_path)
    return report, paths + [report_path]


def reference_scenario_config(mode: str = "practical", iters: int = 3000,
                              output_dir: str = "out") -> dict:
    """The pinned 20-agent, 50-dimensional benchmark scenario.

    Practical cells mirror the aggressive operating points (eta=0.8,
    gamma=0.3, phi_x=0.3, phi_y=0.1, varsigma=0.3; eta=0.4, gamma=0.6 for the
    scaled tracker); certified cells derive parameters from the bounds
    calculators.  The cost scale .1 keeps those step sizes stable on this
    instance.
    """
    cells_practical = [
        {"algo": "dgt", "params": {"eta": 0.8, "gamma": 0.3}},
        {"algo": "alg1", "compressor": {"kind": "norm_sign"},
         "params": {"eta": 0.8, "gamma": 0.3, "phi_x": 0.3, "phi_y": 0.1},
         "force_params": True},
        {"algo": "alg2", "compressor": {"kind": "norm_sign"},
         "params": {"eta": 0.8, "gamma": 0.3, "phi_x": 0.3, "phi_y": 0.1,
                    "varsigma": 0.3},
         "force_params": True},
        {"algo": "alg3", "compressor": {"kind": "uniform_quantize",
                                        "delta": 2.0},
         "params": {"eta": 0.4, "gamma": 0.6, "mu": 0.98},
         "force_params": True},
        {"algo": "alg3", "compressor": {"kind": "one_bit"},
         "params": {"eta": 0.4, "gamma": 0.6, "mu": 0.98},
         "force_params": True},
    ]
    cells_certified = [
        {"algo": "alg1", "compressor": {"kind": "norm_sign"},
         "mode": "certified"},
        {"algo": "alg2", "compressor": {"kind": "norm_sign"},
         "mode": "certified"},
        {"algo": "alg3", "compressor": {"kind": "uniform_quantize",
                                        "delta": 2.0},
         "mode": "certified"},
    ]
    if mode == "practical":
        cells = cells_practical
    elif mode == "certified":
        cells = cells_certified
    elif mode == "both":
        cells = cells_practical + cells_certified
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return {
        "scenario": f"reference_{mode}",
        "iters": iters,
        "threshold": 1e-3,
        "network": {"n": 20, "edge_density": 0.35, "topology": "random"},
        "cost": {"kind": "logistic_log", "d": 50, "scale": 0.1,
                 "abs_m": True},
        "seeds": {"graph": 101, "cost": 202, "algo": 404},
        "bit_model": {"bits_int": 4},
        "broadcast": True,
        "output_dir": output_dir,
        "cells": cells,
    }
