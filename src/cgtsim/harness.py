"""Experiment orchestration: configs, the running-minimum metric, bit ledgers.

A config is one human-editable JSON document.  Single-run form (top-level
``algo``) or experiment form (``cells`` list); every cell shares the same
network, cost instance, reference value, and initial point, so compressors
and algorithms are compared on identical footing.

Trace CSVs carry the columns ``k,consensus_err,opt_gap,stationarity,
lyapunov,bits``; a JSON sidecar records the fully resolved cell
configuration.  Reruns with the same config are byte-identical.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .algorithms import (
    MESSAGES_PER_AGENT,
    AlgorithmParams,
    RunTrace,
    auto_s0,
    initial_point,
    practical_params,
    run,
)
from .compressors import (
    BitCostModel,
    CompressorSpec,
    bit_cost,
    spec_from_config,
)
from .costs import generate_suite, solve_reference
from .graph import generate_network

CSV_HEADER = "k,consensus_err,opt_gap,stationarity,lyapunov,bits"


class ConfigError(ValueError):
    pass


_BOOL = ("a bool", lambda v: isinstance(v, bool))

# generate_suite's optional keywords, each with what its value must be
_COST_OPTIONS = {
    "abs_m": _BOOL,
    "consistent": _BOOL,
    "normalize": _BOOL,
    "rows": ("a positive int",
             lambda v: (isinstance(v, numbers.Integral)
                        and not isinstance(v, bool) and v >= 1)),
    "scale": ("a finite number",
              lambda v: (isinstance(v, numbers.Real)
                         and not isinstance(v, bool) and math.isfinite(v))),
}


@dataclass
class CellConfig:
    algo: str
    compressor: dict | None = None
    params: dict = field(default_factory=dict)
    mode: str = "practical"        # practical | certified
    force_params: bool = False
    label: str = ""

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        comp = (self.compressor or {}).get("kind", "exact")
        suffix = "" if self.mode == "practical" else f"_{self.mode}"
        return f"{self.algo}_{comp}{suffix}"


@dataclass
class ExperimentConfig:
    scenario: str
    iters: int
    threshold: float
    network: dict
    cost: dict
    seeds: dict
    cells: list
    bit_model: BitCostModel = field(default_factory=BitCostModel)
    broadcast: bool = True
    output_dir: str = "out"
    fstar_tol: float = 1e-9

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        if "cells" not in doc and "algo" in doc:
            cell_keys = ("algo", "compressor", "params", "mode",
                         "force_params", "label")
            doc["cells"] = [{k: doc.pop(k) for k in cell_keys if k in doc}]
        if "cells" not in doc:
            raise ConfigError("config needs either 'cells' or a top-level "
                              "'algo' single-run form")
        try:
            cells = [CellConfig(**c) for c in doc.pop("cells")]
        except TypeError as exc:
            raise ConfigError(f"bad cell entry: {exc}") from None
        bm = doc.pop("bit_model", {})
        try:
            cfg = ExperimentConfig(
                scenario=doc.pop("scenario"),
                iters=int(doc.pop("iters")),
                threshold=float(doc.pop("threshold", 1e-3)),
                network=doc.pop("network"),
                cost=doc.pop("cost"),
                seeds=doc.pop("seeds"),
                cells=cells,
                bit_model=BitCostModel(bits_scalar=bm.get("bits_scalar", 64),
                                       bits_int=bm.get("bits_int", 4)),
                broadcast=bool(doc.pop("broadcast", True)),
                output_dir=doc.pop("output_dir", "out"),
                fstar_tol=float(doc.pop("fstar_tol", 1e-9)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        if doc:
            raise ConfigError(f"unknown config keys: {sorted(doc)}")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not self.cells:
            raise ConfigError("need at least one cell")
        if self.iters < 1:
            raise ConfigError("iters must be >= 1")
        if self.threshold <= 0:
            raise ConfigError("threshold must be positive")
        for key in ("graph", "cost", "algo"):
            if key not in self.seeds:
                raise ConfigError(f"missing seed {key!r}")
        for key in ("n", "edge_density"):
            if key not in self.network:
                raise ConfigError(f"missing network key {key!r}")
        for key in ("kind", "d"):
            if key not in self.cost:
                raise ConfigError(f"missing cost key {key!r}")
        try:  # the values build_instance and run_experiment convert
            for v in (self.network["n"], self.cost["d"], self.seeds["graph"],
                      self.seeds["cost"], self.seeds["algo"]):
                int(v)
            float(self.network["edge_density"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        for key, value in self.cost.items():
            if key in ("kind", "d"):
                continue
            if key not in _COST_OPTIONS:
                raise ConfigError(f"unknown cost key {key!r}")
            what, ok = _COST_OPTIONS[key]
            if not ok(value):
                raise ConfigError(f"cost {key!r} must be {what}, not "
                                  f"{value!r}")
        for cell in self.cells:
            if cell.algo not in MESSAGES_PER_AGENT:
                raise ConfigError(f"unknown algorithm {cell.algo!r}")
            if cell.mode not in ("practical", "certified"):
                raise ConfigError(f"unknown mode {cell.mode!r}")
            if cell.algo != "dgt" and cell.compressor is None:
                raise ConfigError(f"cell {cell.resolved_label()} needs a "
                                  "compressor")
            if cell.compressor is not None:  # checked before any output
                spec_from_config(cell.compressor, int(self.cost["d"]))


def upsilon_series(trace: RunTrace) -> np.ndarray:
    return np.minimum.accumulate(trace.consensus_err + trace.opt_gap)


def bits_to_threshold(trace: RunTrace, threshold: float):
    """(iterations, cumulative bits) at the first running-minimum crossing;
    None when the trace never reaches the threshold."""
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    ups = upsilon_series(trace)
    hit = np.nonzero(ups <= threshold)[0]
    if len(hit) == 0:
        return None
    k = int(hit[0])
    return k, int(trace.bits[k])


def per_iteration_bits(algo: str, comp: CompressorSpec | None,
                       model: BitCostModel, net, d: int,
                       broadcast: bool = True) -> int:
    """Payload bits transmitted network-wide in one iteration."""
    per_vec = (d * model.bits_scalar if comp is None
               else bit_cost(comp, model, d))
    msgs = MESSAGES_PER_AGENT[algo]
    if broadcast:
        return net.n * msgs * per_vec
    return int(net.out_degrees().sum()) * msgs * per_vec


_CLASS_FOR_ALGO = {"alg1": ("relative",), "alg2": ("relative",),
                   "alg3": ("global_absolute", "local_absolute")}


def _check_pairing(algo: str, comp: CompressorSpec | None,
                   force: bool) -> None:
    if algo == "dgt" or comp is None:
        return
    if comp.kind == "identity":
        return
    allowed = _CLASS_FOR_ALGO[algo]
    if comp.assumption_class not in allowed and not force:
        raise ConfigError(
            f"{algo} expects a compressor class in {allowed}, got "
            f"{comp.assumption_class} ({comp.kind}); set force_params to "
            "override")


def certified_cell(cell: CellConfig, net, suite, comp, x0, f_star):
    """Certified parameters of one cell and the bounds they come from.

    ``run`` resolves its certified cells here and ``bounds`` prints these
    tables for every cell but dgt, so the two cannot drift.  ``f_star`` is a
    callable giving the reference value; only alg3 with a local-absolute
    compressor calls it, for the initial optimality gap.

    Returns ``(bounds, params, lyap_kind, lyap_aux, extras)``; ``extras``
    holds the sidecar fields the certification adds.
    """
    d = suite.d
    lyap_aux = 0.0
    lyap_kind = None
    extras: dict = {}
    if cell.algo in ("alg1", "alg2"):
        px = cell.params.get("phi_x", 0.5 / comp.r)
        py = cell.params.get("phi_y", 0.5 / comp.r)
        fn = (analysis.bounds_relative if cell.algo == "alg1"
              else analysis.bounds_error_feedback)
        b = fn(net.sigma, suite.L_f, comp, px, py)
        params = AlgorithmParams(eta=b.eta, gamma=b.gamma, phi_x=px,
                                 phi_y=py, varsigma=b.varsigma or 0.0)
        if cell.algo == "alg2":
            lyap_aux = b.constants["phi_hat"]
    elif cell.algo == "alg3":
        if comp.assumption_class == "local_absolute":
            if suite.nu_pl is None:
                raise ConfigError(
                    "certified scaled-local runs need a cost with a "
                    "known gradient-dominance constant")
            y0 = _initial_tracker(suite, x0)
            xbar = x0.mean(axis=0)
            ybar = y0.mean(axis=0)
            from .costs import mean_value

            b = analysis.bounds_scaled_local(
                net.sigma, suite.L_f, suite.nu_pl, comp.phi_c,
                comp.p_norm, net.n, d,
                cons0=float(((x0 - xbar) ** 2).sum()),
                track0=float(((y0 - ybar) ** 2).sum()),
                gap0=net.n * (mean_value(suite, xbar) - f_star()),
                x0_norm_max=float(np.linalg.norm(x0, axis=1).max()),
                y0_norm_max=float(np.linalg.norm(y0, axis=1).max()))
            params = AlgorithmParams(eta=b.eta, gamma=b.gamma,
                                     s0=b.s0, mu=b.mu)
            lyap_kind = 3
            lyap_aux = b.constants["phi_tilde"]
            extras["lyapunov"] = "scaled"
        else:
            mu = float(cell.params.get("mu", 0.995))
            s0 = float(cell.params.get("s0", auto_s0(x0, suite)))
            b = analysis.bounds_absolute_global(
                net.sigma, suite.L_f, net.n, d, comp.cap_c,
                p=comp.p_norm, mu=mu)
            params = AlgorithmParams(eta=b.eta, gamma=b.gamma,
                                     s0=s0, mu=mu)
            extras["slack_coefficient"] = b.constants["breve_theta8"]
    else:  # certified baseline: reuse the exact-compressor region
        from .compressors import make_compressor

        b = analysis.bounds_relative(net.sigma, suite.L_f,
                                     make_compressor("identity", d),
                                     0.5, 0.5)
        params = AlgorithmParams(eta=b.eta, gamma=b.gamma)
    extras["bounds"] = b.constants
    return b, params, lyap_kind, lyap_aux, extras


def _resolve_cell(cell: CellConfig, cfg: ExperimentConfig, net, suite,
                  x0, f_star):
    """Compressor spec, parameters, and Lyapunov constants for one cell."""
    comp = None
    if cell.compressor is not None:
        comp = spec_from_config(cell.compressor, suite.d)
    _check_pairing(cell.algo, comp, cell.force_params)
    phi_w = analysis.lyapunov_weight(net.sigma, suite.L_f)
    lyap_aux = 0.0
    lyap_kind = None
    extras: dict = {"lyapunov": {"alg1": "full", "alg2": "ef",
                                 "alg3": "consensus",
                                 "dgt": "consensus"}[cell.algo]}

    if cell.mode == "certified":
        _, params, lyap_kind, lyap_aux, cert = certified_cell(
            cell, net, suite, comp, x0, lambda: f_star)
        extras.update(cert)
    else:
        base = practical_params(cell.algo)
        merged = {"eta": base.eta, "gamma": base.gamma, "phi_x": base.phi_x,
                  "phi_y": base.phi_y, "varsigma": base.varsigma,
                  "s0": base.s0, "mu": base.mu}
        merged.update(cell.params)
        if cell.algo == "alg3" and "s0" not in cell.params:
            merged["s0"] = auto_s0(x0, suite)
        params = AlgorithmParams(**merged)
        if not cell.force_params:
            _certify_practical(cell, cfg, net, suite, comp, params)
        if cell.algo == "alg2":
            try:
                c1, c2 = analysis.mixing_constants(params.phi_x, params.phi_y,
                                                   comp.r, comp.psi)
                lyap_aux = analysis.ef_weight(c1, c2, comp.cap_c)
            except analysis.AnalysisError:
                lyap_aux = 0.0  # heuristic gains outside (0, 1/r): report raw sum
    return comp, params, phi_w, lyap_kind, lyap_aux, extras


def _initial_tracker(suite, x0):
    from .costs import grad_all

    return grad_all(suite, x0)


def _certify_practical(cell, cfg, net, suite, comp, params):
    """Reject uncertified parameters unless force_params is set."""
    try:
        if cell.algo == "alg1":
            b = analysis.bounds_relative(net.sigma, suite.L_f, comp,
                                         params.phi_x, params.phi_y)
            ok = params.gamma < b.gamma_max
            if ok:
                ets = analysis.eta_terms_relative(
                    net.sigma, suite.L_f, b.constants["c1"],
                    b.constants["c2"], params.gamma)
                ok = params.eta < min(ets.values())
        elif cell.algo == "alg2":
            b = analysis.bounds_error_feedback(net.sigma, suite.L_f, comp,
                                               params.phi_x, params.phi_y)
            ok = (params.gamma < b.gamma_max
                  and params.varsigma < b.varsigma_max)
            if ok:
                ets = analysis.eta_terms_relative(
                    net.sigma, suite.L_f, b.constants["c1"],
                    b.constants["c2"], params.gamma)
                ok = params.eta < min(ets.values())
        elif cell.algo == "alg3":
            b = analysis.bounds_absolute_global(net.sigma, suite.L_f, net.n,
                                                suite.d,
                                                getattr(comp, "cap_c", 0.0))
            ok = params.gamma < b.gamma_max and params.eta < b.eta_max
        else:
            ok = params.gamma < 1.0 and params.eta <= 1.0 / suite.L_f
    except analysis.AnalysisError as exc:
        raise ConfigError(
            f"cell {cell.resolved_label()}: parameters cannot be certified "
            f"({exc}); set force_params to run anyway") from None
    if not ok:
        raise ConfigError(
            f"cell {cell.resolved_label()}: parameters outside the certified "
            "region; set force_params to run anyway")


@dataclass
class CellResult:
    label: str
    algo: str
    compressor: str
    status: str
    iters_to_threshold: int | None
    bits_to_threshold: int | None
    percent_of_dgt: float | None
    upsilon_final: float
    csv_path: str
    trace: RunTrace = None


@dataclass
class ExperimentResult:
    scenario: str
    threshold: float
    rows: list
    baseline: CellResult | None
    report_path: str
    f_star: float
    sigma: float


def _fmt(v: float) -> str:
    return repr(float(v))


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    lines = [CSV_HEADER]
    for i in range(len(trace)):
        lines.append(",".join([
            str(int(trace.k[i])), _fmt(trace.consensus_err[i]),
            _fmt(trace.opt_gap[i]), _fmt(trace.stationarity[i]),
            _fmt(trace.lyapunov[i]), str(int(trace.bits[i]))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_instance(cfg: ExperimentConfig):
    """The network and cost suite that every cell of ``cfg`` shares."""
    net = generate_network(int(cfg.network["n"]),
                           float(cfg.network["edge_density"]),
                           int(cfg.seeds["graph"]),
                           topology=cfg.network.get("topology", "random"))
    cost_kwargs = {k: v for k, v in cfg.cost.items()
                   if k not in ("kind", "d")}
    suite = generate_suite(cfg.cost["kind"], net.n, int(cfg.cost["d"]),
                           int(cfg.seeds["cost"]), **cost_kwargs)
    return net, suite


def run_experiment(cfg: ExperimentConfig, *,
                   keep_traces: bool = False) -> ExperimentResult:
    """Execute every cell on a shared instance and write CSVs plus a report.

    Cell failures (diverged runs) are recorded per cell; remaining cells
    still execute.  Config problems raise ConfigError before any file is
    written.
    """
    net, suite = build_instance(cfg)
    ref = solve_reference(suite, tol=cfg.fstar_tol)
    x0 = initial_point(net.n, suite.d, int(cfg.seeds["algo"]))

    resolved = []
    for cell in cfg.cells:  # resolve everything before touching the disk
        resolved.append((cell, *_resolve_cell(cell, cfg, net, suite, x0,
                                              ref.f_star)))

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    results: list[CellResult] = []
    baseline: CellResult | None = None
    for cell, comp, params, phi_w, lyap_kind, lyap_aux, extras in resolved:
        label = cell.resolved_label()
        bpi = per_iteration_bits(cell.algo, comp, cfg.bit_model, net,
                                 suite.d, cfg.broadcast)
        trace = run(cell.algo, cfg.iters, net, suite, params, comp,
                    seed=int(cfg.seeds["algo"]), x0=x0, f_star=ref.f_star,
                    x_star=ref.x_star,
                    lyap_kind=lyap_kind, lyap_phi=phi_w, lyap_aux=lyap_aux,
                    bits_per_iter=bpi)
        csv_path = outdir / f"{cfg.scenario}__{label}.csv"
        write_trace_csv(trace, csv_path)
        hit = bits_to_threshold(trace, cfg.threshold)
        res = CellResult(
            label=label, algo=cell.algo,
            compressor=comp.kind if comp else "exact",
            status=trace.status,
            iters_to_threshold=hit[0] if hit else None,
            bits_to_threshold=hit[1] if hit else None,
            percent_of_dgt=None,
            upsilon_final=float(upsilon_series(trace)[-1]),
            csv_path=str(csv_path),
            trace=trace if keep_traces else None)
        sidecar = {
            "scenario": cfg.scenario, "label": label, "algo": cell.algo,
            "mode": cell.mode,
            "compressor": cell.compressor,
            "params": {"eta": params.eta, "gamma": params.gamma,
                       "phi_x": params.phi_x, "phi_y": params.phi_y,
                       "varsigma": params.varsigma, "s0": params.s0,
                       "mu": params.mu},
            "seeds": cfg.seeds, "bits_per_iteration": bpi,
            "sigma": net.sigma, "L_f": suite.L_f, "nu_pl": suite.nu_pl,
            "f_star": ref.f_star, "f_star_certified": ref.certified,
            "status": trace.status, "diagnostics": trace.diagnostics,
        }
        for key, val in extras.items():
            sidecar[key] = val
        (outdir / f"{cfg.scenario}__{label}.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True, default=float)
            + "\n", encoding="utf-8")
        if cell.algo == "dgt" and baseline is None:
            baseline = res
        results.append(res)

    if baseline is not None and baseline.bits_to_threshold:
        for res in results:
            if res.bits_to_threshold is not None:
                res.percent_of_dgt = (100.0 * res.bits_to_threshold
                                      / baseline.bits_to_threshold)

    report = {
        "scenario": cfg.scenario,
        "threshold": cfg.threshold,
        "sigma": net.sigma,
        "f_star": ref.f_star,
        "rows": [{
            "label": r.label, "algo": r.algo, "compressor": r.compressor,
            "status": r.status, "iters": r.iters_to_threshold,
            "bits": r.bits_to_threshold, "percent": r.percent_of_dgt,
            "unreached": r.bits_to_threshold is None,
            "upsilon_final": r.upsilon_final,
        } for r in results],
        "baseline": None if baseline is None else {
            "label": baseline.label, "iters": baseline.iters_to_threshold,
            "bits": baseline.bits_to_threshold, "percent": 100.0,
        },
    }
    report_path = outdir / f"{cfg.scenario}__report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True,
                                      default=float) + "\n",
                           encoding="utf-8")
    return ExperimentResult(scenario=cfg.scenario, threshold=cfg.threshold,
                            rows=results, baseline=baseline,
                            report_path=str(report_path), f_star=ref.f_star,
                            sigma=net.sigma)


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
        "bit_model": {"bits_scalar": 64, "bits_int": 4},
        "broadcast": True,
        "output_dir": output_dir,
        "cells": cells,
    }
