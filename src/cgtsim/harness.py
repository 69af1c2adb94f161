"""Experiment orchestration: configs, the running-minimum metric, bit ledgers.

A config is one human-editable JSON document.  Single-run form (top-level
``algo``) or experiment form (``cells`` list); every cell shares the same
network, cost instance, reference value, and initial point, so compressors
and algorithms are compared on identical footing.

Each cell has one certified region, ``cell_region``, picked by its
compressor class; ``cgtsim bounds`` prints it.  A ``"certified"`` cell runs
the region's operating point, and its params may give only the region's
inputs: ``phi_x``, ``phi_y`` in the relative class, ``s0``, ``mu`` in the
globally bounded one, none in the locally bounded one or for the exact
rule.  The region derives ``eta``, ``gamma``, alg2's ``varsigma`` and the
locally bounded ``s0``, ``mu``; a cell that gives one is a config error.
A ``"practical"`` cell's params must lie in the region unless
``force_params`` is set, and with a locally bounded compressor, whose region
fixes s0 and mu together with eta and gamma, it is a config error.  The
exact rule asks only gamma < 1 and eta <= 1/L_f.

Trace CSVs carry the columns ``k,consensus_err,opt_gap,stationarity,
lyapunov,bits``; a JSON sidecar records the fully resolved cell
configuration.  Reruns with the same config are byte-identical.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis
from .algorithms import (
    MESSAGES_PER_AGENT,
    RULES,
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
    _finite,
    _is_int,
    _is_real,
    bit_cost,
    make_compressor,
    spec_from_config,
)
from .costs import generate_suite, grad_all, mean_value, solve_reference
from .graph import generate_network

CSV_HEADER = "k,consensus_err,opt_gap,stationarity,lyapunov,bits"


class ConfigError(ValueError):
    pass


_BOOL = ("a bool", lambda v: isinstance(v, bool))

# generate_suite's optional keywords that each cost family reads, each with
# what its value must be; the family would ignore any other
_COST_OPTIONS = {
    "logistic_log": {"abs_m": _BOOL,
                     "scale": ("a finite number", _finite)},
    "quadratic_pl": {"consistent": _BOOL, "normalize": _BOOL,
                     "rows": ("a positive int",
                              lambda v: _is_int(v) and v >= 1)},
}

# the keys of the other config sections
_NETWORK_KEYS = ("n", "edge_density", "topology")
_SEED_KEYS = ("graph", "cost", "algo")
_BIT_MODEL_KEYS = ("bits_scalar", "bits_int")
_PARAM_KEYS = tuple(f.name for f in fields(AlgorithmParams))


def _check_name(what: str, value) -> None:
    """A config value that becomes part of a file name must name one file
    in the output directory."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or "/" in value or "\0" in value):
        raise ConfigError(f"{what} must be a non-empty string with no '/' "
                          f"that is not '.' or '..', not {value!r}")


def _check_keys(section: str, value, keys) -> None:
    """``value`` must be a mapping whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{section} must be a mapping, not {value!r}")
    bad = set(value) - set(keys)
    if bad:
        raise ConfigError(f"unknown {section} keys: {sorted(bad)}")


@dataclass
class CellConfig:
    algo: str
    compressor: dict | None = None
    params: dict = field(default_factory=dict)
    mode: str = "practical"        # practical | certified
    force_params: bool = False
    label: str | None = None

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
        _check_keys("bit_model", bm, _BIT_MODEL_KEYS)
        for key, value in bm.items():
            if not _is_int(value):
                raise ConfigError(f"bit_model {key!r} must be an int, not "
                                  f"{value!r}")
        broadcast = doc.pop("broadcast", True)
        if not isinstance(broadcast, bool):
            raise ConfigError(f"broadcast must be a bool, not {broadcast!r}")
        try:
            cfg = ExperimentConfig(
                scenario=doc.pop("scenario"),
                iters=doc.pop("iters"),
                threshold=doc.pop("threshold", 1e-3),
                network=doc.pop("network"),
                cost=doc.pop("cost"),
                seeds=doc.pop("seeds"),
                cells=cells,
                bit_model=BitCostModel(bits_scalar=bm.get("bits_scalar", 64),
                                       bits_int=bm.get("bits_int", 4)),
                broadcast=broadcast,
                output_dir=doc.pop("output_dir", "out"),
                fstar_tol=doc.pop("fstar_tol", 1e-9),
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
        _check_name("scenario", self.scenario)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, not "
                              f"{self.output_dir!r}")
        if not (_is_int(self.iters) and self.iters >= 1):
            raise ConfigError(f"iters must be an int >= 1, not "
                              f"{self.iters!r}")
        for key in ("threshold", "fstar_tol"):
            value = getattr(self, key)
            if not (_finite(value) and value > 0):
                raise ConfigError(f"{key} must be a finite positive number, "
                                  f"not {value!r}")
        _check_keys("seeds", self.seeds, _SEED_KEYS)
        _check_keys("network", self.network, _NETWORK_KEYS)
        for key in _SEED_KEYS:
            if key not in self.seeds:
                raise ConfigError(f"missing seed {key!r}")
            value = self.seeds[key]
            if not (_is_int(value) and value >= 0):
                raise ConfigError(f"seed {key!r} must be a nonnegative int, "
                                  f"not {value!r}")
        for key in ("n", "edge_density"):
            if key not in self.network:
                raise ConfigError(f"missing network key {key!r}")
        for key in ("kind", "d"):
            if key not in self.cost:
                raise ConfigError(f"missing cost key {key!r}")
        for section, key in (("network", "n"), ("cost", "d")):
            value = getattr(self, section)[key]
            if not _is_int(value):
                raise ConfigError(f"{section} {key!r} must be an int, not "
                                  f"{value!r}")
        if not _is_real(self.network["edge_density"]):
            raise ConfigError(f"network 'edge_density' must be a number, not "
                              f"{self.network['edge_density']!r}")
        kind = self.cost["kind"]
        options = _COST_OPTIONS.get(kind) if isinstance(kind, str) else None
        if options is None:
            raise ConfigError(f"unknown cost kind {kind!r}")
        for key, value in self.cost.items():
            if key in ("kind", "d"):
                continue
            if key not in options:
                raise ConfigError(f"unknown {kind} cost key {key!r}")
            what, ok = options[key]
            if not ok(value):
                raise ConfigError(f"cost {key!r} must be {what}, not "
                                  f"{value!r}")
        for cell in self.cells:  # checked before any output
            rule = RULES.get(cell.algo) if isinstance(cell.algo, str) else None
            if rule is None:
                raise ConfigError(f"unknown algorithm {cell.algo!r}")
            if cell.mode not in ("practical", "certified"):
                raise ConfigError(f"unknown mode {cell.mode!r}")
            if rule.classes and cell.compressor is None:
                raise ConfigError(f"cell {cell.resolved_label()} needs a "
                                  "compressor")
            if not rule.classes and cell.compressor is not None:
                raise ConfigError(f"{cell.algo} sends exact messages and "
                                  "takes no compressor")
            comp = None
            if cell.compressor is not None:
                comp = spec_from_config(cell.compressor, int(self.cost["d"]))
            if not isinstance(cell.force_params, bool):
                raise ConfigError(f"cell {cell.resolved_label()}: "
                                  "force_params must be a bool, not "
                                  f"{cell.force_params!r}")
            _check_name("cell label", cell.resolved_label())
            _check_params(cell, rule, comp)
        labels = [cell.resolved_label() for cell in self.cells]
        dup = sorted({lab for lab in labels if labels.count(lab) > 1})
        if dup:
            raise ConfigError(f"cells share the labels {dup}; each cell "
                              "needs its own output files")


def _check_params(cell: CellConfig, rule, comp) -> None:
    """Each params key must be an AlgorithmParams field that the rule reads
    (in certified mode, one its region reads), with a finite real value that
    AlgorithmParams accepts for the rule."""
    label = cell.resolved_label()
    if not isinstance(cell.params, dict):
        raise ConfigError(f"cell {label}: params must be a mapping, not "
                          f"{cell.params!r}")
    inputs = rule.params
    if cell.mode == "certified":
        try:
            inputs = _REGION_INPUTS[_region_class(rule, comp)]
        except ConfigError as exc:
            raise ConfigError(f"cell {label}: no certified region: {exc}") \
                from None
    for key, value in cell.params.items():
        if key not in _PARAM_KEYS:
            raise ConfigError(f"cell {label}: unknown params key {key!r}")
        if key not in rule.params:
            raise ConfigError(f"cell {label}: {rule.name} does not read "
                              f"params key {key!r}")
        if key not in inputs:
            raise ConfigError(f"cell {label}: certified mode derives {key!r} "
                              'from the region; use mode "practical" to run '
                              "a given value")
        if not _finite(value):
            raise ConfigError(f"cell {label}: params {key!r} must be a "
                              f"finite number, not {value!r}")
    base = practical_params(rule.name)
    merged = AlgorithmParams(**{**vars(base), **cell.params})
    try:
        merged.validate(rule.name)
    except ValueError as exc:
        raise ConfigError(f"cell {label}: {exc}") from None


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
               else bit_cost(comp, model))
    msgs = MESSAGES_PER_AGENT[algo]
    if broadcast:
        return net.n * msgs * per_vec
    return int(net.out_degrees().sum()) * msgs * per_vec


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


def cell_region(rule, comp: CompressorSpec | None, inputs: dict, net, suite,
                x0, f_star):
    """The certified region of one cell, for ``run`` and ``bounds`` alike.

    The calculator follows ``_region_class`` and, in the relative class,
    whether the rule sends error feedback.  It reads the class's
    ``_REGION_INPUTS`` from ``inputs`` (phi_x, phi_y default 1/(2r); s0
    ``auto_s0``; mu 0.995).  The locally bounded region calls ``f_star()``
    for the reference value of its initial optimality gap.

    Returns ``(bounds, extras, lyap_aux)``: the region with its operating
    point, the sidecar fields it adds, and the weight it fixes for the
    rule's weighted Lyapunov term, or None.
    """
    cls = _region_class(rule, comp)
    if not rule.classes:
        comp = make_compressor("identity", suite.d)
    lyap_aux = None
    extras: dict = {}
    if cls == RELATIVE:
        fn = (analysis.bounds_error_feedback if rule.feedback
              else analysis.bounds_relative)
        b = fn(net.sigma, suite.L_f, comp, inputs.get("phi_x", 0.5 / comp.r),
               inputs.get("phi_y", 0.5 / comp.r))
        if rule.feedback:
            lyap_aux = b.constants["phi_hat"]
    elif cls == GLOBAL_ABSOLUTE:
        b = analysis.bounds_absolute_global(
            net.sigma, suite.L_f, net.n, suite.d, comp.cap_c,
            mu=float(inputs.get("mu", 0.995)))
        b.s0 = float(inputs["s0"] if "s0" in inputs else auto_s0(x0, suite))
        extras["slack_coefficient"] = b.constants["breve_theta8"]
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
        lyap_aux = b.constants["phi_tilde"]
        extras["lyapunov"] = "scaled"
    extras["bounds"] = b.constants
    return b, extras, lyap_aux


def practical_point(cell: CellConfig, suite, x0) -> AlgorithmParams:
    """A practical cell's params: the given ones over its rule's practical
    ones, with ``auto_s0`` for a scaled rule's unset s0."""
    merged = {**vars(practical_params(cell.algo)), **cell.params}
    if RULES[cell.algo].scaled and "s0" not in cell.params:
        merged["s0"] = auto_s0(x0, suite)
    return AlgorithmParams(**merged)


def _resolve_cell(cell: CellConfig, net, suite, x0, f_star):
    """Compressor spec, parameters, and Lyapunov constants for one cell."""
    comp = None
    if cell.compressor is not None:
        comp = spec_from_config(cell.compressor, suite.d)
    rule = RULES[cell.algo]
    phi_w = analysis.lyapunov_weight(net.sigma, suite.L_f)
    extras: dict = {"lyapunov": rule.lyapunov}

    if cell.mode == "certified":
        b, cert, lyap_aux = cell_region(rule, comp, cell.params, net, suite,
                                        x0, lambda: f_star)
        extras.update(cert)
        point = {"eta": b.eta, "gamma": b.gamma, "varsigma": b.varsigma,
                 "s0": b.s0, "mu": b.mu, "phi_x": b.constants.get("phi_x"),
                 "phi_y": b.constants.get("phi_y")}
        params = AlgorithmParams(**{k: point[k] for k in rule.params})
        return comp, params, phi_w, lyap_aux, extras

    params = practical_point(cell, suite, x0)
    if not cell.force_params and not _admitted(cell, rule, comp, params,
                                               net, suite, x0):
        raise ConfigError(
            f"cell {cell.resolved_label()}: parameters outside the certified "
            "region; set force_params to run anyway")
    lyap_aux = None
    if rule.feedback:
        try:
            c1, c2 = analysis.mixing_constants(params.phi_x, params.phi_y,
                                               comp.r, comp.psi)
            lyap_aux = analysis.ef_weight(c1, c2, comp.cap_c)
        except analysis.AnalysisError:
            lyap_aux = 0.0  # heuristic gains outside (0, 1/r): report raw sum
    return comp, params, phi_w, lyap_aux, extras


def _admitted(cell, rule, comp, params, net, suite, x0) -> bool:
    """Whether practical ``params`` lie in the cell's certified region, with
    the eta limit taken at the given gamma.  The exact rule asks only
    gamma < 1 and eta <= 1/L_f."""
    if not rule.classes:
        return params.gamma < 1.0 and params.eta <= 1.0 / suite.L_f
    try:
        cls = _region_class(rule, comp)
        if cls == LOCAL_ABSOLUTE:
            raise ConfigError(
                "a locally bounded region fixes s0 and mu together with eta "
                'and gamma, so it certifies no given params; use mode '
                '"certified"')
        b = cell_region(rule, comp, vars(params), net, suite, x0, None)[0]
    except (ConfigError, analysis.AnalysisError) as exc:
        raise ConfigError(
            f"cell {cell.resolved_label()}: parameters cannot be certified "
            f"({exc}); set force_params to run anyway") from None
    c = b.constants
    eta_max = min(analysis.eta_terms_relative(
        c["sigma"], c["L_f"], c["c1"], c["c2"], params.gamma).values())
    return (params.gamma < b.gamma_max and params.eta < eta_max
            and (b.varsigma_max is None or params.varsigma < b.varsigma_max))


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


@dataclass
class ExperimentResult:
    scenario: str
    threshold: float
    rows: list
    baseline: CellResult | None
    report_path: str
    f_star: float
    sigma: float


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


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    """One line per row: k and bits as ints, the rest by ``repr`` of the
    float, which reads back to the same bits.  The file appears whole or not
    at all."""
    floats = (np.asarray(c, dtype=np.float64).tolist() for c in (
        trace.consensus_err, trace.opt_gap, trace.stationarity, trace.lyapunov))
    rows = zip(np.asarray(trace.k).tolist(), *floats,
               np.asarray(trace.bits).tolist())
    with _replacing(Path(path)) as f:
        f.write(CSV_HEADER + "\n")
        f.writelines("%d,%r,%r,%r,%r,%d\n" % row for row in rows)


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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every cell on a shared instance and write CSVs plus a report.

    Cell failures (diverged runs) are recorded per cell; remaining cells
    still execute.  Config problems raise ConfigError before any file is
    written.  A report from an earlier run is removed before the first cell
    file is written, and each file is written to a temp file and moved into
    place, so an interrupted run leaves no report and no partial file.
    """
    net, suite = build_instance(cfg)
    ref = solve_reference(suite, tol=cfg.fstar_tol)
    x0 = initial_point(net.n, suite.d, int(cfg.seeds["algo"]))

    resolved = []
    for cell in cfg.cells:  # resolve everything before touching the disk
        resolved.append((cell, *_resolve_cell(cell, net, suite, x0,
                                              ref.f_star)))

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / f"{cfg.scenario}__report.json"
    report_path.unlink(missing_ok=True)
    results: list[CellResult] = []
    baseline: CellResult | None = None
    for cell, comp, params, phi_w, lyap_aux, extras in resolved:
        label = cell.resolved_label()
        bpi = per_iteration_bits(cell.algo, comp, cfg.bit_model, net,
                                 suite.d, cfg.broadcast)
        trace = run(cell.algo, cfg.iters, net, suite, params, comp,
                    seed=int(cfg.seeds["algo"]), x0=x0, f_star=ref.f_star,
                    x_star=ref.x_star, lyap_phi=phi_w, lyap_aux=lyap_aux,
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
            csv_path=str(csv_path))
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
            "status": trace.status, "failed_at": trace.failed_at,
            "diagnostics": trace.diagnostics,
        }
        for key, val in extras.items():
            sidecar[key] = val
        _write_json(sidecar, outdir / f"{cfg.scenario}__{label}.json")
        if not RULES[cell.algo].classes and baseline is None:
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
    _write_json(report, report_path)
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
