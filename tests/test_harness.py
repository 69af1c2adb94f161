"""Experiment orchestration: metric, bit ledger, reports, CLI contract."""

import dataclasses
import gc
import inspect
import json
import math
import os
import re
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cgtsim import analysis, cli, config, costs, harness
from cgtsim.algorithms import (
    RULES,
    AlgorithmError,
    AlgorithmParams,
    RunTrace,
    initial_point,
)
from cgtsim.compressors import BitCostModel, make_compressor
from cgtsim.costs import generate_suite, mean_value, solve_reference
from cgtsim.graph import generate_network
from cgtsim.harness import (
    ConfigError,
    ExperimentConfig,
    bits_to_threshold,
    per_iteration_bits,
    reference_scenario_config,
    run_experiment,
    upsilon_series,
    write_trace_csv,
)
from compressor_oracles import claiming
from analysis_oracles import lyapunov_eval
from harness_oracles import (
    file_digest,
    read_trace_csv,
    upsilon,
    write_trace_csv_rowwise,
)
from run_recorder import run_recorded


@pytest.fixture(scope="module")
def tiny_cfg_doc():
    return {
        "scenario": "tiny",
        "iters": 120,
        "threshold": 1e-3,
        "network": {"n": 6, "edge_density": 0.6},
        "cost": {"kind": "logistic_log", "d": 8, "scale": 0.1},
        "seeds": {"graph": 1, "cost": 2, "algo": 3},
        "cells": [
            {"algo": "dgt", "params": {"eta": 0.8, "gamma": 0.3}},
            {"algo": "alg1", "compressor": {"kind": "norm_sign"},
             "params": {"eta": 0.8, "gamma": 0.3, "phi_x": 0.3,
                        "phi_y": 0.1},
             "force_params": True},
            {"algo": "alg3", "compressor": {"kind": "one_bit"},
             "params": {"eta": 0.4, "gamma": 0.6, "mu": 0.97},
             "force_params": True},
        ],
    }


@pytest.fixture(scope="module")
def small_run():
    net = generate_network(6, 0.6, seed=1)
    suite = generate_suite("logistic_log", n=6, d=8, seed=2, scale=0.1)
    ref = solve_reference(suite, tol=1e-9)
    tr = run_recorded("dgt", 50, net, suite,
                      AlgorithmParams(eta=0.3, gamma=0.3), seed=3,
                      f_star=ref.f_star)
    return net, suite, ref, tr


def test_upsilon_matches_bruteforce_from_states(small_run):
    net, suite, ref, tr = small_run
    # recompute both metric pieces from the raw recorded states
    for T in (0, 10, 50):
        vals = []
        for k in range(T + 1):
            X = tr.x_hist[k]
            xbar = X.mean(axis=0)
            cons = float(((X - xbar) ** 2).sum())
            gap = net.n * (mean_value(suite, xbar) - ref.f_star)
            vals.append(cons + gap)
        want = min(vals)
        assert upsilon(tr, T) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_upsilon_nonincreasing_and_bounds(small_run):
    *_, tr = small_run
    series = upsilon_series(tr)
    assert np.all(np.diff(series) <= 0)
    for T in range(5, 50, 7):
        assert upsilon(tr, T) == series[T]
    with pytest.raises(ConfigError):
        upsilon(tr, 1000)


def test_bits_to_threshold_edges(small_run):
    *_, tr = small_run
    ups = upsilon_series(tr)
    # threshold above the starting value: crossing at k=0 with zero bits
    assert bits_to_threshold(ups, 100, 1e12) == (0, 0)
    assert bits_to_threshold(ups, 100, 1e-30) is None
    # the first crossing k, billed k * bits per iteration
    k = int(np.argmax(ups <= ups[7]))
    assert k <= 7 and bits_to_threshold(ups, 100, ups[7]) == (k, 100 * k)
    with pytest.raises(ConfigError):
        bits_to_threshold(ups, 100, 0.0)


def test_running_minimum_computed_once_per_cell(tmp_path, monkeypatch):
    # bits_to_threshold and the row's upsilon_final share one series
    calls, real = [], harness.upsilon_series

    def counted(trace):
        calls.append(trace.algo)
        return real(trace)

    monkeypatch.setattr(harness, "upsilon_series", counted)
    run_experiment(ExperimentConfig.from_dict({
        "scenario": "once", "iters": 30,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "o"),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}]}))
    assert calls == ["dgt"]


def test_per_iteration_bits_hand_arithmetic():
    net = generate_network(20, 0.35, seed=101)
    model = BitCostModel(bits_int=4)
    # exact baseline: 2 identity vectors per agent at d * 64 bits
    ident = make_compressor("identity", d=50)
    assert per_iteration_bits("dgt", ident, model, net) == 20 * 2 * 50 * 64
    ns = make_compressor("norm_sign", d=50)
    assert per_iteration_bits("alg1", ns, model, net) == 20 * 2 * 164
    assert per_iteration_bits("alg2", ns, model, net) == 20 * 4 * 164
    ob = make_compressor("one_bit", d=50)
    assert per_iteration_bits("alg3", ob, model, net) == 20 * 2 * 50
    # per-edge accounting counts each out-neighbour
    edges = int(net.out_degrees().sum())
    assert per_iteration_bits("alg1", ns, model, net,
                              broadcast=False) == edges * 2 * 164


def test_csv_round_trip(tmp_path, small_run):
    *_, tr = small_run
    path = tmp_path / "t.csv"
    write_trace_csv(tr, path, 100)
    data = read_trace_csv(path)
    assert np.array_equal(data["k"], np.arange(51))
    assert np.array_equal(data["consensus_err"], tr.consensus_err)
    assert np.array_equal(data["opt_gap"], tr.opt_gap)
    assert np.array_equal(data["bits"], np.arange(51) * 100)
    # the running-minimum metric recomputed offline equals the online one
    offline = np.minimum.accumulate(data["consensus_err"] + data["opt_gap"])
    assert np.array_equal(offline, upsilon_series(tr))


@pytest.mark.parametrize("bits_int", [10**15, 10**17])
def test_bits_column_is_exact_past_int64(tmp_path, bits_int):
    # the paper scenario's alg3 uniform cell sends 20 agents x 2 messages x
    # 50 entries of bits_int bits a step: 2e18 at 10**15, so row 5 bills
    # 1e19, past 2**63, and 2e20 at 10**17
    doc = reference_scenario_config("practical", iters=50,
                                    output_dir=str(tmp_path / "o"))
    kinds = [c.get("compressor", {}).get("kind") for c in doc["cells"]]
    doc["cells"] = [doc["cells"][kinds.index("uniform_quantize")]]
    doc["bit_model"] = {"bits_int": bits_int}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg_path)]) == 0
    out = tmp_path / "o" / "reference_practical__alg3_uniform_quantize"
    bpi = 20 * 2 * 50 * bits_int
    assert json.loads(out.with_suffix(".json").read_text())[
        "bits_per_iteration"] == bpi
    lines = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert len(lines) == 51
    for k, line in enumerate(lines):
        assert [int(v) for v in line.split(",")[::5]] == [k, k * bpi]
    if bits_int == 10**15:
        assert lines[5].endswith(",10000000000000000000")


_CSV_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.nan, np.inf,
     -np.inf, 1e-5, 1e16, 0.1])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(0, 30))
def test_csv_writer_equals_rowwise_writer(tmp_path_factory, data, rows):
    # the column-wise writer writes the bytes the cell-by-cell one writes
    floats = [data.draw(hnp.arrays(np.float64, rows, elements=_CSV_FLOATS))
              for _ in range(4)]
    tr = RunTrace("alg1", *floats, "ok", None, {}, "full")
    path = tmp_path_factory.mktemp("csv")
    write_trace_csv(tr, path / "a.csv", 1640)
    write_trace_csv_rowwise(tr, path / "b.csv", 1640)
    assert (path / "a.csv").read_bytes() == (path / "b.csv").read_bytes()


def test_experiment_shares_initial_state(tmp_path, tiny_cfg_doc):
    doc = dict(tiny_cfg_doc)
    doc["output_dir"] = str(tmp_path / "a")
    cfg = ExperimentConfig.from_dict(doc)
    report, paths = run_experiment(cfg)
    csvs = [path for path in paths if path.suffix == ".csv"]
    assert len(csvs) == len(report["rows"])
    first_rows = set()
    for path in csvs:
        data = read_trace_csv(path)
        first_rows.add((data["consensus_err"][0], data["opt_gap"][0],
                        data["stationarity"][0]))
    assert len(first_rows) == 1  # same x0 in every cell
    assert report["baseline"] is not None


def test_experiment_rerun_is_byte_identical(tmp_path, tiny_cfg_doc):
    hashes = []
    for sub in ("r1", "r2"):
        doc = dict(tiny_cfg_doc)
        doc["output_dir"] = str(tmp_path / sub)
        report, paths = run_experiment(ExperimentConfig.from_dict(doc))
        # the report and each row's CSV, with the sidecars between them
        assert paths[-1].name == "tiny__report.json"
        assert sum(path.suffix == ".csv" for path in paths) == len(
            report["rows"])
        hashes.append([file_digest(path) for path in paths])
    assert hashes[0] == hashes[1]


def test_interrupted_rerun_leaves_no_report(tmp_path, tiny_cfg_doc,
                                           monkeypatch):
    # a rerun into the same directory that fails at its second cell must not
    # leave the first run's report beside its outputs, nor a temp file
    doc = dict(tiny_cfg_doc, output_dir=str(tmp_path / "o"))
    report = run_experiment(ExperimentConfig.from_dict(doc))[1][-1]
    before = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
    calls = {"n": 0}
    real_run = harness.run

    def interrupted_run(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real_run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", interrupted_run)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(ExperimentConfig.from_dict(doc))
    after = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
    assert report.name in before
    assert set(after) == set(before) - {report.name}
    assert all(after[name] == before[name] for name in after)


def test_report_contents(tmp_path, tiny_cfg_doc):
    doc = dict(tiny_cfg_doc)
    doc["output_dir"] = str(tmp_path / "rep")
    returned, paths = run_experiment(ExperimentConfig.from_dict(doc))
    report = json.loads(paths[-1].read_text(encoding="utf-8"))
    # the returned report is the one written
    assert report == json.loads(json.dumps(returned))
    assert report["scenario"] == "tiny"
    labels = {r["label"]: r for r in report["rows"]}
    dgt = labels["dgt_exact"]
    if not dgt["unreached"]:
        assert dgt["percent"] == pytest.approx(100.0)
    for row in report["rows"]:
        assert row["status"] == "ok"


def test_config_validation_errors(tiny_cfg_doc):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenario": "x"})
    doc = dict(tiny_cfg_doc)
    doc["cells"] = []
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    doc = dict(tiny_cfg_doc)
    doc["threshold"] = -1.0
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    doc = dict(tiny_cfg_doc)
    doc["seeds"] = {"graph": 1}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    doc = dict(tiny_cfg_doc)
    doc["typo_key"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)


def test_uncertified_practical_params_rejected(tmp_path, tiny_cfg_doc):
    doc = json.loads(json.dumps(tiny_cfg_doc))
    doc["output_dir"] = str(tmp_path / "c")
    doc["cells"][1]["force_params"] = False  # eta=0.8 is far outside
    cfg = ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not (tmp_path / "c").exists()  # no partial outputs


def test_class_pairing_enforced(tmp_path, tiny_cfg_doc):
    doc = json.loads(json.dumps(tiny_cfg_doc))
    doc["output_dir"] = str(tmp_path / "p")
    doc["cells"][1]["compressor"] = {"kind": "uniform_quantize", "delta": 2.0}
    doc["cells"][1]["force_params"] = False
    cfg = ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError, match="class"):
        run_experiment(cfg)


def test_failed_cell_recorded_others_continue(tmp_path):
    out = tmp_path / "m"
    doc = {
        "scenario": "mix",
        "iters": 300,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(out),
        "cells": [
            {"algo": "alg1", "compressor": {"kind": "norm_sign"},
             "params": {"eta": 80.0, "gamma": 0.9, "phi_x": 0.3,
                        "phi_y": 0.1}, "force_params": True},
            {"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}},
        ],
    }
    report, _ = run_experiment(ExperimentConfig.from_dict(doc))
    statuses = {r["label"]: r["status"] for r in report["rows"]}
    assert statuses["alg1_norm_sign"] == "nonfinite_state"
    assert statuses["dgt_exact"] == "ok"
    # the sidecar names the row the cell's CSV ends at, or null when ok
    failed_at = {}
    for label in statuses:
        sidecar = json.loads((out / f"mix__{label}.json").read_text())
        last_k = int(read_trace_csv(out / f"mix__{label}.csv")["k"][-1])
        failed_at[label] = sidecar["failed_at"], last_k
    assert failed_at["alg1_norm_sign"][0] == failed_at["alg1_norm_sign"][1]
    assert failed_at["alg1_norm_sign"][1] < 300
    assert failed_at["dgt_exact"] == (None, 300)


def _reference_both(**kwargs) -> dict:
    """The practical scenario with the certified cells appended."""
    doc = reference_scenario_config("practical", **kwargs)
    doc["cells"] += reference_scenario_config("certified")["cells"]
    return doc


def test_reference_scenario_config_modes():
    # replicate-section5 --mode both runs the two scenarios one after the
    # other; no scenario holds both
    for doc in (reference_scenario_config(mode="practical"),
                reference_scenario_config(mode="certified"),
                _reference_both()):
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.network["n"] == 20 and cfg.cost["d"] == 50
    for mode in ("both", "fancy"):
        with pytest.raises(ConfigError, match="unknown mode"):
            reference_scenario_config(mode=mode)


def test_cli_exit_codes(tmp_path, monkeypatch):
    cfg = {
        "scenario": "cli",
        "iters": 40,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "o"),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{\"scenario\": 1}")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["frobnicate"]) == 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "norm_sign"}))
    assert cli.main(["verify-compressor", str(spec), "--d", "10",
                     "--trials", "200"]) == 0
    # no config can state constants, so a spec that breaks its own bound is
    # built here
    monkeypatch.setattr(cli, "spec_from_config", lambda doc, d: claiming(
        config.spec_from_config(doc, d), r=5.0, psi=0.9))
    assert cli.main(["verify-compressor", str(spec), "--d", "10",
                     "--trials", "200"]) == 1


def test_cli_config_errors_exit_2_and_program_bugs_propagate(tmp_path,
                                                             monkeypatch):
    cfg = {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "o"),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}],
    }
    unparsable = tmp_path / "unparsable.json"
    unparsable.write_text("{\"scenario\": ")
    assert cli.main(["run", str(unparsable)]) == 2
    assert cli.main(["bounds", str(tmp_path / "missing.json")]) == 2
    cfg_path = tmp_path / "cfg.json"
    # non-integer counts, and a gamma that AlgorithmParams rejects
    for bad in ({"iters": "many"},
                {"network": {"n": "five", "edge_density": 0.7}},
                {"cells": [{"algo": "dgt", "force_params": True,
                            "params": {"eta": 0.3, "gamma": 1.5}}]}):
        cfg_path.write_text(json.dumps(dict(cfg, **bad)))
        assert cli.main(["run", str(cfg_path)]) == 2

    # a rule or bound error that reaches cli past the cell parser and
    # resolve, which turn the ones a config causes into ConfigErrors, is a
    # bug too
    cfg_path.write_text(json.dumps(cfg))
    for error in (ValueError, AlgorithmError, analysis.AnalysisError):
        def broken_run(*args, _error=error, **kwargs):
            raise _error("a bug inside the stepper")

        monkeypatch.setattr(harness, "run", broken_run)
        with pytest.raises(error, match="a bug inside the stepper"):
            cli.main(["run", str(cfg_path)])


@pytest.mark.parametrize("cost", [
    {"kind": "quadratic_pl", "rows": "x"},
    {"kind": "quadratic_pl", "rows": 0},
    {"kind": "quadratic_pl", "rows": 2.5},
    {"kind": "logistic_log", "scale": "big"},
    {"kind": "logistic_log", "scale": float("inf")},
    {"kind": "quadratic_pl", "rowz": 3},
    {"kind": "quadratic_pl", "consistent": "no"},
    {"kind": "quadratic_pl", "normalize": 1},
    {"kind": "logistic_log", "abs_m": "no"},
    # L_f^2 below the smallest normal float: phi = (1 - sigma)^2 /
    # (320 L_f^2) would divide by 0, or come out inf
    {"kind": "logistic_log", "scale": 1e-200},
    {"kind": "logistic_log", "scale": 1e-160},
    # keys that the family does not read (at scale 0.1 the logistic dgt
    # cell is admitted, so only the key can make it exit 2)
    {"kind": "quadratic_pl", "scale": 5.0},
    {"kind": "quadratic_pl", "abs_m": True},
    {"kind": "logistic_log", "scale": 0.1, "rows": 1},
    {"kind": "logistic_log", "scale": 0.1, "consistent": False},
    {"kind": "logistic_log", "scale": 0.1, "normalize": True},
])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_bad_cost_options_exit_2_before_any_output(tmp_path, cost,
                                                       command):
    out = tmp_path / "o"
    cfg = {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": dict(cost, d=4),
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(out),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, str(cfg_path)]) == 2
    assert not out.exists()


# phi = (1 - sigma)^2 / (320 L_f^2): on the practical scenario 320 L_f^2
# overflows from a scale near 7.9e151, where phi would be 0; such an
# instance is refused at set-up, before any file, and no warning leaks
@pytest.mark.parametrize("scale, code", [(1e151, 0), (1e152, 2), (1e160, 2)])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_huge_cost_scale(tmp_path, capsys, command, scale, code):
    out = tmp_path / "o"
    doc = reference_scenario_config("practical", iters=3, output_dir=str(out))
    doc["cost"]["scale"] = scale
    for cell in doc["cells"]:
        cell["force_params"] = True
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([command, str(cfg_path)]) == code
    if code:
        assert "finite 320 L_f^2" in capsys.readouterr().err
        assert not out.exists()


# on the certified scenario at scale 1e100 every region's eta underflows to
# 0: no region holds, so bounds records an error for each cell, and run
# names the first cell and exits 2 before it makes the output directory
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_certified_eta_that_underflows_is_no_region(tmp_path, capsys,
                                                        command):
    out = tmp_path / "o"
    doc = reference_scenario_config("certified", iters=3, output_dir=str(out))
    doc["cost"]["scale"] = 1e100
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    labels = [cell.resolved_label()
              for cell in ExperimentConfig.from_dict(doc).cells]
    code = cli.main([command, str(cfg_path)])
    captured = capsys.readouterr()
    assert not out.exists()
    if command == "run":
        assert code == 2
        assert (f"config error: cell {labels[0]}: no certified region: "
                "eta=0.0 outside (0, ") in captured.err, captured.err
    else:
        assert code == 0
        tables = json.loads(captured.out)["cells"]
        assert sorted(tables) == sorted(labels)
        for label in labels:
            assert tables[label]["error"].startswith("eta=0.0 outside (0, ")


def test_cost_option_checks_cover_generate_suite_keywords():
    params = inspect.signature(generate_suite).parameters.values()
    assert set().union(*config._COST_OPTIONS.values()) == {
        p.name for p in params if p.kind is p.KEYWORD_ONLY}
    # each family accepts the keys it reads, and no other: a value other
    # than the default changes the suite drawn exactly when the family reads
    # the key
    assert set(config._COST_OPTIONS) == set(costs.KINDS)
    other = {"abs_m": False, "scale": 2.0, "rows": 7, "consistent": False,
             "normalize": False}
    assert set(other) == set().union(*config._COST_OPTIONS.values())

    def drawn(suite):
        return [suite.L_f] + [None if a is None else (a.shape, a.tobytes())
                              for a in (suite.h, suite.nu, suite.m, suite.xi,
                                        suite.M, suite.b)]

    for kind, options in config._COST_OPTIONS.items():
        base = drawn(generate_suite(kind, n=3, d=2, seed=0))
        for key, value in other.items():
            moved = drawn(generate_suite(kind, n=3, d=2, seed=0,
                                         **{key: value}))
            assert (moved != base) == (key in options), (kind, key)


def test_cli_bounds_identity_finite(tmp_path, capsys, monkeypatch):
    cfg = {
        "scenario": "b",
        "iters": 10,
        "network": {"n": 6, "edge_density": 0.6},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 1, "cost": 2, "algo": 3},
        "output_dir": str(tmp_path),
        "cells": [{"algo": "alg1", "compressor": {"kind": "identity"},
                   "params": {"phi_x": 0.5, "phi_y": 0.5}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def no_solve(*args, **kwargs):
        raise AssertionError("no table here needs the reference value")

    monkeypatch.setattr(harness, "solve_reference", no_solve)
    assert cli.main(["bounds", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    cell = out["cells"]["alg1_identity"]
    assert math.isfinite(cell["gamma_max"]) and cell["gamma_max"] > 0


def test_cli_bounds_equal_run_sidecars(tmp_path, capsys, monkeypatch):
    # an inconsistent system has f_star > 0, so a scaled-local table whose
    # initial gap left it out would differ; the uniform cell's mu is not the
    # default
    cfg = {
        "scenario": "bs",
        "iters": 5,
        "network": {"n": 6, "edge_density": 0.6},
        "cost": {"kind": "quadratic_pl", "d": 4, "consistent": False},
        "seeds": {"graph": 1, "cost": 2, "algo": 3},
        "output_dir": str(tmp_path / "run"),
        "cells": [
            {"algo": "alg2", "compressor": {"kind": "norm_sign"},
             "mode": "certified"},
            {"algo": "alg3", "compressor": {"kind": "one_bit"},
             "mode": "certified"},
            {"algo": "alg3", "compressor": {"kind": "uniform_quantize",
                                            "delta": 2.0},
             "mode": "certified", "params": {"mu": 0.97}},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    solves = []
    solve = harness.solve_reference
    monkeypatch.setattr(harness, "solve_reference",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    assert cli.main(["bounds", str(cfg_path)]) == 0
    assert len(solves) == 1  # only the one_bit table needs f_star
    tables = json.loads(capsys.readouterr().out)
    labels = ("alg2_norm_sign_certified", "alg3_one_bit_certified",
              "alg3_uniform_quantize_certified")
    assert sorted(tables["cells"]) == sorted(labels)
    for label in labels:
        sidecar = json.loads(
            (tmp_path / "run" / f"bs__{label}.json").read_text())
        assert sidecar["f_star"] > 0.1
        assert tables["cells"][label]["constants"] == sidecar["bounds"]
        # the operating point the run used, for each value the rule reads
        rule = RULES[sidecar["algo"]]
        for key in ("eta", "gamma", "varsigma", "s0", "mu"):
            if key in rule.params:
                assert tables["cells"][label][key] == sidecar["params"][key], \
                    (label, key)
    assert tables["cells"]["alg3_uniform_quantize_certified"]["mu"] == 0.97


def test_mode_picks_only_the_params(tmp_path):
    # a forced practical cell given a certified cell's params writes the
    # certified cell's trace and names the same Lyapunov function: the rule
    # and the compressor class pick the function, the mode only the params
    cells = {"ef": {"algo": "alg2", "compressor": {"kind": "norm_sign"}},
             "scaled": {"algo": "alg3", "compressor": {"kind": "one_bit"}},
             "consensus": {"algo": "alg3", "compressor": {
                 "kind": "uniform_quantize", "delta": 2.0}}}
    doc = {"scenario": "m", "iters": 40,
           "network": {"n": 6, "edge_density": 0.6},
           "cost": {"kind": "quadratic_pl", "d": 4},
           "seeds": {"graph": 1, "cost": 2, "algo": 3}}
    cfg_path = tmp_path / "cfg.json"

    def run_cells(mode, extra):
        cfg_path.write_text(json.dumps(dict(
            doc, output_dir=str(tmp_path / mode),
            cells=[dict(cell, label=name, **extra(name))
                   for name, cell in cells.items()])))
        assert cli.main(["run", str(cfg_path)]) == 0
        return {name: (tmp_path / mode / f"m__{name}.csv",
                       json.loads((tmp_path / mode / f"m__{name}.json")
                                  .read_text())) for name in cells}

    cert = run_cells("certified", lambda name: {"mode": "certified"})
    forced = run_cells("practical", lambda name: {
        "force_params": True, "params": {
            k: cert[name][1]["params"][k]
            for k in RULES[cells[name]["algo"]].params}})
    for name in cells:
        assert cert[name][0].read_bytes() == forced[name][0].read_bytes(), \
            name
        assert cert[name][1]["lyapunov"] == forced[name][1]["lyapunov"] \
            == name


def test_forced_alg2_outside_the_relative_class_weights_no_feedback(
        tmp_path, monkeypatch):
    # uniform_quantize states no relative (r, psi): alg2's feedback weight is
    # 0 there, not ef_weight at the spec's unset r = psi = 1 and C = 1
    doc = reference_scenario_config("practical", iters=40,
                                    output_dir=str(tmp_path / "o"))
    doc["cells"] = [{"algo": "alg2", "compressor": {
        "kind": "uniform_quantize", "delta": 2.0}, "force_params": True}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    traces = []  # the run, with its states
    monkeypatch.setattr(harness, "run", lambda *a, **k: traces.append(
        run_recorded(*a, **k)) or traces[-1])
    assert cli.main(["run", str(cfg_path)]) == 0
    stem = tmp_path / "o" / "reference_practical__alg2_uniform_quantize"
    sidecar = json.loads(stem.with_suffix(".json").read_text())
    assert sidecar["lyapunov"] == "ef"
    lyap = read_trace_csv(stem.with_suffix(".csv"))["lyapunov"]
    net, suite, *_ = harness.build_instance(ExperimentConfig.from_dict(doc))
    (tr,) = traces

    def at_final_state(phi_hat):
        return lyapunov_eval("ef", tr.final_state, net, suite,
                             sidecar["f_star"], {
                                 "phi": analysis.lyapunov_weight(
                                     net.sigma, suite.L_f),
                                 "phi_hat": phi_hat})

    val = at_final_state(0.0)
    assert val.terms["ef_x"] + val.terms["ef_y"] > 0  # so a weight shows
    assert lyap[-1] == pytest.approx(val.total, rel=1e-9)
    unset = analysis.ef_weight(*analysis.mixing_constants(
        0.3, 0.1, 1.0, 1.0), 1.0)
    assert lyap[-1] != pytest.approx(at_final_state(unset).total, rel=1e-9)


def test_scaled_gap_weight_at_an_underflowing_eta_runs(tmp_path):
    # eta L_f^2 underflows to 0 at eta 5e-324 and scale 0.01, which validate
    # accepts: the scaled gap weight is +inf and the run ends ok
    cfg = {"scenario": "e", "iters": 20,
           "network": {"n": 5, "edge_density": 0.7},
           "cost": {"kind": "logistic_log", "d": 4, "scale": 0.01},
           "seeds": {"graph": 4, "cost": 5, "algo": 6},
           "output_dir": str(tmp_path / "o"),
           "cells": [{"algo": "alg3", "compressor": {"kind": "one_bit"},
                      "params": {"eta": 5e-324}, "force_params": True}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    stem = tmp_path / "o" / "e__alg3_one_bit"
    sidecar = json.loads(stem.with_suffix(".json").read_text())
    assert (sidecar["status"], sidecar["lyapunov"]) == ("ok", "scaled")
    assert np.isposinf(read_trace_csv(stem.with_suffix(".csv"))["lyapunov"]
                       ).all()


def test_cli_seed_override_env_and_flag(tmp_path, monkeypatch, capsys):
    cfg = {
        "scenario": "seed",
        "iters": 30,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "e1"),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    # the environment re-seeds nothing: --seed is the one override
    monkeypatch.setenv("CGT_SEED", "900")
    assert cli.main(["run", str(cfg_path)]) == 0
    env_sidecar = json.loads(
        (tmp_path / "e1" / "seed__dgt_exact.json").read_text())
    assert env_sidecar["seeds"] == cfg["seeds"]
    cfg["output_dir"] = str(tmp_path / "e2")
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path), "--seed", "70"]) == 0
    flag_sidecar = json.loads(
        (tmp_path / "e2" / "seed__dgt_exact.json").read_text())
    assert flag_sidecar["seeds"] == {"graph": 71, "cost": 72, "algo": 73}


# gnuplot writes a ' inside a single-quoted string as ''
@pytest.mark.parametrize("scenario, label, plot", [
    ("gp", None,
     "plot 'gp__dgt_exact.csv' using 1:($2+$3) with lines title 'dgt_exact'"),
    ("it's", "a'b",
     "plot 'it''s__a''b.csv' using 1:($2+$3) with lines title 'a''b'"),
], ids=["plain", "quoted"])
def test_cli_gnuplot_helper(tmp_path, scenario, label, plot):
    cfg = {
        "scenario": scenario,
        "iters": 30,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "g"),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}],
    }
    if label is not None:
        cfg["cells"][0]["label"] = label
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path), "--gnuplot"]) == 0
    script = (tmp_path / "g" / f"{scenario}__plot.gnuplot").read_text()
    assert plot in script.splitlines()


# an output_dir that is a file, lies under one, or is a dangling symlink,
# from a run config or from replicate-section5's --out
@pytest.mark.parametrize("command, out", [
    pytest.param(command, out,
                 id=out if command == "run" else f"{command}-{out}")
    for command in ("run", "replicate-section5")
    for out in ("afile", "afile/sub", "link")])
def test_cli_output_dir_in_a_file_exits_2_before_set_up(tmp_path, monkeypatch,
                                                        command, out):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": "f", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / out),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}]}))

    def no_set_up(cfg):
        raise AssertionError("build_instance called")

    monkeypatch.setattr(harness, "build_instance", no_set_up)
    argv = (["run", str(cfg_path)] if command == "run" else
            [command, "--out", str(tmp_path / out)])
    assert cli.main(argv) == 2
    assert afile.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "afile", "cfg.json", "link"]


# the longest names a run writes are <scenario>__plot.gnuplot.tmp and
# <scenario>__<label>.json.tmp; at the directory's limit a run writes them,
# one byte past it the config exits 2 before set-up
@pytest.mark.parametrize("part", ["scenario", "label"])
@pytest.mark.parametrize("over", [0, 1], ids=["at-limit", "past-limit"])
def test_cli_file_names_fit_the_output_directory(tmp_path, monkeypatch, part,
                                                 over):
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    if part == "scenario":
        scenario = "s" * (name_max - len("__plot.gnuplot.tmp") + over)
        label = "dgt"
    else:
        scenario = "s"
        label = "c" * (name_max - len("s__.json.tmp") + over)
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": scenario, "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(out),
        "cells": [{"algo": "dgt", "label": label,
                   "params": {"eta": 0.3, "gamma": 0.3}}]}))
    if over:
        monkeypatch.setattr(harness, "build_instance", _no_set_up)
        assert cli.main(["run", str(cfg_path), "--gnuplot"]) == 2
        assert not out.exists()
    else:
        assert cli.main(["run", str(cfg_path), "--gnuplot"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{scenario}__{name}" for name in (
                f"{label}.csv", f"{label}.json", "report.json",
                "plot.gnuplot"))


# a scenario ends at its file names' first "__": a scenario with "__" or a
# trailing "_" could end elsewhere and take another scenario's file names,
# so it exits 2 before set-up and the files the first run wrote stay intact
@pytest.mark.parametrize("first, second, shared", [
    (("a", "b__report"), ("a__b", None), "a__b__report.json"),
    (("a", "_b"), ("a_", "b"), "a___b.csv"),
], ids=["double-underscore", "trailing-underscore"])
def test_scenarios_never_share_a_file(tmp_path, monkeypatch, first, second,
                                      shared):
    out = tmp_path / "o"

    def config(scenario, label):
        cfg = {"scenario": scenario, "iters": 5,
               "network": {"n": 5, "edge_density": 0.7},
               "cost": {"kind": "quadratic_pl", "d": 4},
               "seeds": {"graph": 4, "cost": 5, "algo": 6},
               "output_dir": str(out),
               "cells": [{"algo": "dgt",
                          "params": {"eta": 0.3, "gamma": 0.3}}]}
        if label is not None:
            cfg["cells"][0]["label"] = label
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    assert cli.main(["run", config(*first)]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert shared in written
    monkeypatch.setattr(harness, "build_instance", _no_set_up)
    for command in ("run", "bounds"):
        assert cli.main([command, config(*second)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


# run and replicate-section5 print one line per report row: its label,
# status, and k, bits and percent when it reached the threshold, all as the
# report JSON has them; they exit 1 exactly when some row is not ok
@pytest.mark.parametrize("fail", [False, True], ids=["ok", "one-failed"])
@pytest.mark.parametrize("command", ["run", "replicate-section5"])
def test_cli_prints_each_report_row(tmp_path, monkeypatch, capsys, command,
                                    fail):
    out = tmp_path / "o"
    if fail:  # the last cell's run ends non-finite
        real_run = harness.run

        def failing_run(*args, **kwargs):
            calls.append(args[0])
            trace = real_run(*args, **kwargs)
            if len(calls) == cells:
                trace = dataclasses.replace(trace, status="nonfinite_state",
                                            failed_at=len(trace) - 1)
            return trace

        calls = []
        monkeypatch.setattr(harness, "run", failing_run)
    if command == "run":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "pr", "iters": 300, "threshold": 1e-2,
            "network": {"n": 5, "edge_density": 0.7},
            "cost": {"kind": "quadratic_pl", "d": 4},
            "seeds": {"graph": 4, "cost": 5, "algo": 6},
            "output_dir": str(out), "cells": [
                {"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}},
                {"algo": "alg1", **_NORM_SIGN, "force_params": True,
                 "params": {"eta": 0.3, "gamma": 0.3, "phi_x": 0.3,
                            "phi_y": 0.1}},
                {"algo": "alg3", "compressor": {"kind": "one_bit"},
                 "force_params": True, "params": {"eta": 0.01,
                                                  "gamma": 0.3}}]}))
        argv, scenario, cells = ["run", str(cfg_path)], "pr", 3
    else:
        argv = ["replicate-section5", "--iters", "500", "--out", str(out)]
        scenario, cells = "reference_practical", 5
    rc = cli.main(argv)
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ")]  # the row lines
    rows = json.loads((out / f"{scenario}__report.json").read_text())["rows"]
    assert len(lines) == len(rows) == cells
    for line, row in zip(lines, rows):
        label, status, *rest = line.split()
        assert (label, status) == (row["label"], row["status"])
        reach = re.fullmatch(r"k= *(\d+) bits=(\d+)(?: \(([\d.]+)% of "
                             r"baseline\))?", " ".join(rest))
        if row["bits"] is None:
            assert rest == ["unreached"], line
        else:
            assert reach, line
            assert (int(reach[1]), int(reach[2])) == (row["iters"],
                                                      row["bits"])
            assert (reach[3] is None) == (row["percent"] is None), line
            if row["percent"] is not None:
                assert float(reach[3]) == round(row["percent"], 2)
    assert ({row["status"] for row in rows} != {"ok"}) == fail
    assert rc == (1 if fail else 0)
    if command == "run":  # a row that reached the threshold, and one not
        assert {row["bits"] is None for row in rows} == {False, True}


def test_cli_replicate_section5_both_modes_end_to_end(tmp_path):
    # the headline command: both reports and both gnuplot scripts whole,
    # with no temp file beside them
    out = tmp_path / "rep"
    assert cli.main(["replicate-section5", "--mode", "both", "--gnuplot",
                     "--out", str(out)]) == 0
    for mode in ("practical", "certified"):
        for name in ("report.json", "plot.gnuplot"):
            assert (out / f"reference_{mode}__{name}").stat().st_size > 0
    assert not list(out.rglob("*.tmp"))


def test_cli_bounds_on_a_1000_agent_ring(tmp_path, capsys):
    # sigma is exact at any size: the lazy ring's sigma approaches 1 as
    # 1 - O(1/n^2), and a 1000-agent ring must still give certified tables
    cfg_path = tmp_path / "ring.json"
    cfg_path.write_text(json.dumps({
        "scenario": "ring_n1000", "iters": 1, "threshold": 1e-3,
        "output_dir": "unused", "seeds": {"graph": 0, "cost": 0, "algo": 0},
        "network": {"n": 1000, "topology": "ring"},
        "cost": {"kind": "logistic_log", "d": 5},
        "cells": [{"algo": "alg1", "compressor": {"kind": "norm_sign"},
                   "mode": "certified"}]}))
    assert cli.main(["bounds", str(cfg_path)]) == 0
    tables = json.loads(capsys.readouterr().out)
    assert 0.0 < tables["sigma"] < 1.0
    (table,) = tables["cells"].values()
    assert "error" not in table
    assert 0.0 < table["eta"] <= table["eta_max"]
    assert 0.0 < table["gamma"] <= table["gamma_max"]


# a spec's class constants come from its operator; each built-in kind must
# meet the bound that its constants state
@pytest.mark.parametrize("doc", [
    {"kind": "identity"},
    {"kind": "norm_sign"},
    {"kind": "uniform_quantize", "delta": 2.0},
    {"kind": "one_bit"},
    {"kind": "random_sparsify", "keep_k": 5},
    {"kind": "random_sparsify", "keep_k": 5, "sparsify_mode": "random",
     "rescale": True},
    {"kind": "random_quantize", "levels": 9},
])
def test_cli_verify_compressor_passes_every_built_in_kind(tmp_path, capsys,
                                                          doc):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["verify-compressor", str(spec_path), "--d", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["violations"] == 0


class _DiskFull:
    """A text file whose first write stores half its text, then raises."""

    def __init__(self, f):
        self.f = f

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        self.f.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("command", ["run", "replicate-section5"])
def test_cli_gnuplot_script_appears_whole_or_not_at_all(tmp_path, monkeypatch,
                                                        command):
    # the plot script is written before the report: a run interrupted while
    # it writes the script leaves neither, so no directory looks complete
    real = harness._replacing

    @contextmanager
    def failing(path):
        with real(path) as f:
            if not path.name.endswith("__plot.gnuplot"):
                yield f
                return
            assert path.with_name(path.name + ".tmp").is_file()
            yield _DiskFull(f)

    monkeypatch.setattr(harness, "_replacing", failing)
    out = tmp_path / "g"
    if command == "run":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "gp", "iters": 30,
            "network": {"n": 5, "edge_density": 0.7},
            "cost": {"kind": "quadratic_pl", "d": 4},
            "seeds": {"graph": 4, "cost": 5, "algo": 6},
            "output_dir": str(out),
            "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}}]}))
        argv = ["run", str(cfg_path), "--gnuplot"]
    else:
        argv = ["replicate-section5", "--iters", "20", "--gnuplot",
                "--out", str(out)]
    with pytest.raises(OSError, match="no space left"):
        cli.main(argv)
    names = [p.name for p in out.iterdir()]
    assert any(name.endswith(".csv") for name in names)
    assert not [name for name in names
                if "gnuplot" in name or name.endswith("__report.json")]



@pytest.mark.parametrize("comp", [
    {"kind": "wavelet"},
    {"kind": 3},
    {"kind": "norm_sign", "p_norm": "abc"},
    {"kind": "one_bit", "p_norm": 0.5},
    {"kind": "one_bit", "p_norm": True},
    {"kind": "uniform_quantize", "delta": "big"},
    {"kind": "uniform_quantize", "delta": 0},
    {"kind": "uniform_quantize", "delta": float("inf")},
    {"kind": "random_sparsify", "keep_k": "3"},
    {"kind": "random_sparsify", "keep_k": 2.5},
    {"kind": "random_sparsify", "keep_k": 9},
    {"kind": "random_sparsify", "keep_k": 2, "sparsify_mode": "middle"},
    {"kind": "random_sparsify", "keep_k": 2, "rescale": "yes"},
    {"kind": "random_quantize", "levels": "17"},
    {"kind": "random_quantize", "levels": 1},
    {"kind": "random_quantize", "levels": 2},
    # keep_k and levels have no default
    {"kind": "random_sparsify"},
    {"kind": "random_sparsify", "sparsify_mode": "random"},
    {"kind": "random_quantize"},
    {"kind": "norm_sign", "r": "x"},
    {"kind": "norm_sign", "r": 0.0},
    {"kind": "norm_sign", "psi": 1.5},
    {"kind": "uniform_quantize", "cap_c": -1.0},
    {"kind": "one_bit", "phi_c": "half"},
    {"kind": "one_bit", "phi_c": 0.0},
    {"kind": "norm_sign", "window": 3},
    "norm_sign",
    # keys that the kind does not read
    {"kind": "norm_sign", "delta": 5.0, "keep_k": 3, "levels": 9,
     "sparsify_mode": "random"},
    {"kind": "one_bit", "levels": 9},
    {"kind": "identity", "r": 2.0},
    {"kind": "uniform_quantize", "psi": 0.5},
    {"kind": "random_quantize", "levels": 17, "p_norm": 2.0},
    {"kind": "random_sparsify", "keep_k": 2, "cap_c": 1.0},
    {"kind": ["norm_sign"]},
    # the absolute classes are measured in the inf-norm only: in the 2-norm
    # their default constants would not bound the error
    {"kind": "uniform_quantize", "delta": 2.0, "p_norm": 2},
    {"kind": "one_bit", "p_norm": 2},
    # the class constants follow from the operator; a config that states
    # them would run and certify with constants the operator may not meet
    {"kind": "norm_sign", "r": 1.0},
    {"kind": "random_quantize", "levels": 17, "psi": 1.0},
    {"kind": "uniform_quantize", "delta": 2.0, "cap_c": 0.0},
    {"kind": "one_bit", "phi_c": 1.0},
])
@pytest.mark.parametrize("command", ["run", "bounds", "verify-compressor"])
def test_cli_bad_compressor_options_exit_2_before_any_output(tmp_path, capsys,
                                                             comp, command):
    if command == "verify-compressor":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(comp))
        assert cli.main([command, str(spec_path), "--d", "4",
                         "--trials", "200"]) == 2
        assert capsys.readouterr().out == ""
        return
    # a good dgt cell first: a bad later cell must not leave its outputs
    out = tmp_path / "o"
    cfg = {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(out),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}},
                  {"algo": "alg1", "compressor": comp, "force_params": True,
                   "params": {"eta": 0.3, "gamma": 0.3}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, str(cfg_path)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind, key", [("random_sparsify", "keep_k"),
                                       ("random_quantize", "levels")])
@pytest.mark.parametrize("command", ["run", "bounds", "verify-compressor"])
def test_cli_missing_compressor_key_is_named(tmp_path, capsys, kind, key,
                                             command):
    path = tmp_path / "cfg.json"
    comp = {"kind": kind}
    path.write_text(json.dumps(comp if command == "verify-compressor" else {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "o"),
        "cells": [{"algo": "alg1", "compressor": comp}]}))
    assert cli.main([command, str(path)]) == 2
    assert f"key {key!r}" in capsys.readouterr().err


def test_compressor_option_checks_cover_make_compressor_keywords():
    params = inspect.signature(make_compressor).parameters.values()
    assert set(config._COMPRESSOR_OPTIONS) == {
        p.name for p in params if p.kind is p.KEYWORD_ONLY}


_NORM_SIGN = {"compressor": {"kind": "norm_sign"}}
_ONE_BIT = {"compressor": {"kind": "one_bit"}}


@pytest.mark.parametrize("cell", [
    # a key that is no AlgorithmParams field
    {"algo": "alg1", **_NORM_SIGN, "params": {"etaa": 0.1}},
    {"algo": "alg1", **_NORM_SIGN, "mode": "certified",
     "params": {"etaa": 1}},
    # a value that is not a finite real
    {"algo": "alg1", **_NORM_SIGN, "force_params": True,
     "params": {"eta": "0.8"}},
    {"algo": "alg1", **_NORM_SIGN, "force_params": True,
     "params": {"eta": True}},
    {"algo": "alg3", **_ONE_BIT, "force_params": True,
     "params": {"mu": float("nan")}},
    {"algo": "alg2", **_NORM_SIGN, "mode": "certified",
     "params": {"phi_x": float("inf")}},
    # a key the rule does not read
    {"algo": "alg1", **_NORM_SIGN, "force_params": True,
     "params": {"varsigma": 0.3}},
    {"algo": "alg3", **_ONE_BIT, "force_params": True,
     "params": {"phi_x": 0.3}},
    {"algo": "alg2", **_NORM_SIGN, "force_params": True,
     "params": {"s0": 2.0}},
    {"algo": "dgt", "label": "dgt_2", "params": {"mu": 0.9}},
    # values AlgorithmParams rejects for the rule
    {"algo": "alg1", **_NORM_SIGN, "force_params": True,
     "params": {"gamma": 1.5}},
    {"algo": "alg2", **_NORM_SIGN, "force_params": True,
     "params": {"varsigma": -0.1}},
    {"algo": "alg3", **_ONE_BIT, "mode": "certified",
     "params": {"s0": -1.0}},
    {"algo": "alg3", **_ONE_BIT, "force_params": True,
     "params": {"mu": 1.5}},
    {"algo": "alg1", **_NORM_SIGN, "params": ["eta", 0.3]},
])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_bad_params_exit_2_before_any_output(tmp_path, cell, command):
    # a good dgt cell first: a bad later cell must not leave its outputs
    out = tmp_path / "o"
    cfg = {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(out),
        "cells": [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}},
                  cell],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, str(cfg_path)]) == 2
    assert not out.exists()


_GOOD_CELLS = [{"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}},
               {"algo": "alg1", **_NORM_SIGN, "force_params": True,
                "params": {"eta": 0.3, "gamma": 0.3}}]


@pytest.mark.parametrize("change", [
    # two cells that would write one CSV, sidecar and report row
    {"cells": _GOOD_CELLS + _GOOD_CELLS[1:]},
    {"cells": _GOOD_CELLS + [dict(_GOOD_CELLS[0], label="alg1_norm_sign")]},
    {"network": {"n": 5, "edge_density": 0.7, "topolgy": "ring"}},
    {"network": [5, 0.7]},
    {"seeds": {"graph": 4, "cost": 5, "algo": 6, "init": 7}},
    {"bit_model": {"bits_scaler": 32}},
    {"bit_model": 64},
    {"bit_model": {"bits_scalar": 32.5}},
    # bits_scalar is retired: runs send float64 scalars, billed 64 bits
    {"bit_model": {"bits_scalar": 32}},
    {"bit_model": {"bits_scalar": 64}},
    # L_f is 0 at scale 0, and a run's Lyapunov weight would divide by it
    {"cost": {"kind": "logistic_log", "d": 4, "scale": 0}},
    {"cost": {"kind": "logistic_log", "d": 4, "scale": -0.0}},
    {"broadcast": "false"},
    {"broadcast": 0},
    # an exact rule given a compressor, and a forced flag that is no bool
    {"cells": [dict(_GOOD_CELLS[0], **_NORM_SIGN)]},
    {"cells": [dict(_GOOD_CELLS[1], force_params="yes")]},
    # values that are not what they claim: a threshold or reference
    # tolerance that is not finite and positive, counts that are not ints,
    # seeds that are not nonnegative ints
    {"threshold": math.nan},
    {"threshold": math.inf},
    {"fstar_tol": math.nan},
    {"fstar_tol": math.inf},
    {"iters": 5.7},
    {"iters": "5"},
    {"network": {"n": 5.5, "edge_density": 0.7}},
    {"cost": {"kind": "quadratic_pl", "d": 4.5}},
    {"seeds": {"graph": 4, "cost": 5.5, "algo": 6}},
    {"seeds": {"graph": 4, "cost": 5, "algo": -6}},
    # names that become file names must name one file in output_dir
    {"scenario": "a/b"},
    {"scenario": "../escaped"},
    {"scenario": ""},
    {"scenario": ".."},
    {"scenario": 5},
    {"cells": [dict(_GOOD_CELLS[0], label="x/y")]},
    {"cells": [dict(_GOOD_CELLS[0], label=5)]},
    {"cells": [dict(_GOOD_CELLS[0], label=".")]},
    # <scenario>__report.json is the report's, not a sidecar's
    {"cells": [dict(_GOOD_CELLS[0], label="report")]},
    {"cells": [dict(_GOOD_CELLS[0], label="")]},
    {"cells": [dict(_GOOD_CELLS[0], label=0)]},
    {"output_dir": 5},
    # an edge density that is not a real number
    {"network": {"n": 5, "edge_density": "0.9"}},
    {"network": {"n": 5, "edge_density": True}},
    # the random topology needs an edge density and the ring reads none;
    # a topology that is not built in
    {"network": {"n": 5, "topology": "random"}},
    {"network": {"n": 5}},
    {"network": {"n": 5, "edge_density": 0.7, "topology": "ring"}},
    {"network": {"n": 5, "edge_density": 7, "topology": "ring"}},
    {"network": {"n": 5, "edge_density": 0.7, "topology": "torus"}},
    {"network": {"n": 5, "topology": 5}},
    # a scenario must end at its file names' first "__"
    {"scenario": "a__b"},
    {"scenario": "a_"},
    # a control character would split a line that names the file, such as
    # a plot title in the --gnuplot script
    {"scenario": "a\nb"},
    {"scenario": "a\x7f"},
    {"scenario": "\x00"},
    {"cells": [dict(_GOOD_CELLS[0], label="dgt\nplot 'x'")]},
    {"cells": [dict(_GOOD_CELLS[0], label="tab\there")]},
    {"cells": [dict(_GOOD_CELLS[0], label="unit\x1fsep")]},
])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_bad_config_sections_exit_2_before_any_output(tmp_path, change,
                                                          command):
    out = tmp_path / "o"
    cfg = {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(out),
        "cells": _GOOD_CELLS,
        **change,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, str(cfg_path)]) == 2
    assert not out.exists()


def _no_set_up(*args, **kwargs):
    raise AssertionError("set-up reached")


@pytest.mark.parametrize("doc", [[], [1], None, "abc", 5])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_config_that_is_no_object_exits_2_before_set_up(
        tmp_path, monkeypatch, capsys, doc, command):
    monkeypatch.setattr(harness, "generate_network", _no_set_up)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([command, str(cfg_path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("cost", ["kind d", 5, None, ["kind", "d"]])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_cost_that_is_no_object_exits_2_before_set_up(
        tmp_path, monkeypatch, capsys, cost, command):
    monkeypatch.setattr(harness, "generate_network", _no_set_up)
    out = tmp_path / "o"
    cfg = {"scenario": "cli", "iters": 5,
           "network": {"n": 5, "edge_density": 0.7}, "cost": cost,
           "seeds": {"graph": 4, "cost": 5, "algo": 6},
           "output_dir": str(out), "cells": _GOOD_CELLS}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, str(cfg_path)]) == 2
    assert "config.cost must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", [1, "alg1", None, ["alg1"]])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_cell_that_is_no_object_exits_2_before_set_up(
        tmp_path, monkeypatch, capsys, cell, command):
    monkeypatch.setattr(harness, "generate_network", _no_set_up)
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, [cell])))
    assert cli.main([command, str(cfg_path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "bounds", "verify-compressor"])
def test_cli_negative_seed_is_an_error_on_seed(tmp_path, monkeypatch, capsys,
                                               command):
    # the seeds that --seed derives are not keys the user wrote, and a
    # random generator takes no negative seed
    monkeypatch.setattr(harness, "generate_network", _no_set_up)
    cfg = {"scenario": "cli", "iters": 5,
           "network": {"n": 5, "edge_density": 0.7},
           "cost": {"kind": "quadratic_pl", "d": 4},
           "seeds": {"graph": 4, "cost": 5, "algo": 6},
           "output_dir": str(tmp_path / "o"), "cells": _GOOD_CELLS}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg if command != "verify-compressor"
                                   else {"kind": "norm_sign"}))
    for seed in ("-5", "-1", "x"):
        assert cli.main([command, str(cfg_path), "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err and "seeds" not in err, err


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_run_and_bounds_parse_each_spec_once(tmp_path, monkeypatch, capsys,
                                             command):
    # each cell is resolved once, by harness.resolve, and every certified or
    # compressed cell gets its region, for run and bounds alike
    calls = {"spec_from_config": 0, "cell_region": 0, "_region_class": 0}
    for module in (harness, cli):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    doc = _reference_both(iters=5, output_dir=str(tmp_path / "o"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([command, str(cfg_path)]) == 0
    # _region_class once a cell in resolve, and once a certified cell (3)
    # when the config is parsed
    assert calls == {"spec_from_config": 7, "cell_region": 7,
                     "_region_class": 10}
    assert not {"cell_region", "practical_point"} & set(vars(cli))


def test_region_errors_keep_no_instance_alive(tmp_path, monkeypatch):
    # every compressed cell's region is resolved, so forced cells keep the
    # error that says why they have none; kept with its traceback, its
    # frames would hold the network and cost suite in a reference cycle
    # that outlives the run until the cyclic collector runs
    made = []
    real = harness.build_instance

    def recorded(cfg):
        net, suite, *shared = real(cfg)
        made.extend([weakref.ref(net), weakref.ref(suite)])
        return net, suite, *shared

    monkeypatch.setattr(harness, "build_instance", recorded)
    # phi_x above 1/r, and a compressor of a class alg1 is not certified for
    cells = [{"algo": "alg1", **_NORM_SIGN, "force_params": True,
              "params": {"eta": 0.1, "gamma": 0.3, "phi_x": 0.9}},
             {"algo": "alg1", "compressor": {"kind": "uniform_quantize"},
              "force_params": True, "params": {"eta": 0.1, "gamma": 0.3}}]
    cfg = ExperimentConfig.from_dict(_quad_doc(tmp_path / "o", cells))
    gc.collect()
    gc.disable()
    try:
        report, _ = run_experiment(cfg)
        assert len(made) == 2
        assert [ref() for ref in made] == [None, None]
    finally:
        gc.enable()
    assert [row["status"] for row in report["rows"]] == ["ok", "ok"]


def test_program_bug_in_config_parsing_propagates(tmp_path, monkeypatch):
    # only the package's own errors are config errors: a TypeError raised
    # while a config is parsed is a bug, and surfaces
    def broken(**kwargs):
        raise TypeError("a bug inside BitCostModel")

    monkeypatch.setattr(harness, "BitCostModel", broken)
    cfg = {"scenario": "cli", "iters": 5,
           "network": {"n": 5, "edge_density": 0.7},
           "cost": {"kind": "quadratic_pl", "d": 4},
           "seeds": {"graph": 4, "cost": 5, "algo": 6},
           "bit_model": {"bits_int": 4}, "cells": _GOOD_CELLS}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(TypeError, match="a bug inside BitCostModel"):
        cli.main(["bounds", str(cfg_path)])


def test_ring_config_runs_without_edge_density(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = {"scenario": "ring", "iters": 5,
           "network": {"n": 5, "topology": "ring"},
           "cost": {"kind": "quadratic_pl", "d": 4},
           "seeds": {"graph": 4, "cost": 5, "algo": 6},
           "output_dir": str(out), "cells": _GOOD_CELLS}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    assert cli.main(["bounds", str(cfg_path)]) == 0
    sidecar = json.loads((out / "ring__dgt_exact.json").read_text())
    assert sidecar["sigma"] == generate_network(5, None, 0, "ring").sigma


def test_param_checks_cover_algorithm_params_and_rules():
    fields = {f.name for f in dataclasses.fields(AlgorithmParams)}
    # each rule's params table checks exactly the fields the rule reads
    assert set(config._PARAMS) == set(RULES)
    assert set().union(*(s.optional for s in config._PARAMS.values())) \
        == fields
    for name, section in config._PARAMS.items():
        assert set(section.optional) == set(RULES[name].params)
    for rule in RULES.values():
        assert set(rule.params) <= fields
        assert {"eta", "gamma"} <= set(rule.params)


def _quad_doc(out, cells, **extra):
    """A 6-agent quadratic instance with d = 4, so norm-sign has r = 2."""
    return {"scenario": "q", "iters": 1,
            "network": {"n": 6, "edge_density": 0.6},
            "cost": {"kind": "quadratic_pl", "d": 4},
            "seeds": {"graph": 1, "cost": 2, "algo": 3},
            "output_dir": str(out), "cells": cells, **extra}


def _edges():
    """The practical regions of the quadratic instance: each limit the
    practical check tests, computed from the calculators directly."""
    net, suite, *_ = harness.build_instance(
        ExperimentConfig.from_dict(_quad_doc("unused", [_GOOD_CELLS[0]])))
    ns = make_compressor("norm_sign", d=4)
    uq = make_compressor("uniform_quantize", d=4, delta=2.0)
    rel = analysis.bounds_relative(net.sigma, suite.L_f, ns, 0.3, 0.1)
    ef = analysis.bounds_error_feedback(net.sigma, suite.L_f, ns, 0.3, 0.1)
    glob = analysis.bounds_absolute_global(net.sigma, suite.L_f, net.n, 4,
                                           uq.cap_c)

    def eta_max(b, gamma):
        c = b.constants
        return min(analysis.eta_terms_relative(
            net.sigma, suite.L_f, c["c1"], c["c2"], gamma).values())
    return suite, rel, ef, glob, eta_max


_FACTOR = {"in": 1.0 - 1e-9, "at": 1.0, "out": 1.0 + 1e-9}


def _boundary_cells(side):
    """(label, cell) pairs just inside (``side`` "in"), exactly at ("at")
    or just outside ("out") each kept practical region: alg1, alg2, the
    global-class alg3 and dgt.  Inside, every limit is approached at once.
    At or outside, a cell breaks the one limit its label ends in; dgt's
    closed limit eta <= 1/L_f admits the point at it, which runs inside."""
    suite, rel, ef, glob, eta_max = _edges()
    f, f_in = _FACTOR[side], _FACTOR["in"]
    phis = {"phi_x": 0.3, "phi_y": 0.1}
    uq = {"compressor": {"kind": "uniform_quantize", "delta": 2.0}}
    cells = []

    def add(label, algo, extra, **params):
        cells.append((label, {"algo": algo, "label": label,
                              "params": params, **extra}))
    for tag, b, extra in (("alg1", rel, {}),
                          ("alg2", ef, {"varsigma": ef.varsigma_max * f_in})):
        g_in = b.gamma_max * f_in
        for g, gtag in ((g_in, "edge"), (0.25 * b.gamma_max, "mid")):
            add(f"{tag}_{gtag}" + ("" if side == "in" else "_eta"), tag,
                _NORM_SIGN, eta=eta_max(b, g) * f, gamma=g, **phis, **extra)
        if side != "in":
            add(f"{tag}_gamma", tag, _NORM_SIGN, eta=eta_max(b, g_in) * 0.5,
                gamma=b.gamma_max * f, **phis, **extra)
    if side != "in":
        g = 0.5 * ef.gamma_max
        add("alg2_varsigma", "alg2", _NORM_SIGN, eta=eta_max(ef, g) * 0.5,
            gamma=g, varsigma=ef.varsigma_max * f, **phis)
    # the global region's eta limit is taken at the given gamma too
    g_low = glob.gamma * 0.5
    if side == "in":
        add("alg3_edge", "alg3", uq, eta=glob.eta_max * f,
            gamma=glob.gamma_max * f, mu=0.98)
        add("alg3_low_gamma", "alg3", uq, eta=eta_max(glob, g_low) * f,
            gamma=g_low, mu=0.98)
        add("dgt", "dgt", {}, eta=1.0 / suite.L_f, gamma=f)
    else:
        add("alg3_eta", "alg3", uq, eta=glob.eta_max * f,
            gamma=glob.gamma, mu=0.98)
        add("alg3_low_gamma_eta", "alg3", uq,
            eta=eta_max(glob, g_low) * f, gamma=g_low, mu=0.98)
        add("alg3_gamma", "alg3", uq, eta=glob.eta_max * 0.5,
            gamma=glob.gamma_max * f, mu=0.98)
    if side == "out":
        add("dgt_eta", "dgt", {}, eta=f / suite.L_f, gamma=0.3)
    return cells


def test_practical_points_just_inside_every_kept_region_run(tmp_path):
    cells = [cell for _, cell in _boundary_cells("in")]
    report, _ = run_experiment(ExperimentConfig.from_dict(
        _quad_doc(tmp_path / "o", cells)))
    assert len(report["rows"]) == len(cells) == 7


def _exits_2_naming_its_limit(tmp_path, capsys, cell):
    """``run`` on the one practical ``cell`` exits 2 before writing a file,
    with a refusal that names the limit the cell's label ends in (1/L_f
    for dgt) and gives both numbers; forced, it runs the same point."""
    label = cell["label"]
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, [cell])))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert not out.exists()
    why = (r"eta=\S+ exceeds its limit 1/L_f=\S+" if cell["algo"] == "dgt"
           else rf"{label.rsplit('_', 1)[1]}=\S+ is not below its limit \S+")
    err = capsys.readouterr().err
    assert re.fullmatch(rf"config error: cell {label}: parameters cannot be "
                        rf"certified \({why}\); set force_params to run "
                        r"anyway\n", err), err
    cfg_path.write_text(json.dumps(_quad_doc(
        out, [dict(cell, force_params=True)])))
    assert cli.main(["run", str(cfg_path)]) in (0, 1)


@pytest.mark.parametrize("label", [lab for lab, _ in _boundary_cells("out")])
def test_practical_points_just_outside_a_kept_region_exit_2(tmp_path, capsys,
                                                            label):
    _exits_2_naming_its_limit(tmp_path, capsys,
                              dict(_boundary_cells("out"))[label])


@pytest.mark.parametrize("label", [lab for lab, _ in _boundary_cells("at")])
def test_practical_points_exactly_at_a_kept_limit_exit_2(tmp_path, capsys,
                                                         label):
    # the region's limits are strict, so a point at one lies outside
    _exits_2_naming_its_limit(tmp_path, capsys,
                              dict(_boundary_cells("at"))[label])


_DERIVED = [("alg1", _NORM_SIGN, "eta"), ("alg1", _NORM_SIGN, "gamma"),
            ("alg2", _NORM_SIGN, "eta"), ("alg2", _NORM_SIGN, "gamma"),
            ("alg2", _NORM_SIGN, "varsigma")]
_DERIVED += [("alg3", {"compressor": {"kind": "uniform_quantize",
                                      "delta": 2.0}}, key)
             for key in ("eta", "gamma")]
_DERIVED += [("alg3", _ONE_BIT, key) for key in ("eta", "gamma", "s0", "mu")]
_DERIVED += [("dgt", {}, key) for key in ("eta", "gamma")]
_GIVEN = {"eta": 0.5, "gamma": 0.9, "varsigma": 0.3, "s0": 2.0, "mu": 0.9}


@pytest.mark.parametrize("algo,comp,key", _DERIVED)
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_certified_cell_given_a_derived_param_exits_2(tmp_path, capsys, algo,
                                                      comp, key, command):
    cell = {"algo": algo, **comp, "mode": "certified",
            "params": {key: _GIVEN[key]}}
    with pytest.raises(ConfigError, match="certified mode derives"):
        ExperimentConfig.from_dict(_quad_doc("unused", [cell]))
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, [_GOOD_CELLS[0], cell])))
    assert cli.main([command, str(cfg_path)]) == 2
    assert "certified mode derives" in capsys.readouterr().err
    assert not out.exists()


def test_certified_cell_honours_its_region_inputs(tmp_path):
    uq = {"compressor": {"kind": "uniform_quantize", "delta": 2.0}}
    cells = [
        {"algo": "alg1", **_NORM_SIGN, "mode": "certified",
         "params": {"phi_x": 0.2, "phi_y": 0.15}},
        {"algo": "alg2", **_NORM_SIGN, "mode": "certified",
         "params": {"phi_x": 0.2}},
        {"algo": "alg3", **uq, "mode": "certified",
         "params": {"s0": 3.0, "mu": 0.97}},
    ]
    out = tmp_path / "o"
    run_experiment(ExperimentConfig.from_dict(_quad_doc(out, cells)))

    def sidecar(label):
        return json.loads((out / f"q__{label}.json").read_text())
    alg1 = sidecar("alg1_norm_sign_certified")
    assert (alg1["params"]["phi_x"], alg1["params"]["phi_y"]) == (0.2, 0.15)
    assert alg1["params"]["eta"] == alg1["bounds"]["eta"]
    alg2 = sidecar("alg2_norm_sign_certified")
    assert (alg2["params"]["phi_x"], alg2["params"]["phi_y"]) == (0.2, 0.25)
    alg3 = sidecar("alg3_uniform_quantize_certified")
    assert (alg3["params"]["s0"], alg3["params"]["mu"]) == (3.0, 0.97)
    assert alg3["bounds"]["mu"] == 0.97


def test_unforced_practical_local_class_cell_exits_2(tmp_path, capsys):
    # a one_bit cell at the globally bounded region's operating point used
    # to pass as certified under that theorem with C = 0, and ran with an
    # induction ratio of 1e282
    net, suite, *_ = harness.build_instance(
        ExperimentConfig.from_dict(_quad_doc("unused", [_GOOD_CELLS[0]])))
    b = analysis.bounds_absolute_global(net.sigma, suite.L_f, net.n, 4, 0.0)
    cell = {"algo": "alg3", **_ONE_BIT,
            "params": {"eta": b.eta, "gamma": b.gamma, "mu": 0.2,
                       "s0": 1e-3}}
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, [cell], iters=200)))
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert 'mode "certified"' in err and "force_params" in err
    assert not out.exists()
    # where the region cannot be built, the refusal gives its reason
    cfg_path.write_text(json.dumps(_quad_doc(out, [cell], cost={
        "kind": "logistic_log", "d": 4, "scale": 0.1})))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: cell alg3_one_bit: parameters cannot be certified "
        "(certified scaled-local runs need a cost with a known "
        "gradient-dominance constant); set force_params to run anyway\n")
    assert not out.exists()


def test_force_params_runs_an_uncertified_cell(tmp_path):
    # force_params on the cell is the one way to run params outside the
    # region
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cell = {"algo": "alg1", **_NORM_SIGN,
            "params": {"eta": 0.3, "gamma": 0.3}}
    cfg_path.write_text(json.dumps(_quad_doc(out, [cell])))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert not out.exists()
    cfg_path.write_text(json.dumps(_quad_doc(
        out, [dict(cell, force_params=True)])))
    assert cli.main(["run", str(cfg_path)]) == 0
    sidecar = json.loads((out / "q__alg1_norm_sign.json").read_text())
    assert sidecar["params"]["eta"] == 0.3


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_retired_spellings_exit_2_before_set_up(tmp_path, monkeypatch, capsys,
                                                command):
    # a document gives its cells only as a cells list, and a cell is forced
    # only by its force_params: one cell's keys at the top level are unknown
    # keys, and run takes no --force
    for module in (harness, cli):
        monkeypatch.setattr(module, "build_instance", _no_set_up)
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cell = {"algo": "alg1", **_NORM_SIGN, "force_params": True,
            "params": {"eta": 0.3, "gamma": 0.3}}
    single = dict(_quad_doc(out, []), **cell)
    del single["cells"]
    cfg_path.write_text(json.dumps(single))
    assert cli.main([command, str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "'algo'" in err, err
    cfg_path.write_text(json.dumps(_quad_doc(out, [cell])))
    assert cli.main([command, str(cfg_path), "--force"]) == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bounds_records_each_cell_error(tmp_path, capsys):
    # the scaled-local region needs a gradient-dominance constant, which the
    # logistic cost lacks (ConfigError); phi_x = 1/r is outside (0, 1/r) for
    # norm-sign at d = 4 (AnalysisError).  bounds records each region error
    # as it is, and run refuses the first cell by its label
    cells = [
        {"algo": "alg3", **_ONE_BIT, "mode": "certified"},
        {"algo": "alg1", **_NORM_SIGN, "mode": "certified",
         "params": {"phi_x": 0.5}},
        {"algo": "alg2", **_NORM_SIGN, "mode": "certified"},
    ]
    doc = _quad_doc(tmp_path / "o", cells,
                    cost={"kind": "logistic_log", "d": 4, "scale": 0.1})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    why = ("certified scaled-local runs need a cost with a known "
           "gradient-dominance constant")
    assert cli.main(["bounds", str(cfg_path)]) == 0
    tables = json.loads(capsys.readouterr().out)["cells"]
    assert tables["alg3_one_bit_certified"] == {"error": why}
    assert "phi_x=0.5 outside" in tables["alg1_norm_sign_certified"]["error"]
    assert tables["alg2_norm_sign_certified"]["gamma_max"] > 0
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cell alg3_one_bit_certified: no certified region: "
        f"{why}\n")
    assert not (tmp_path / "o").exists()


def test_cli_bounds_prints_the_region_that_run_checks(tmp_path, capsys):
    # a practical cell that sets no phis is checked at the rule's practical
    # phis, so its table is taken there too
    cell = {"algo": "alg1", **_NORM_SIGN,
            "params": {"eta": 1e-3, "gamma": 1e-3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(tmp_path / "o", [cell])))
    assert cli.main(["bounds", str(cfg_path)]) == 0
    table = json.loads(capsys.readouterr().out)["cells"]["alg1_norm_sign"]
    assert (table["constants"]["phi_x"], table["constants"]["phi_y"]) == (
        0.3, 0.1)
    assert cli.main(["run", str(cfg_path)]) == 2
    cell["params"] = {"eta": table["eta"], "gamma": table["gamma"]}
    cfg_path.write_text(json.dumps(_quad_doc(tmp_path / "o", [cell])))
    assert cli.main(["run", str(cfg_path)]) == 0


# a certified cell runs its region's operating point, so force_params would
# do nothing; and its compressor must be of a class its rule is certified
# for.  Both exit 2 before set-up and name the cell
@pytest.mark.parametrize("cell, label, why", [
    ({"algo": "alg1", **_NORM_SIGN, "mode": "certified",
      "force_params": True},
     "alg1_norm_sign_certified", "force_params does not apply"),
    ({"algo": "dgt", "mode": "certified", "force_params": True},
     "dgt_exact_certified", "force_params does not apply"),
    ({"algo": "alg3", **_NORM_SIGN, "mode": "certified"},
     "alg3_norm_sign_certified",
     "no certified region: alg3 expects a compressor class in"),
], ids=["forced", "forced-exact", "class-mismatch"])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_certified_cell_it_cannot_run_exits_2_before_set_up(
        tmp_path, monkeypatch, capsys, cell, label, why, command):
    monkeypatch.setattr(harness, "build_instance", _no_set_up)
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, [_GOOD_CELLS[0], cell])))
    assert cli.main([command, str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cell {label}: ") and why in err, err
    assert not out.exists()


def test_cli_run_out_overrides_the_output_dir(tmp_path):
    out, elsewhere = tmp_path / "o", tmp_path / "elsewhere"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, _GOOD_CELLS[:1])))
    assert cli.main(["run", str(cfg_path), "--out", str(elsewhere)]) == 0
    assert not out.exists()
    assert sorted(p.name for p in elsewhere.iterdir()) == [
        "q__dgt_exact.csv", "q__dgt_exact.json", "q__report.json"]


def test_cli_bounds_prints_a_certified_exact_cell(tmp_path, capsys):
    # a certified dgt cell runs at its region's operating point, and bounds
    # prints that region as its sidecar records it; a practical dgt cell
    # has no region, so no table
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_quad_doc(out, [
        _GOOD_CELLS[0], {"algo": "dgt", "mode": "certified"}])))
    assert cli.main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["bounds", str(cfg_path)]) == 0
    tables = json.loads(capsys.readouterr().out)["cells"]
    assert sorted(tables) == ["dgt_exact_certified"]
    table = tables["dgt_exact_certified"]
    sidecar = json.loads((out / "q__dgt_exact_certified.json").read_text())
    assert table["constants"] == sidecar["bounds"]
    assert (table["eta"], table["gamma"]) == (sidecar["params"]["eta"],
                                              sidecar["params"]["gamma"])
    # both cells send exact messages; the first is the baseline
    report = json.loads((out / "q__report.json").read_text())
    assert [row["compressor"] for row in report["rows"]] == ["exact"] * 2
    assert report["baseline"]["label"] == "dgt_exact"
