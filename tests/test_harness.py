"""Experiment orchestration: metric, bit ledger, reports, CLI contract."""

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cgtsim import cli, compressors, harness
from cgtsim.algorithms import AlgorithmParams, initial_point, run
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
from harness_oracles import file_digest, read_trace_csv, upsilon


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
    tr = run("dgt", 50, net, suite, AlgorithmParams(eta=0.3, gamma=0.3),
             seed=3, f_star=ref.f_star, bits_per_iter=100,
             record_states=True)
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
    # threshold above the starting value: crossing at k=0 with zero bits
    assert bits_to_threshold(tr, 1e12) == (0, 0)
    assert bits_to_threshold(tr, 1e-30) is None
    with pytest.raises(ConfigError):
        bits_to_threshold(tr, 0.0)


def test_per_iteration_bits_hand_arithmetic():
    net = generate_network(20, 0.35, seed=101)
    model = BitCostModel(bits_scalar=64, bits_int=4)
    # exact baseline: 2 vectors per agent at d * 64 bits
    assert per_iteration_bits("dgt", None, model, net, 50) == 20 * 2 * 50 * 64
    ns = make_compressor("norm_sign", d=50)
    assert per_iteration_bits("alg1", ns, model, net, 50) == 20 * 2 * 164
    assert per_iteration_bits("alg2", ns, model, net, 50) == 20 * 4 * 164
    ob = make_compressor("one_bit", d=50)
    assert per_iteration_bits("alg3", ob, model, net, 50) == 20 * 2 * 50
    # per-edge accounting counts each out-neighbour
    edges = int(net.out_degrees().sum())
    assert per_iteration_bits("alg1", ns, model, net, 50,
                              broadcast=False) == edges * 2 * 164


def test_csv_round_trip(tmp_path, small_run):
    *_, tr = small_run
    path = tmp_path / "t.csv"
    write_trace_csv(tr, path)
    data = read_trace_csv(path)
    assert np.array_equal(data["k"], np.arange(51))
    assert np.array_equal(data["consensus_err"], tr.consensus_err)
    assert np.array_equal(data["opt_gap"], tr.opt_gap)
    assert np.array_equal(data["bits"], tr.bits)
    # the running-minimum metric recomputed offline equals the online one
    offline = np.minimum.accumulate(data["consensus_err"] + data["opt_gap"])
    assert np.array_equal(offline, upsilon_series(tr))


def test_experiment_shares_initial_state(tmp_path, tiny_cfg_doc):
    doc = dict(tiny_cfg_doc)
    doc["output_dir"] = str(tmp_path / "a")
    cfg = ExperimentConfig.from_dict(doc)
    res = run_experiment(cfg)
    first_rows = set()
    for row in res.rows:
        data = read_trace_csv(row.csv_path)
        first_rows.add((data["consensus_err"][0], data["opt_gap"][0],
                        data["stationarity"][0]))
    assert len(first_rows) == 1  # same x0 in every cell
    assert res.baseline is not None


def test_experiment_rerun_is_byte_identical(tmp_path, tiny_cfg_doc):
    hashes = []
    for sub in ("r1", "r2"):
        doc = dict(tiny_cfg_doc)
        doc["output_dir"] = str(tmp_path / sub)
        res = run_experiment(ExperimentConfig.from_dict(doc))
        digest = [file_digest(res.report_path)]
        digest += [file_digest(r.csv_path) for r in res.rows]
        hashes.append(digest)
    assert hashes[0] == hashes[1]


def test_report_contents(tmp_path, tiny_cfg_doc):
    doc = dict(tiny_cfg_doc)
    doc["output_dir"] = str(tmp_path / "rep")
    res = run_experiment(ExperimentConfig.from_dict(doc))
    report = json.loads(Path(res.report_path).read_text(encoding="utf-8"))
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


def test_single_run_config_form(tmp_path):
    doc = {
        "scenario": "single",
        "iters": 60,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "s"),
        "algo": "alg1",
        "compressor": {"kind": "norm_sign"},
        "params": {"eta": 0.3, "gamma": 0.3, "phi_x": 0.3, "phi_y": 0.1},
        "force_params": True,
    }
    res = run_experiment(ExperimentConfig.from_dict(doc))
    assert len(res.rows) == 1
    assert res.rows[0].status == "ok"


def test_failed_cell_recorded_others_continue(tmp_path):
    doc = {
        "scenario": "mix",
        "iters": 300,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "m"),
        "cells": [
            {"algo": "alg1", "compressor": {"kind": "norm_sign"},
             "params": {"eta": 80.0, "gamma": 0.9, "phi_x": 0.3,
                        "phi_y": 0.1}, "force_params": True},
            {"algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3}},
        ],
    }
    res = run_experiment(ExperimentConfig.from_dict(doc))
    statuses = {r.label: r.status for r in res.rows}
    assert statuses["alg1_norm_sign"] == "nonfinite_state"
    assert statuses["dgt_exact"] == "ok"


def test_reference_scenario_config_modes():
    for mode in ("practical", "certified", "both"):
        doc = reference_scenario_config(mode=mode)
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.network["n"] == 20 and cfg.cost["d"] == 50
    with pytest.raises(ConfigError):
        reference_scenario_config(mode="fancy")


def test_cli_exit_codes(tmp_path):
    cfg = {
        "scenario": "cli",
        "iters": 40,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "o"),
        "algo": "dgt",
        "params": {"eta": 0.3, "gamma": 0.3},
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
    lying = tmp_path / "lying.json"
    lying.write_text(json.dumps({"kind": "norm_sign", "r": 5.0, "psi": 0.9}))
    assert cli.main(["verify-compressor", str(lying), "--d", "10",
                     "--trials", "200"]) == 1


def test_cli_config_errors_exit_2_and_program_bugs_propagate(tmp_path,
                                                             monkeypatch):
    cfg = {
        "scenario": "cli", "iters": 5,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "o"),
        "algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3},
    }
    unparsable = tmp_path / "unparsable.json"
    unparsable.write_text("{\"scenario\": ")
    assert cli.main(["run", str(unparsable)]) == 2
    assert cli.main(["bounds", str(tmp_path / "missing.json")]) == 2
    cfg_path = tmp_path / "cfg.json"
    # non-integer counts, and a gamma that AlgorithmParams rejects
    for bad in ({"iters": "many"},
                {"network": {"n": "five", "edge_density": 0.7}},
                {"params": {"eta": 0.3, "gamma": 1.5}, "force_params": True}):
        cfg_path.write_text(json.dumps(dict(cfg, **bad)))
        assert cli.main(["run", str(cfg_path)]) == 2
    monkeypatch.setenv("CGT_SEED", "seven")
    assert cli.main(["run", str(cfg_path)]) == 2
    monkeypatch.delenv("CGT_SEED")

    def broken_run(*args, **kwargs):
        raise ValueError("a bug inside the stepper")

    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setattr(harness, "run", broken_run)
    with pytest.raises(ValueError, match="a bug inside the stepper"):
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
        "algo": "dgt", "params": {"eta": 0.3, "gamma": 0.3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, str(cfg_path)]) == 2
    assert not out.exists()


def test_cost_option_checks_cover_generate_suite_keywords():
    params = inspect.signature(generate_suite).parameters.values()
    assert set(harness._COST_OPTIONS) == {
        p.name for p in params if p.kind is p.KEYWORD_ONLY}


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

    monkeypatch.setattr(cli, "solve_reference", no_solve)
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
    solve = cli.solve_reference
    monkeypatch.setattr(cli, "solve_reference",
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
    assert tables["cells"]["alg3_uniform_quantize_certified"]["mu"] == 0.97


def test_cli_seed_override_env_and_flag(tmp_path, monkeypatch, capsys):
    cfg = {
        "scenario": "seed",
        "iters": 30,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "e1"),
        "algo": "dgt",
        "params": {"eta": 0.3, "gamma": 0.3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("CGT_SEED", "900")
    assert cli.main(["run", str(cfg_path)]) == 0
    env_sidecar = json.loads(
        (tmp_path / "e1" / "seed__dgt_exact.json").read_text())
    assert env_sidecar["seeds"] == {"graph": 901, "cost": 902, "algo": 903}
    cfg["output_dir"] = str(tmp_path / "e2")
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path), "--seed", "70"]) == 0
    flag_sidecar = json.loads(
        (tmp_path / "e2" / "seed__dgt_exact.json").read_text())
    assert flag_sidecar["seeds"] == {"graph": 71, "cost": 72, "algo": 73}


def test_cli_gnuplot_helper(tmp_path):
    cfg = {
        "scenario": "gp",
        "iters": 30,
        "network": {"n": 5, "edge_density": 0.7},
        "cost": {"kind": "quadratic_pl", "d": 4},
        "seeds": {"graph": 4, "cost": 5, "algo": 6},
        "output_dir": str(tmp_path / "g"),
        "algo": "dgt",
        "params": {"eta": 0.3, "gamma": 0.3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path), "--gnuplot"]) == 0
    script = (tmp_path / "g" / "gp__plot.gnuplot").read_text()
    assert "gp__dgt_exact.csv" in script



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
    {"kind": "norm_sign", "r": "x"},
    {"kind": "norm_sign", "r": 0.0},
    {"kind": "norm_sign", "psi": 1.5},
    {"kind": "uniform_quantize", "cap_c": -1.0},
    {"kind": "one_bit", "phi_c": "half"},
    {"kind": "one_bit", "phi_c": 0.0},
    {"kind": "norm_sign", "window": 3},
    "norm_sign",
])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_bad_compressor_options_exit_2_before_any_output(tmp_path, comp,
                                                             command):
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


def test_compressor_option_checks_cover_make_compressor_keywords():
    params = inspect.signature(make_compressor).parameters.values()
    assert set(compressors._CONFIG_OPTIONS) == {
        p.name for p in params if p.kind is p.KEYWORD_ONLY}
