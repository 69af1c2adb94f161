"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Numbers follow the criterion list in the project contract; shared
instances are module-scoped so the whole suite stays fast.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from cgtsim import analysis
from cgtsim.algorithms import (
    AlgorithmParams,
    auto_s0,
    initial_point,
    practical_params,
    run,
    scaling_sequence,
)
from cgtsim.compressors import make_compressor, verify_assumption
from cgtsim.costs import generate_suite, solve_reference
from cgtsim.graph import generate_network
from cgtsim.harness import (
    ExperimentConfig,
    reference_scenario_config,
    run_experiment,
    upsilon_series,
)
from analysis_oracles import check_descent, fit_rate, pl_rate
from cost_oracles import eval_cost, grad
from harness_oracles import file_digest
from run_recorder import run_recorded

FSTAR_TOL = 1e-10


def _report(num, desc):
    print(f"ACCEPTANCE {num}: PASS - {desc}")


@pytest.fixture(scope="module")
def benchmark_scenario():
    """Pinned 20-agent, 50-dimensional instance shared by criteria 1-3, 7, 9."""
    net = generate_network(20, 0.35, seed=101)
    suite = generate_suite("logistic_log", n=20, d=50, seed=202, scale=0.1)
    ref = solve_reference(suite, tol=1e-9)
    x0 = initial_point(20, 50, 404)
    # compile every kernel before any timed section
    for algo, comp, params in _scenario_cells(suite, x0):
        warm = run(algo, 2, net, suite, params, comp, seed=1, x0=x0)
        assert warm.status == "ok"
    return net, suite, ref, x0


@pytest.fixture(scope="module")
def pl_instance():
    """Quadratic gradient-dominated instance shared by criteria 5, 6, 8."""
    net = generate_network(10, 0.5, seed=33)
    suite = generate_suite("quadratic_pl", n=10, d=5, seed=44)
    ref = solve_reference(suite, tol=FSTAR_TOL)
    x0 = initial_point(10, 5, 9)
    return net, suite, ref, x0


def _scenario_cells(suite, x0):
    d = suite.d
    s0 = auto_s0(x0, suite)
    return [
        ("alg1", make_compressor("norm_sign", d=d), practical_params("alg1")),
        ("alg2", make_compressor("norm_sign", d=d), practical_params("alg2")),
        ("alg3", make_compressor("uniform_quantize", d=d, delta=2.0),
         dataclasses.replace(practical_params("alg3"), s0=s0)),
        ("dgt", None, practical_params("dgt")),
    ]


def test_criterion_1_mean_recursions(benchmark_scenario):
    net, suite, ref, x0 = benchmark_scenario
    for algo, comp, params in _scenario_cells(suite, x0):
        t0 = time.perf_counter()
        tr = run(algo, 500, net, suite, params, comp, seed=404, x0=x0,
                 f_star=ref.f_star)
        elapsed = time.perf_counter() - t0
        assert tr.status == "ok", algo
        assert tr.diagnostics["mean_x_recursion"] <= 1e-9, algo
        assert tr.diagnostics["mean_y_tracking"] <= 1e-9, algo
        assert elapsed < 10.0, (algo, elapsed)
    _report(1, "mean recursions hold to 1e-9 for all four methods, "
               "500 iterations, under 10 s per run")


def test_criterion_2_structural_identities(benchmark_scenario):
    net, suite, ref, x0 = benchmark_scenario
    for algo, comp, params in _scenario_cells(suite, x0):
        if algo == "dgt":
            continue
        tr = run(algo, 500, net, suite, params, comp, seed=404, x0=x0,
                 f_star=ref.f_star)
        assert tr.diagnostics["struct_x"] <= 1e-12, algo
        assert tr.diagnostics["struct_y"] <= 1e-12, algo
    _report(2, "accumulator identities hold to 1e-12 relative residual "
               "at every iteration")


def test_criterion_3_exact_compressor_reduction(benchmark_scenario):
    net, suite, ref, x0 = benchmark_scenario
    ident = make_compressor("identity", d=50)
    base = run_recorded("dgt", 200, net, suite,
                        AlgorithmParams(eta=0.8, gamma=0.3), seed=404, x0=x0)
    variants = [
        ("alg1", AlgorithmParams(eta=0.8, gamma=0.3, phi_x=1.0, phi_y=1.0)),
        ("alg2", AlgorithmParams(eta=0.8, gamma=0.3, phi_x=1.0, phi_y=1.0,
                                 varsigma=0.3)),
        ("alg3", AlgorithmParams(eta=0.8, gamma=0.3, s0=10.0, mu=0.99)),
    ]
    for algo, params in variants:
        tr = run_recorded(algo, 200, net, suite, params, ident, seed=404,
                          x0=x0)
        sup = float(np.max(np.abs(tr.x_hist - base.x_hist)))
        assert sup <= 1e-10, (algo, sup)
    _report(3, "identity-compressor runs match the exact baseline to 1e-10 "
               "over 200 iterations")


def test_criterion_4_compressor_certification():
    rng = np.random.default_rng(777)
    for d in (2, 10, 50):
        spec = make_compressor("norm_sign", d=d)
        assert spec.r == d / 2 and spec.psi == 1.0 / d**2
        rep = verify_assumption(spec, trials=1000, rng=rng)
        assert rep.passed and not rep.violations, d
    uq = make_compressor("uniform_quantize", d=50, delta=2.0)
    assert uq.cap_c == 1.0
    rep = verify_assumption(uq, trials=1000, rng=rng)
    assert rep.passed and not rep.violations
    ob = make_compressor("one_bit", d=50)
    assert ob.phi_c == 0.5
    rep = verify_assumption(ob, trials=1000, rng=rng)
    assert rep.passed and not rep.violations
    topk = make_compressor("random_sparsify", d=50, keep_k=10)
    assert topk.psi == pytest.approx(0.2)
    rep = verify_assumption(topk, trials=1000, rng=rng)
    assert rep.passed and not rep.violations
    rnd = make_compressor("random_sparsify", d=50, keep_k=10,
                          sparsify_mode="random")
    rep = verify_assumption(rnd, trials=1000, rng=rng)
    assert rep.passed
    assert rep.max_observed_ratio <= (1 - rnd.psi) * 1.05
    _report(4, "norm-sign (d=2,10,50), uniform, one-bit, and top-k/random "
               "sparsify all certify their bounds over >=1000 trials")


def test_criterion_5_lyapunov_descent(pl_instance):
    net, suite, ref, x0 = pl_instance
    slack0 = 10.0 * FSTAR_TOL
    # relative-class tracker, full Lyapunov function
    ns = make_compressor("norm_sign", d=5)
    b1 = analysis.bounds_relative(net.sigma, suite.L_f, ns, 0.2, 0.2)
    tr1 = run("alg1", 2000, net, suite,
              AlgorithmParams(eta=b1.eta, gamma=b1.gamma, phi_x=0.2,
                              phi_y=0.2), ns, seed=9, x0=x0,
              f_star=ref.f_star)
    chk1 = check_descent(tr1.lyapunov, slack=slack0)
    assert chk1["ok"], chk1
    # error-feedback variant with its extended function
    b2 = analysis.bounds_error_feedback(net.sigma, suite.L_f, ns, 0.2, 0.2)
    tr2 = run("alg2", 2000, net, suite,
              AlgorithmParams(eta=b2.eta, gamma=b2.gamma, phi_x=0.2,
                              phi_y=0.2, varsigma=b2.varsigma), ns, seed=9,
              x0=x0, f_star=ref.f_star)
    chk2 = check_descent(tr2.lyapunov, slack=slack0)
    assert chk2["ok"], chk2
    # scaled tracker with the geometric additive slack
    uq = make_compressor("uniform_quantize", d=5, delta=2.0)
    mu = 0.995
    s0 = auto_s0(x0, suite)
    b3 = analysis.bounds_absolute_global(net.sigma, suite.L_f, 10, 5,
                                         uq.cap_c, mu=mu)
    tr3 = run("alg3", 2000, net, suite,
              AlgorithmParams(eta=b3.eta, gamma=b3.gamma, s0=s0, mu=mu),
              uq, seed=9, x0=x0, f_star=ref.f_star)
    svals = scaling_sequence(s0, mu, 2000)
    slack = b3.constants["breve_theta8"] * svals**2 + slack0
    chk3 = check_descent(tr3.lyapunov, slack=slack)
    assert chk3["ok"], chk3
    _report(5, "certified-parameter Lyapunov descent holds for 2000 "
               "iterations (alg1, alg2 exact; alg3 within its geometric "
               "slack)")


def test_criterion_6_linear_rate_under_gradient_dominance(pl_instance):
    net, suite, ref, x0 = pl_instance
    t_start = time.perf_counter()
    alg3 = dataclasses.replace(practical_params("alg3"), s0=auto_s0(x0, suite))
    cells = [
        ("alg1", make_compressor("norm_sign", d=5),
         practical_params("alg1"), 1500),
        ("alg2", make_compressor("norm_sign", d=5),
         practical_params("alg2"), 1500),
        ("alg3", make_compressor("uniform_quantize", d=5, delta=2.0),
         dataclasses.replace(alg3, mu=0.95), 380),
        ("alg3", make_compressor("one_bit", d=5),
         dataclasses.replace(alg3, mu=0.995), 2200),
        ("dgt", None, practical_params("dgt"), 1500),
    ]
    for algo, comp, params, iters in cells:
        tr = run(algo, iters, net, suite, params, comp, seed=9, x0=x0,
                 f_star=ref.f_star)
        assert tr.status == "ok"
        metric = tr.consensus_err + tr.opt_gap
        assert metric.min() < 1e-8, (algo, metric.min())
        lo = iters // 3
        assert np.all(metric[lo:] > 0)
        fit = fit_rate(np.arange(lo, iters + 1), metric[lo:],
                                "linear")
        assert fit["r_squared"] >= 0.99, (algo, fit)
        assert fit["rate"] < 1.0
    # certified parameters: observed contraction at least half the
    # guaranteed linear rate
    ns = make_compressor("norm_sign", d=5)
    b = analysis.bounds_relative(net.sigma, suite.L_f, ns, 0.2, 0.2)
    theta4 = pl_rate(b.constants, suite.nu_pl)
    tr = run("alg1", 3000, net, suite,
             AlgorithmParams(eta=b.eta, gamma=b.gamma, phi_x=0.2, phi_y=0.2),
             ns, seed=9, x0=x0, f_star=ref.f_star)
    metric = tr.consensus_err + tr.opt_gap
    fit = fit_rate(np.arange(1000, 3001), metric[1000:], "linear")
    assert fit["rate"] <= 1.0 - theta4 / 2, (fit["rate"], theta4)
    assert fit["r_squared"] >= 0.99
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0, elapsed
    _report(6, "practical runs reach 1e-8 with log-linear R^2 >= 0.99; "
               "certified fitted rate beats 1 - theta4/2; under 60 s")


def test_criterion_7_sublinear_bound_without_dominance(benchmark_scenario):
    net, suite, ref, x0 = benchmark_scenario
    ns = make_compressor("norm_sign", d=50)
    px = py = 0.5 / ns.r
    horizon = 10_000
    checks = []

    b1 = analysis.bounds_relative(net.sigma, suite.L_f, ns, px, py)
    tr = run("alg1", horizon, net, suite,
             AlgorithmParams(eta=b1.eta, gamma=b1.gamma, phi_x=px, phi_y=py),
             ns, seed=404, x0=x0, f_star=ref.f_star)
    checks.append(("alg1", tr, tr.lyapunov[0] / b1.constants["theta1"]))

    b2 = analysis.bounds_error_feedback(net.sigma, suite.L_f, ns, px, py)
    tr2 = run("alg2", horizon, net, suite,
              AlgorithmParams(eta=b2.eta, gamma=b2.gamma, phi_x=px,
                              phi_y=py, varsigma=b2.varsigma), ns, seed=404,
              x0=x0, f_star=ref.f_star)
    checks.append(("alg2", tr2, tr2.lyapunov[0] / b2.constants["hat_theta1"]))

    uq = make_compressor("uniform_quantize", d=50, delta=2.0)
    mu = 0.995
    s0 = auto_s0(x0, suite)
    b3 = analysis.bounds_absolute_global(net.sigma, suite.L_f, 20, 50,
                                         uq.cap_c, mu=mu)
    tr3 = run("alg3", horizon, net, suite,
              AlgorithmParams(eta=b3.eta, gamma=b3.gamma, s0=s0, mu=mu),
              uq, seed=404, x0=x0, f_star=ref.f_star)
    geo = (b3.constants["breve_theta8"] * s0 * s0 / (1.0 - mu * mu))
    checks.append(("alg3", tr3,
                   (tr3.lyapunov[0] + geo) / b3.constants["breve_theta1"]))

    for name, trace, K in checks:
        assert trace.status == "ok", name
        running = np.minimum.accumulate(trace.consensus_err
                                        + trace.stationarity)
        for T in (100, 1000, 10_000):
            assert running[T] <= K / T, (name, T, running[T], K / T)
    _report(7, "running minimum of consensus error plus stationarity stays "
               "below the run-derived K/T at T = 1e2, 1e3, 1e4")


def test_criterion_8_scaled_induction_hypotheses(pl_instance):
    net, suite, ref, x0 = pl_instance
    from cgtsim.costs import grad_all, mean_value

    y0 = grad_all(suite, x0)
    xbar = x0.mean(axis=0)
    b = analysis.bounds_scaled_local(
        net.sigma, suite.L_f, suite.nu_pl, 0.5, 10, 5,
        cons0=float(((x0 - xbar) ** 2).sum()),
        track0=float(((y0 - y0.mean(axis=0)) ** 2).sum()),
        gap0=10 * (mean_value(suite, xbar) - ref.f_star),
        x0_norm_max=float(np.linalg.norm(x0, axis=1).max()),
        y0_norm_max=float(np.linalg.norm(y0, axis=1).max()))
    ob = make_compressor("one_bit", d=5)
    tr = run("alg3", 1000, net, suite,
             AlgorithmParams(eta=b.eta, gamma=b.gamma, s0=b.s0, mu=b.mu),
             ob, seed=9, x0=x0, f_star=ref.f_star)
    assert tr.status == "ok"
    # the run derives the region's scaled function: its first row is the
    # region's U~(0)
    assert tr.lyapunov_name == "scaled"
    assert tr.lyapunov[0] == pytest.approx(b.constants["u_tilde_0"],
                                           rel=1e-12)
    assert tr.diagnostics["induction_x"] <= 1.0 + 1e-12
    assert tr.diagnostics["induction_y"] <= 1.0 + 1e-12
    _report(8, "scaled-difference induction bounds ||X-Xhat||_inf <= s(k) "
               "and ||Y-Yhat||_inf <= s(k) hold over 1000 one-bit steps")


def test_criterion_9_bit_budget_ordering(tmp_path):
    doc = reference_scenario_config(mode="practical", iters=1500,
                                    output_dir=str(tmp_path / "rep"))
    report, _ = run_experiment(ExperimentConfig.from_dict(doc))
    rows = {r["label"]: r for r in report["rows"]}
    base = rows["dgt_exact"]
    assert base["bits"] is not None
    compressed = ["alg1_norm_sign", "alg2_norm_sign",
                  "alg3_uniform_quantize", "alg3_one_bit"]
    for label in compressed:
        row = rows[label]
        assert row["bits"] is not None, label
        assert row["percent"] < 30.0, (label, row["percent"])
    bits = {label: rows[label]["bits"] for label in compressed}
    assert bits["alg3_one_bit"] == min(bits.values()), bits
    # error feedback reaches the target at least as fast as the plain tracker
    assert rows["alg2_norm_sign"]["iters"] <= rows["alg1_norm_sign"]["iters"]
    _report(9, "all compressed cells reach the 1e-3 target under 30% of "
               "the exact baseline's bits; the one-bit cell is cheapest")


def test_criterion_10_determinism(tmp_path):
    digests = []
    for sub in ("d1", "d2"):
        doc = reference_scenario_config(mode="practical", iters=600,
                                        output_dir=str(tmp_path / sub))
        report, paths = run_experiment(ExperimentConfig.from_dict(doc))
        # every file written, the report and each row's CSV among them
        entry = {path.name: file_digest(path) for path in paths}
        assert {"reference_practical__report.json"} | {
            f"reference_practical__{row['label']}.csv"
            for row in report["rows"]} <= set(entry)
        digests.append(entry)
    assert digests[0] == digests[1]
    _report(10, "identical configs reproduce byte-identical trace CSVs and "
                "report JSON")


def test_criterion_11_gradient_correctness():
    for kind in ("logistic_log", "quadratic_pl"):
        suite = generate_suite(kind, n=5, d=6, seed=71)
        rng = np.random.default_rng(72)
        for _ in range(100):
            i = int(rng.integers(5))
            x = rng.standard_normal(6) * rng.uniform(0.2, 2.0)
            num = np.zeros(6)
            for j in range(6):
                e = np.zeros(6)
                e[j] = 1e-6
                num[j] = (eval_cost(suite, i, x + e)
                          - eval_cost(suite, i, x - e)) / 2e-6
            ana = grad(suite, i, x)
            rel = (np.linalg.norm(ana - num)
                   / max(np.linalg.norm(num), 1e-8))
            assert rel <= 1e-5, (kind, rel)
    _report(11, "central finite differences confirm analytic gradients to "
                "1e-5 relative error on 100 points per cost family")
