"""Parameter-region formulas, Lyapunov evaluation, and rate fitting."""

import math

import numpy as np
import pytest

from cgtsim import analysis
from cgtsim.algorithms import AlgorithmParams, initial_point
from cgtsim.analysis import (
    AnalysisError,
    ParameterBounds,
    bounds_absolute_global,
    bounds_error_feedback,
    bounds_relative,
    bounds_scaled_local,
    descent_chain,
    ef_weight,
    lyapunov_weight,
    mixing_constants,
    scaled_gap_weight,
)
from analysis_oracles import (
    check_descent,
    fit_rate,
    geometric_tail_bound,
    lyapunov_eval,
    pl_rate,
    sample_mean_descent,
)
from cgtsim.compressors import make_compressor
from cgtsim.costs import generate_suite, grad_all, solve_reference
from cgtsim.graph import generate_network
from pinned_region_constants import PINNED
from run_recorder import StackedState, run_recorded


def test_mixing_constants_and_domain():
    c1, c2 = mixing_constants(0.03, 0.01, 25.0, 4e-4)
    assert c1 == pytest.approx(0.5 * 0.03 * 4e-4 * 25.0)
    assert c2 == pytest.approx(0.5 * 0.01 * 4e-4 * 25.0)
    assert 0 < c2 < c1 < 0.5
    with pytest.raises(AnalysisError):
        mixing_constants(0.05, 0.01, 25.0, 4e-4)  # phi_x above 1/r
    with pytest.raises(AnalysisError):
        mixing_constants(-0.1, 0.1, 1.0, 1.0)


_SCALED_LOCAL_START = dict(cons0=1.0, track0=1.0, gap0=1.0, x0_norm_max=1.0,
                          y0_norm_max=1.0)


@pytest.mark.parametrize("refused, message", [
    (lambda: mixing_constants(0.1, 0.1, 0.0, 1.0),
     "invalid compressor constants r=0.0"),
    (lambda: mixing_constants(0.1, 0.1, 1.0, 1.5),
     "invalid compressor constants r=1.0, psi=1.5"),
    (lambda: mixing_constants(0.1, 1.5, 1.0, 1.0), r"phi_y=1\.5 outside"),
    (lambda: ef_weight(0.25, 0.25, -1.0), "C must be nonnegative"),
    (lambda: bounds_relative(1.0, 1.0, make_compressor("identity", d=4),
                             0.5, 0.5), r"sigma=1\.0 outside \(0, 1\)"),
    (lambda: bounds_relative(0.5, 0.0, make_compressor("identity", d=4),
                             0.5, 0.5), "L must be positive"),
    (lambda: bounds_relative(0.5, 1.0, make_compressor("one_bit", d=4),
                             0.5, 0.5), "need a relative compressor"),
    (lambda: bounds_scaled_local(0.5, 1.0, 0.0, 0.5, 4, 3,
                                 **_SCALED_LOCAL_START), "nu must be positive"),
    (lambda: bounds_scaled_local(0.5, 1.0, 0.3, 1.5, 4, 3,
                                 **_SCALED_LOCAL_START),
     r"phi_c must lie in \(0, 1\]"),
    # a NaN start summary makes u_tilde_0 NaN
    (lambda: bounds_scaled_local(0.5, 1.0, 0.3, 0.5, 4, 3,
                                 **{**_SCALED_LOCAL_START, "cons0": math.nan}),
     "non-positive constant produced"),
    # a start summary so negative that u_tilde_0 < 0, checked before s0_min
    # takes its square root
    (lambda: bounds_scaled_local(0.5, 1.0, 0.3, 0.5, 4, 3,
                                 **{**_SCALED_LOCAL_START, "gap0": -100.0}),
     "non-positive constant produced"),
], ids=["r", "psi", "phi_y", "ef-C", "sigma", "L", "not-relative", "nu",
        "phi_c", "non-positive-constant", "negative-start"])
def test_refusals(refused, message):
    with pytest.raises(AnalysisError, match=message):
        refused()


def test_weights_pinned_values():
    assert lyapunov_weight(0.5, 2.0) == pytest.approx(0.25 / 1280.0)
    assert ef_weight(0.25, 0.25, 2.0) == pytest.approx(
        0.1 / 2.0 * 0.25 * 1.5)
    assert math.isinf(ef_weight(0.25, 0.25, 0.0))
    assert scaled_gap_weight(0.1, 0.2, 0.5, 2.0) == pytest.approx(
        0.4 * 0.2 * 0.5 / (0.1 * 4.0))
    # +inf where eta L^2 underflows to 0, as at any params validate accepts
    assert math.isinf(scaled_gap_weight(5e-324, 0.6, 0.5, 0.01))


def test_exact_compressor_bounds_hand_evaluated():
    # sigma=0.5, L=1, identity compressor (r=1, psi=1 so C=0), phi=1/2 each:
    # c1=c2=1/4; only the two C-free terms survive and the second binds.
    comp = make_compressor("identity", d=4)
    b = bounds_relative(0.5, 1.0, comp, phi_x=0.5, phi_y=0.5)
    want = min(0.5 / (160.0 * 5.0), 0.5 / (40000.0 * 5.0))
    assert b.gamma_max == pytest.approx(want, rel=1e-12)
    assert b.gamma_max == pytest.approx(2.5e-6, rel=1e-12)
    assert b.gamma == pytest.approx(1.25e-6, rel=1e-12)
    assert 0 < b.eta < b.eta_max
    assert b.eta_max <= b.gamma  # eta list contains gamma itself
    assert math.isinf(b.constants["gamma_term_3"])


def test_theta_positivity_on_sampled_region():
    net_sigma, L = 0.6, 1.3
    comp = make_compressor("norm_sign", d=10)
    b = bounds_relative(net_sigma, L, comp, phi_x=0.15, phi_y=0.1)
    rng = np.random.default_rng(0)
    c1 = b.constants["c1"]
    c2 = b.constants["c2"]
    for _ in range(200):
        g = rng.uniform(1e-6, 1.0) * b.gamma_max
        ets = analysis.eta_terms_relative(net_sigma, L, c1, c2, g)
        e = rng.uniform(1e-6, 1.0) * min(ets.values())
        ch = descent_chain(net_sigma, L, c1, c2, comp.cap_c, e, g)
        assert ch["theta2"] > 0
        assert ch["theta9"] > 0
        for key in ("theta5", "theta6", "theta7", "theta8"):
            assert 0 < ch[key] < 1, (key, ch[key])
        # near the region edge theta6 can overshoot phi by ~1e-9 relative
        # (the 0.321-constant step of the published chain is loose for
        # larger sigma); the tracking weight stays essentially tight
        assert ch["theta6"] < ch["phi"] * 1.01


def test_worse_compressor_never_widens_gamma():
    comp = make_compressor("norm_sign", d=10)
    prev = None
    for psi in np.linspace(0.01, 0.0001, 12):
        c1, c2 = mixing_constants(0.02, 0.02, comp.r, psi)
        cap = 2 * comp.r**2 * (1 - psi) + 2 * (1 - comp.r) ** 2
        gm = min(analysis.gamma_terms_relative(0.5, 1.0, c1, c2, cap).values())
        if prev is not None:
            assert gm <= prev + 1e-18
        prev = gm


def test_error_feedback_bounds():
    comp = make_compressor("norm_sign", d=5)
    b1 = bounds_relative(0.6, 1.0, comp, phi_x=0.2, phi_y=0.2)
    b3 = bounds_error_feedback(0.6, 1.0, comp, phi_x=0.2, phi_y=0.2)
    # the error-feedback gamma list includes the plain region cap
    assert b3.gamma_max <= b1.gamma_max + 1e-18
    C = comp.cap_c
    assert b3.varsigma_max == pytest.approx(
        min(1 / (2 * math.sqrt(C)), 1 / math.sqrt(2 * C + 1)))
    c1 = b3.constants["c1"]
    c2 = b3.constants["c2"]
    assert b3.constants["phi_hat"] == pytest.approx(
        0.1 / C * min(c1 * (2 * c1 + 1), c2 * (2 * c2 + 1)))
    # exact-compressor limit: retention bound collapses to 1
    ident = make_compressor("identity", d=5)
    b0 = bounds_error_feedback(0.6, 1.0, ident, phi_x=0.5, phi_y=0.5)
    assert b0.varsigma_max == pytest.approx(1.0)


def test_absolute_global_bounds_and_slack():
    b = bounds_absolute_global(0.5, 1.0, n=10, d=5, cap_c=1.0, mu=0.995)
    c = b.constants
    assert c["breve_theta8"] == pytest.approx(
        2 * 10 * 5 * (8 * b.gamma / 0.5 * 1.0) * 3.0)
    assert c["breve_theta1"] == pytest.approx(
        min(c["breve_theta3"], c["breve_theta4"]))
    assert c["breve_theta4"] > 0
    with pytest.raises(AnalysisError):
        bounds_absolute_global(0.5, 1.0, n=10, d=5, cap_c=1.0, mu=1.5)


_NORM_SIGN = make_compressor("norm_sign", d=5)
_RANDOM_QUANTIZE = make_compressor("random_quantize", d=10, levels=9)

# two scalar instances per region, with no graph or cost suite, so no value
# depends on the BLAS thread count
REGION_INSTANCES = {
    "relative": [
        lambda: bounds_relative(0.6, 1.0, _NORM_SIGN, 0.2, 0.2),
        lambda: bounds_relative(0.35, 2.5, _RANDOM_QUANTIZE, 0.3, 0.1),
    ],
    "error_feedback": [
        lambda: bounds_error_feedback(0.6, 1.0, _NORM_SIGN, 0.2, 0.2),
        lambda: bounds_error_feedback(0.35, 2.5, _RANDOM_QUANTIZE, 0.3, 0.1),
    ],
    "absolute_global": [
        lambda: bounds_absolute_global(0.5, 1.0, n=10, d=5, cap_c=1.0),
        lambda: bounds_absolute_global(0.8, 2.0, n=20, d=50, cap_c=0.25,
                                       mu=0.98),
    ],
    "scaled_local": [
        lambda: bounds_scaled_local(
            0.5, 1.0, 0.3, 0.5, 4, 3, cons0=1.0, track0=1.0, gap0=1.0,
            x0_norm_max=1.0, y0_norm_max=1.0),
        lambda: bounds_scaled_local(
            0.8, 2.0, 0.7, 0.25, 20, 50, cons0=3.0, track0=2.0, gap0=5.0,
            x0_norm_max=2.0, y0_norm_max=4.0),
    ],
}


@pytest.mark.parametrize("regime, instance", [
    (regime, i) for regime in REGION_INSTANCES for i in range(2)])
def test_region_constants_are_pinned_by_value(regime, instance):
    """Every key of the region's constants table, and only those keys, at
    its pinned value (``tests/pinned_region_constants.py``) to 1e-12
    relative.  The pins are the code's own values: the paper's text is not
    in this repository, so a restatement of the terms independent of the
    code waits until it is.  A term that checks only against itself lets a
    changed coefficient pass; a pinned value does not."""
    got = REGION_INSTANCES[regime][instance]().constants
    want = PINNED[regime][instance]
    assert sorted(got) == sorted(want)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12, abs=0), key


@pytest.mark.parametrize("regime, gamma_prefix, eta_prefix", [
    ("relative", "gamma_term_", "eta_term_"),
    ("error_feedback", "gamma_term_ef_", "eta_term_"),
    ("absolute_global", "gamma_term_", "eta_term_"),
    ("scaled_local", "tilde_gamma_term_", "tilde_eta_term_"),
])
def test_region_table_holds_the_terms_its_limits_are_minima_of(
        regime, gamma_prefix, eta_prefix):
    for instance in REGION_INSTANCES[regime]:
        b = instance()
        assert b.regime == regime

        def terms(prefix):
            return [v for k, v in b.constants.items()
                    if k.startswith(prefix)]

        assert terms(gamma_prefix) and terms(eta_prefix)
        assert b.gamma_max == min(terms(gamma_prefix))
        assert b.eta_max == min(terms(eta_prefix))
        assert b.gamma == 0.5 * b.gamma_max and b.eta == 0.5 * b.eta_max


def test_geometric_tail_bound_cases():
    def fake(mu, breve1, theta2, breve8=1.0):
        return ParameterBounds(regime="absolute_global", gamma_max=1, gamma=1,
                             eta_max=1, eta=1, mu=mu,
                             constants={"mu": mu, "breve_theta1": breve1,
                                        "theta2": theta2,
                                        "breve_theta8": breve8})

    out = geometric_tail_bound(fake(0.9, 0.5, 1.0), nu=0.4, u0=1.0, s0=1.0)
    assert out["case"] == "slower_scaling"      # 1 - 0.5 < 0.81
    out = geometric_tail_bound(fake(0.1, 0.5, 1.0), nu=0.4, u0=1.0, s0=1.0)
    assert out["case"] == "slower_contraction"  # 1 - 0.5 > 0.01
    out = geometric_tail_bound(fake(0.5, 0.75, 1.0), nu=10.0, u0=1.0, s0=1.0)
    assert out["case"] == "tie"                 # 1 - 0.75 == 0.25 == mu^2
    assert out["breve_theta6"] > 1.0
    with pytest.raises(AnalysisError):
        geometric_tail_bound(fake(0.5, 0.75, 1.0), nu=10.0, u0=1.0, s0=1.0,
                             varpi=0.1)  # varpi below mu^2


def test_scaled_local_bounds_reference_config():
    net = generate_network(10, 0.5, seed=33)
    suite = generate_suite("quadratic_pl", n=10, d=5, seed=44)
    x0 = initial_point(10, 5, 9)
    y0 = grad_all(suite, x0)
    xbar = x0.mean(axis=0)
    b = bounds_scaled_local(
        net.sigma, suite.L_f, suite.nu_pl, 0.5, 10, 5,
        cons0=float(((x0 - xbar) ** 2).sum()),
        track0=float(((y0 - y0.mean(axis=0)) ** 2).sum()),
        gap0=1.0,
        x0_norm_max=float(np.linalg.norm(x0, axis=1).max()),
        y0_norm_max=float(np.linalg.norm(y0, axis=1).max()))
    assert 0 < b.eta < b.eta_max
    assert 0 < b.gamma < b.gamma_max
    assert 0 < b.mu_min < b.mu < 1
    assert b.s0_min > 0
    for key, val in b.constants.items():
        if isinstance(val, float):
            assert val > 0 or val == 0.0, (key, val)
    # the gamma cap 2 L^2 / ((1-sigma) nu) shrinks when nu grows
    b2 = bounds_scaled_local(
        net.sigma, suite.L_f, 2 * suite.nu_pl, 0.5, 10, 5,
        cons0=1.0, track0=1.0, gap0=1.0, x0_norm_max=1.0, y0_norm_max=1.0)
    assert (b2.constants["tilde_gamma_term_3"]
            == pytest.approx(b.constants["tilde_gamma_term_3"] / 2))


def test_scaled_local_exact_compressor_drops_error_terms():
    # phi_c = 1 removes every (1 - phi_c)^2 contribution
    b = bounds_scaled_local(0.5, 1.0, 0.3, 1.0, 4, 3,
                            cons0=1.0, track0=1.0, gap0=1.0,
                            x0_norm_max=1.0, y0_norm_max=1.0)
    c = b.constants
    assert c["tilde_theta2"] == 0.0 or c["tilde_theta2"] < 1e-30
    assert c["tilde_xi3"] == pytest.approx(32.0 * (1 + 1) * c["tilde_xi5"])
    assert c["tilde_xi4"] == pytest.approx(
        40.0 * (1 + 1) * (1 + 1) * c["tilde_xi5"])


def test_scaled_local_infeasible_reports_binding():
    with pytest.raises(AnalysisError,
                       match=r"no admissible mu: tilde_theta1 = .* >= 1 "
                             r"\(binding constraint: tilde_theta1\)$"):
        bounds_scaled_local(0.5, 1.0, 0.3, 1e-12, 10, 50,
                            cons0=1.0, track0=1.0, gap0=1.0,
                            x0_norm_max=1.0, y0_norm_max=1.0)


def test_pl_rate():
    ch = {"theta2": 0.01, "theta3": 0.5, "hat_theta2": 0.25}
    assert pl_rate(ch, nu=1.0) == pytest.approx(0.02)
    assert pl_rate(ch, nu=100.0) == pytest.approx(0.5)
    assert pl_rate(ch, nu=1.0, hat=True) == pytest.approx(0.02)
    with pytest.raises(AnalysisError):
        pl_rate(ch, nu=0.0)


def test_lyapunov_eval_zero_state_and_dominance():
    net = generate_network(5, 0.6, seed=3)
    suite = generate_suite("quadratic_pl", n=5, d=3, seed=4)
    ref = solve_reference(suite, tol=1e-11)

    xstar = np.tile(ref.x_star, (5, 1))
    zeros = np.zeros((5, 3))
    state = StackedState(x=xstar, y=zeros, a=xstar.copy(), c=zeros.copy(),
                         ex=zeros.copy(), ey=zeros.copy())
    consts = {"phi": 0.1, "phi_hat": 2.0, "phi_tilde": 3.0}
    for which in ("full", "ef", "consensus", "scaled"):
        val = lyapunov_eval(which, state, net, suite, ref.f_star, consts)
        assert abs(val.total) <= 1e-9
    # dominance: the full function adds nonnegative terms over the reduced one
    rng = np.random.default_rng(5)
    state2 = StackedState(x=rng.standard_normal((5, 3)),
                          y=rng.standard_normal((5, 3)),
                          a=rng.standard_normal((5, 3)),
                          c=rng.standard_normal((5, 3)))
    full = lyapunov_eval("full", state2, net, suite, ref.f_star, consts)
    breve = lyapunov_eval("consensus", state2, net, suite, ref.f_star, consts)
    assert full.total >= breve.total - 1e-12


def test_lyapunov_eval_pairing_errors():
    net = generate_network(5, 0.6, seed=3)
    suite = generate_suite("quadratic_pl", n=5, d=3, seed=4)
    state = StackedState(x=np.zeros((5, 3)), y=np.zeros((5, 3)))
    with pytest.raises(AnalysisError):
        lyapunov_eval("full", state, net, suite, 0.0, {"phi": 0.1})
    with pytest.raises(AnalysisError):
        lyapunov_eval("bogus", state, net, suite, 0.0, {"phi": 0.1})
    # infinite phi_hat demands identically zero feedback registers
    state_ef = StackedState(x=np.zeros((5, 3)), y=np.zeros((5, 3)),
                            a=np.zeros((5, 3)), c=np.zeros((5, 3)),
                            ex=np.ones((5, 3)), ey=np.zeros((5, 3)))
    with pytest.raises(AnalysisError):
        lyapunov_eval("ef", state_ef, net, suite, 0.0,
                      {"phi": 0.1, "phi_hat": math.inf})


def test_trace_lyapunov_matches_events_evaluator():
    # the in-kernel column equals the standalone evaluation at the final
    # state, under the function and weights the run derives: phi from sigma
    # and L_f, alg2's phi_hat from its phis (inside (0, 1/r) = (0, 1/2)) and
    # the compressor, and alg3's phi_tilde from its eta and gamma under the
    # locally bounded one_bit (the scaled function)
    net = generate_network(6, 0.6, seed=1)
    suite = generate_suite("logistic_log", n=6, d=4, seed=2, scale=0.3)
    ref = solve_reference(suite, tol=1e-9)
    comp = make_compressor("norm_sign", d=4)
    pp = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                         varsigma=0.3, s0=8.0, mu=0.99)
    consts = {"phi": lyapunov_weight(net.sigma, suite.L_f),
              "phi_hat": ef_weight(*mixing_constants(0.3, 0.1, comp.r,
                                                     comp.psi), comp.cap_c),
              "phi_tilde": scaled_gap_weight(pp.eta, pp.gamma, net.sigma,
                                             suite.L_f)}
    assert consts["phi_hat"] > 0
    for algo, which, kind in [("alg1", "full", "norm_sign"),
                              ("alg2", "ef", "norm_sign"),
                              ("alg3", "scaled", "one_bit"),
                              ("alg3", "consensus", "norm_sign"),
                              ("dgt", "consensus", None)]:
        tr = run_recorded(algo, 60, net, suite, pp,
                          kind and make_compressor(kind, d=4), seed=3,
                          f_star=ref.f_star)
        assert tr.lyapunov_name == which
        val = lyapunov_eval(which, tr.final_state, net, suite, ref.f_star,
                            consts)
        assert tr.lyapunov[-1] == pytest.approx(val.total, rel=1e-9,
                                                abs=1e-12)


def test_fit_rate_exact_geometric():
    ks = np.arange(200)
    fit = fit_rate(ks, 0.9**ks, "linear")
    assert fit["rate"] == pytest.approx(0.9, abs=1e-6)
    assert fit["r_squared"] >= 0.999999


def test_fit_rate_sublinear_reciprocal():
    ks = np.arange(1, 300)
    fit = fit_rate(ks, 1.0 / ks, "sublinear")
    assert fit["max_dev"] <= 1e-9
    assert abs(fit["rate"]) <= 1e-12


def test_fit_rate_window_and_errors():
    ks = np.arange(100)
    vals = 0.95**ks
    fit = fit_rate(ks, vals, "linear", window=(50, 99))
    assert fit["rate"] == pytest.approx(0.95, abs=1e-9)
    with pytest.raises(AnalysisError):
        fit_rate(ks[:5], vals[:5], "linear")
    with pytest.raises(AnalysisError):
        fit_rate(ks, vals - 0.5, "linear")
    with pytest.raises(AnalysisError):
        fit_rate(ks, vals, "linear", window=(90, 200))
    with pytest.raises(AnalysisError):
        fit_rate(ks, vals, "cubic")


def test_check_descent():
    ok = check_descent([5.0, 4.0, 3.0, 3.0])
    assert ok["ok"] and ok["first_violation"] is None
    bad = check_descent([5.0, 4.0, 4.5, 3.0])
    assert not bad["ok"] and bad["first_violation"] == 1
    slacked = check_descent([5.0, 4.0, 4.5, 3.0], slack=0.6)
    assert slacked["ok"]
    per_step = check_descent([1.0, 2.0, 2.0], slack=np.array([1.5, 0.5, 0.0]))
    assert per_step["ok"]


def test_sample_mean_descent():
    rng = np.random.default_rng(0)
    base = np.linspace(10, 1, 40)
    runs = [base + 0.01 * rng.standard_normal(40) for _ in range(32)]
    assert sample_mean_descent(runs)["ok"]
    rising = [np.linspace(1, 10, 40) + 0.01 * rng.standard_normal(40)
              for _ in range(32)]
    assert not sample_mean_descent(rising)["ok"]
    with pytest.raises(AnalysisError):
        sample_mean_descent([base])


def test_bounds_constants_table_is_complete():
    comp = make_compressor("norm_sign", d=10)
    b = bounds_relative(0.6, 1.2, comp, phi_x=0.02, phi_y=0.02)
    for key in ("c1", "c2", "delta", "phi", "eps1", "eps2", "eps3", "Pi",
                "theta1", "theta2", "theta3", "theta5", "theta6", "theta7",
                "theta8", "theta9"):
        assert key in b.constants, key
    for i in range(1, 13):
        assert f"xi{i}" in b.constants
    b3 = bounds_error_feedback(0.6, 1.2, comp, phi_x=0.02, phi_y=0.02)
    for key in ("phi_hat", "hat_theta1", "hat_theta2", "hat_theta4",
                "hat_theta5", "hat_theta6", "hat_theta7"):
        assert key in b3.constants, key
    for i in range(1, 8):
        assert f"hat_xi{i}" in b3.constants


def test_descent_chain_frozen_hand_values():
    # formulas pinned against an independent plain-arithmetic evaluation at
    # (sigma=0.5, L=1, c1=c2=0.25, C=2, eta=0.001, gamma=0.01); the point is
    # deliberately arbitrary (not inside any admissible region)
    ch = descent_chain(0.5, 1.0, 0.25, 0.25, 2.0, 0.001, 0.01)
    frozen = {
        "delta": 0.995,
        "phi": 0.00078125,
        "eps1": 0.0016,
        "theta2": 0.00020375,
        "theta3": 0.00035000000000000005,
        "theta5": 1.0325924999999998,
        "theta6": 0.021248593750000003,
        "theta7": 0.982,
        "theta8": 0.64525,
        "theta9": 0.0002495,
        "xi1": 1.2832000000000001,
        "xi3": 0.020050000000000002,
        "xi8": 0.32,
        "xi10": 0.641,
        "xi12": 0.645,
    }
    for key, want in frozen.items():
        assert ch[key] == pytest.approx(want, rel=1e-12), key
