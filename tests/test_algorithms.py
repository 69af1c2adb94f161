"""Stepper semantics: reductions, invariants, determinism, the oracle."""

import math

import numpy as np
import pytest

from analysis_oracles import sample_mean_descent
from cgtsim import algorithms
from cgtsim.algorithms import (
    RULES,
    AlgorithmError,
    AlgorithmParams,
    auto_s0,
    initial_point,
    practical_params,
    run,
    scaling_sequence,
)
from cgtsim.compressors import make_compressor
from cgtsim.costs import CostSuite, RunCosts, generate_suite
from cgtsim.graph import Network, generate_network
from cost_oracles import grad
from message_passing_oracle import run_oracle
from run_recorder import run_recorded
from twin_stepper_oracle import (
    CHECKED,
    lyapunov_weights_oracle,
    metrics_oracle,
    row_norm_max_oracle,
    run_twin,
    struct_proj_oracle,
    struct_resid_oracle,
)


@pytest.fixture(scope="module")
def small_net():
    return generate_network(6, 0.6, seed=1)


@pytest.fixture(scope="module")
def small_suite():
    return generate_suite("logistic_log", n=6, d=8, seed=2, scale=0.3)


def _single_agent_net():
    return Network(n=1, W=np.ones((1, 1)), sigma=0.0)


def test_identity_reduction_to_baseline(small_net, small_suite):
    comp = make_compressor("identity", d=8)
    shared = dict(seed=5)
    trd = run_recorded("dgt", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3), **shared)
    tr1 = run_recorded("alg1", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3, phi_x=1.0, phi_y=1.0),
              comp, **shared)
    tr2 = run_recorded("alg2", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3, phi_x=1.0, phi_y=1.0,
                              varsigma=0.3), comp, **shared)
    tr3 = run_recorded("alg3", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3, s0=5.0, mu=0.99),
              comp, **shared)
    for tr in (tr1, tr2, tr3):
        assert tr.status == "ok"
        assert np.max(np.abs(tr.x_hist - trd.x_hist)) <= 1e-10


def test_varsigma_zero_identity_equals_plain(small_net, small_suite):
    comp = make_compressor("identity", d=8)
    p1 = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.5, phi_y=0.5)
    p2 = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.5, phi_y=0.5,
                         varsigma=0.0)
    a = run_recorded("alg1", 150, small_net, small_suite, p1, comp, seed=3)
    b = run_recorded("alg2", 150, small_net, small_suite, p2, comp, seed=3)
    assert np.array_equal(a.x_hist, b.x_hist)


def test_single_agent_is_centralized_gd():
    net = _single_agent_net()
    suite = generate_suite("logistic_log", n=1, d=5, seed=7, scale=0.5)
    comp = make_compressor("norm_sign", d=5)
    x0 = initial_point(1, 5, 11)
    p = AlgorithmParams(eta=0.1, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=10.0, mu=0.99)
    for algo in ("alg1", "alg2", "alg3", "dgt"):
        tr = run_recorded(algo, 100, net, suite, p,
                          None if algo == "dgt" else comp, seed=11, x0=x0)
        # consensus terms vanish identically for one agent
        assert np.all(tr.consensus_err == 0.0)
        x = x0[0].copy()
        for k in range(101):
            assert np.allclose(tr.x_hist[k, 0], x, rtol=1e-12, atol=1e-12)
            x = x - 0.1 * grad(suite, 0, x)


def test_zero_gradient_consensus_start_is_fixed_point(small_net):
    suite = generate_suite("logistic_log", n=6, d=4, seed=3)
    suite.h[:] = 0.0
    suite.m[:] = 0.0
    x0 = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (6, 1))
    comp = make_compressor("norm_sign", d=4)
    p = AlgorithmParams(eta=0.2, gamma=0.3, phi_x=0.3, phi_y=0.1)
    tr = run_recorded("alg1", 100, small_net, suite, p, comp, seed=1, x0=x0)
    drift = np.max(np.abs(tr.x_hist - x0[None]))
    assert drift <= 1e-12
    assert np.max(np.abs(tr.y_hist)) <= 1e-12


def test_mean_recursion_and_structure_diagnostics(small_net, small_suite):
    comp = make_compressor("norm_sign", d=8)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    for algo in ("alg1", "alg2", "alg3", "dgt"):
        cp = None if algo == "dgt" else comp
        tr = run(algo, 300, small_net, small_suite, p, cp, seed=4)
        assert tr.diagnostics["mean_x_recursion"] <= 1e-9
        assert tr.diagnostics["mean_y_tracking"] <= 1e-9
        if algo != "dgt":
            assert tr.diagnostics["struct_proj_x"] <= 1e-12
            assert tr.diagnostics["struct_proj_y"] <= 1e-12


def test_only_dgt_sends_exact_messages():
    # Rule.exact, not Rule.classes, says which rule sends exact messages;
    # dgt is certified in the identity compressor's class
    assert [name for name, rule in RULES.items() if rule.exact] == ["dgt"]
    assert RULES["dgt"].classes == (
        make_compressor("identity", d=3).assumption_class,)


@pytest.mark.parametrize("algo", sorted(RULES))
def test_rule_invariants_are_the_ones_its_runs_check(small_net, small_suite,
                                                     algo):
    # Rule.invariants follows from whether the rule is exact and whether it
    # is scaled; the twin oracle states each rule's set on its own, and a run
    # reports exactly it
    comp = None if RULES[algo].exact else make_compressor("norm_sign", d=8)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    tr = run(algo, 5, small_net, small_suite, p, comp, seed=4)
    assert RULES[algo].invariants == CHECKED[algo] == tuple(tr.diagnostics)


def test_agent_relabelling_equivariance(small_net, small_suite):
    # synchronous semantics: permuting agent labels permutes the trajectory
    comp = make_compressor("norm_sign", d=8)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1)
    x0 = initial_point(6, 8, 13)
    perm = np.array([3, 0, 5, 1, 4, 2])
    net_p = Network(n=6, W=small_net.W[perm][:, perm], sigma=small_net.sigma)
    a = run_recorded("alg1", 200, small_net, small_suite, p, comp, seed=6,
                     x0=x0)
    suite_p = generate_suite("logistic_log", n=6, d=8, seed=2, scale=0.3)
    for arr in ("h", "nu", "m", "xi"):
        setattr(suite_p, arr, getattr(small_suite, arr)[perm])
    b = run_recorded("alg1", 200, net_p, suite_p, p, comp, seed=6,
                     x0=x0[perm])
    assert np.allclose(b.final_state.x, a.final_state.x[perm],
                       rtol=1e-9, atol=1e-11)


def test_same_seed_identical_traces(small_net, small_suite):
    comp = make_compressor("random_quantize", d=8, levels=9)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1)
    a = run_recorded("alg1", 120, small_net, small_suite, p, comp, seed=21)
    b = run_recorded("alg1", 120, small_net, small_suite, p, comp, seed=21)
    assert np.array_equal(a.consensus_err, b.consensus_err)
    assert np.array_equal(a.lyapunov, b.lyapunov)
    assert np.array_equal(a.final_state.x, b.final_state.x)
    c = run_recorded("alg1", 120, small_net, small_suite, p, comp, seed=22)
    assert not np.array_equal(a.final_state.x, c.final_state.x)


def test_steppers_match_message_passing_oracle(small_net, small_suite):
    # the steppers against agents that each update from their own state and
    # their neighbours' messages alone; the slot keys of random compressors
    # and every final state field included.  At delta=2 alg3's messages are
    # all zero here; at delta=0.05 both x and y messages carry values.
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    x0 = initial_point(6, 8, 9)
    for algo, comp in [("alg1", make_compressor("norm_sign", d=8)),
                       ("alg2", make_compressor("norm_sign", d=8)),
                       ("alg3", make_compressor("uniform_quantize", d=8,
                                                delta=2.0)),
                       ("alg1", make_compressor("random_quantize", d=8,
                                                levels=17)),
                       ("alg1", make_compressor("random_sparsify", d=8,
                                                keep_k=3,
                                                sparsify_mode="random")),
                       ("dgt", None),
                       ("alg2", make_compressor("random_quantize", d=8,
                                                levels=17)),
                       ("alg3", make_compressor("uniform_quantize", d=8,
                                                delta=0.05))]:
        _check_against_message_passing(algo, small_net, small_suite, p,
                                       comp, x0)


def _check_against_message_passing(algo, net, suite, p, comp, x0):
    """150 steps of ``algo`` against the per-agent oracle, up to
    summation order: x/y history and every final state field."""
    tr = run_recorded(algo, 150, net, suite, p, comp, seed=9, x0=x0)
    assert tr.status == "ok"
    xh, yh, final = run_oracle(algo, 150, net, suite, p, comp, 9, x0)
    got = {"x_hist": tr.x_hist, "y_hist": tr.y_hist}
    got.update((name, val) for name, val in vars(tr.final_state).items()
               if val is not None)
    want = {"x_hist": xh, "y_hist": yh, **final}
    assert sorted(got) == sorted(want), algo
    for name, val in want.items():
        scale = 1.0 + np.max(np.abs(val))
        assert np.max(np.abs(got[name] - val)) <= 1e-9 * scale, (algo, name)


_RING_CASES = pytest.mark.parametrize("algo, comp", [
    ("alg1", make_compressor("norm_sign", d=8)),
    ("alg2", make_compressor("norm_sign", d=8)),
    ("alg3", make_compressor("uniform_quantize", d=8, delta=0.05)),
    ("dgt", None),
], ids=["alg1", "alg2", "alg3", "dgt"])


def _check_directed_ring(algo, comp, n):
    # every generated W is symmetric, so only an asymmetric one tells W @ Q
    # from W.T @ Q.  Agent i hears only agent i + 1: W = (I + P)/2 is
    # doubly stochastic, and sigma is the 2-norm of W - 11^T/n.
    W = 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))
    sigma = float(np.linalg.norm(W - 1.0 / n, 2))
    net = Network(n=n, W=W, sigma=sigma)
    net.validate()
    assert not np.array_equal(W, W.T)
    assert sigma == pytest.approx(math.cos(math.pi / n), rel=1e-12)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    suite = generate_suite("logistic_log", n=n, d=8, seed=2, scale=0.3)
    _check_against_message_passing(algo, net, suite, p, comp,
                                   initial_point(n, 8, 9))
    return net


@_RING_CASES
def test_steppers_match_message_passing_oracle_on_a_directed_ring(
        algo, comp):
    # at n = 6, Network.mix is the dense gemm
    assert _check_directed_ring(algo, comp, 6)._gather is None


@_RING_CASES
def test_steppers_match_message_passing_oracle_on_a_gathered_directed_ring(
        algo, comp):
    # at n = 128, with 2n = n^2/64 nonzeros, Network.mix gathers neighbours
    assert _check_directed_ring(algo, comp, 128)._gather is not None


def test_zero_iterations_rejected(small_net, small_suite):
    with pytest.raises(AlgorithmError):
        run("alg1", 0, small_net, small_suite,
            AlgorithmParams(eta=0.1, gamma=0.3),
            make_compressor("identity", d=8))


def test_nonfinite_abort_returns_partial_trace(small_net):
    # unstable step on a quadratic diverges to overflow and must abort
    suite = generate_suite("quadratic_pl", n=6, d=8, seed=3)
    p = AlgorithmParams(eta=50.0, gamma=0.9, phi_x=0.3, phi_y=0.1)
    tr = run("alg1", 500, small_net, suite, p,
             make_compressor("norm_sign", d=8), seed=1)
    assert tr.status == "nonfinite_state"
    assert tr.failed_at is not None
    assert len(tr) == tr.failed_at + 1


def test_scaling_exhaustion_halts(small_net, small_suite):
    p = AlgorithmParams(eta=1e-9, gamma=0.1, s0=1.0, mu=0.1)
    tr = run("alg3", 400, small_net, small_suite, p,
             make_compressor("uniform_quantize", d=8, delta=2.0), seed=1)
    assert tr.status == "scaling_exhausted"
    assert len(tr) < 401


def test_alg3_scaled_compression_error_decays(small_net, small_suite):
    # per-message quantization error stays below (delta/2) s(k)
    delta = 2.0
    comp = make_compressor("uniform_quantize", d=8, delta=delta)
    x0 = initial_point(6, 8, 31)
    s0 = auto_s0(x0, small_suite)
    p = AlgorithmParams(eta=0.05, gamma=0.3, s0=s0, mu=0.97)
    tr = run("alg3", 400, small_net, small_suite, p, comp, seed=31, x0=x0)
    assert tr.status == "ok"
    assert tr.diagnostics["compression_ratio"] <= delta / 2 + 1e-12


def test_scaling_sequence_matches_powers():
    s = scaling_sequence(3.0, 0.9, 50)
    assert s[0] == 3.0
    assert s[10] == pytest.approx(3.0 * 0.9**10, rel=1e-14)
    assert len(s) == 51


def test_incompatible_shapes_rejected(small_net):
    suite = generate_suite("logistic_log", n=5, d=8, seed=2)
    with pytest.raises(AlgorithmError):
        run("alg1", 10, small_net, suite,
            AlgorithmParams(eta=0.1, gamma=0.3),
            make_compressor("identity", d=8))
    suite6 = generate_suite("logistic_log", n=6, d=8, seed=2)
    with pytest.raises(AlgorithmError):
        run("alg1", 10, small_net, suite6,
            AlgorithmParams(eta=0.1, gamma=0.3),
            make_compressor("identity", d=4))
    with pytest.raises(AlgorithmError):
        run("alg5", 10, small_net, suite6,
            AlgorithmParams(eta=0.1, gamma=0.3), None)


def test_param_validation():
    with pytest.raises(AlgorithmError):
        AlgorithmParams(eta=-0.1, gamma=0.3).validate("dgt")
    with pytest.raises(AlgorithmError):
        AlgorithmParams(eta=0.1, gamma=1.5).validate("dgt")
    with pytest.raises(AlgorithmError):
        AlgorithmParams(eta=0.1, gamma=0.3, s0=1.0, mu=1.2).validate("alg3")
    with pytest.raises(AlgorithmError):
        AlgorithmParams(eta=0.1, gamma=0.3, phi_x=0.0).validate("alg1")
    for algo in ("alg1", "alg2", "alg3", "dgt"):
        practical_params(algo).validate(algo)


_P = AlgorithmParams(eta=0.1, gamma=0.3)


@pytest.mark.parametrize("refused, message", [
    (lambda net, suite: AlgorithmParams(eta=0.1, gamma=0.3, s0=0.0)
     .validate("alg3"), "s0 must be positive"),
    (lambda net, suite: run("alg1", 10, net, suite, _P, None),
     "alg1 needs a compressor spec"),
    (lambda net, suite: run("dgt", 10, net, suite, _P, x0=np.zeros((6, 7))),
     r"x0 must have shape \(6, 8\)"),
    (lambda net, suite: practical_params("alg5"), "unknown algorithm 'alg5'"),
], ids=["s0", "missing-compressor", "x0-shape", "practical-unknown-rule"])
def test_refusals(small_net, small_suite, refused, message):
    with pytest.raises(AlgorithmError, match=message):
        refused(small_net, small_suite)


def test_practical_alg2_beats_alg1_with_norm_sign(small_net, small_suite):
    # error feedback corrects compressor bias: running minimum not worse
    comp = make_compressor("norm_sign", d=8)
    t1 = run("alg1", 800, small_net, small_suite,
             AlgorithmParams(eta=0.1, gamma=0.3, phi_x=0.3, phi_y=0.1),
             comp, seed=8)
    t2 = run("alg2", 800, small_net, small_suite,
             AlgorithmParams(eta=0.1, gamma=0.3, phi_x=0.3, phi_y=0.1,
                             varsigma=0.3), comp, seed=8)
    u1 = np.minimum.accumulate(t1.consensus_err + t1.opt_gap)
    u2 = np.minimum.accumulate(t2.consensus_err + t2.opt_gap)
    assert u2[-1] <= u1[-1] * 1.5


def test_expectation_descent_randomized_compressor(small_net):
    # replicate-mean descent for an unbiased random compressor under
    # certified parameters, three standard errors of slack
    from cgtsim import analysis

    suite = generate_suite("quadratic_pl", n=6, d=4, seed=5)
    comp = make_compressor("random_sparsify", d=4, keep_k=2,
                           sparsify_mode="random")
    b = analysis.bounds_relative(small_net.sigma, suite.L_f, comp,
                                 phi_x=0.4, phi_y=0.4)
    p = AlgorithmParams(eta=b.eta, gamma=b.gamma, phi_x=0.4, phi_y=0.4)
    x0 = initial_point(6, 4, 17)
    paths = []
    for rep in range(32):
        tr = run("alg1", 250, small_net, suite, p, comp, seed=1000 + rep,
                 x0=x0)
        assert tr.status == "ok"
        paths.append(tr.lyapunov)
    rep = sample_mean_descent(paths, slack=1e-12)
    assert rep["ok"], rep


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("cost", ["logistic_log", "quadratic_pl"])
def test_batched_record_helpers_match_per_row_oracle(cost):
    # paper scale: there one gemm over stacked rows would already differ.
    # The helpers take b twin rows (b, 2, n, d); each half of each row must
    # be bitwise what the per-row formula gives on that half alone.
    n, d = 20, 50
    suite = generate_suite(cost, n=n, d=d, seed=4)
    rng = np.random.default_rng(0)
    XY, G = rng.standard_normal((5, 2, n, d)), rng.standard_normal((5, n, d))
    XY[3, 0] *= 1e200  # a row whose terms overflow
    net = generate_network(n, 0.3, seed=5)
    W = net.W
    # anchored at a given point, and at the least-squares solve without one
    for x_star in (rng.standard_normal(d), None):
        run_costs = RunCosts(suite, x_star, 0.25)
        with np.errstate(all="ignore"):
            means, ct, *terms = algorithms._metrics_rows(run_costs, XY, G)
            want = [metrics_oracle(run_costs, *XY[j], G[j])
                    for j in range(5)]
        assert means.shape == (5, 2, d) and ct.shape == (5, 2)
        got = [means[:, 0], means[:, 1], ct[:, 0], ct[:, 1], *terms]
        for i, col in enumerate(got):
            assert _bits(col) == _bits([w[i] for w in want]), i
    with np.errstate(all="ignore"):
        # accumulators that satisfy the identity up to round-off, as in a run
        Acc = XY - np.einsum("ij,bhjd->bhid", W, XY)
        peak = algorithms._row_norm_max_rows(XY - Acc)
        for h in range(2):
            assert _bits(peak[:, h]) == _bits(
                [row_norm_max_oracle(XY[j, h] - Acc[j, h])
                 for j in range(5)]), h
    _struct_proj_matches_per_row_oracle(net, Acc, XY, seed=6)


def _struct_proj_matches_per_row_oracle(net, Acc, Base, seed):
    """Each half of each row of the projected accumulator check is bitwise
    the per-half oracle's value, at the run's R for ``seed``."""
    R = algorithms._check_rows(seed, net.n)
    with np.errstate(all="ignore"):
        proj = algorithms._struct_proj_rows(Acc, Base, R,
                                            R - net.rmatmul(R))
        for h in range(2):
            assert _bits(proj[:, h]) == _bits(
                [struct_proj_oracle(Acc[j, h], Base[j, h], R, net.W)
                 for j in range(len(Base))]), h


def test_struct_proj_rows_match_per_row_oracle_past_a_reduction_buffer():
    # n d = 24000 values per half, past numpy's 8192-element iterator
    # buffer: at this size an einsum over a whole half sums a stacked half in
    # another order than a lone one, which the per-agent sums avoid; on a
    # gather network
    net = generate_network(800, 0.01, seed=3)
    rng = np.random.default_rng(1)
    Base = rng.standard_normal((2, 2, 800, 30))
    Acc = Base - net.mix(Base)
    Acc[1, 0, 5, 2] += 1e-6
    _struct_proj_matches_per_row_oracle(net, Acc, Base, seed=4)


_CHECK_NETS = {"dense-n20": (20, 0.3), "gather-n400": (400, 0.012)}


@pytest.mark.parametrize("name", sorted(_CHECK_NETS))
def test_struct_proj_reads_round_off_on_the_identity_and_sees_one_entry(
        name):
    # the run's R, on a network that mixes by the gemm and on one that mixes
    # by the gather.  Acc is (I - W) Base as a run's steps form it, up to
    # round-off; one entry off by 1e-9 must read far above that, and within
    # a factor of the full residual (the oracle), since E||R E||^2 = ||E||^2
    n, density = _CHECK_NETS[name]
    net = generate_network(n, density, seed=5)
    assert (net._gather is None) == (name == "dense-n20")
    rng = np.random.default_rng(2)
    Base = rng.standard_normal((3, 2, n, 10))
    Base /= np.sqrt(np.sum(Base * Base, axis=(2, 3), keepdims=True))
    Acc = Base - net.mix(Base)
    R = algorithms._check_rows(7, n)
    S = R - net.rmatmul(R)
    exact = algorithms._struct_proj_rows(Acc, Base, R, S)
    assert exact.max() <= 1e-12
    for j, h, i in ((0, 0, 0), (1, 1, n // 2), (2, 0, n - 1)):
        bad = Acc.copy()
        bad[j, h, i, 3] += 1e-9
        got = algorithms._struct_proj_rows(bad, Base, R, S)
        full = struct_resid_oracle(bad[j, h], Base[j, h], net.W)
        assert got[j, h] > 1e-11 and got[j, h] > 1e3 * exact.max()
        assert 1e-2 * full <= got[j, h] <= 1e1 * full
        got[j, h] = exact[j, h]
        assert np.array_equal(got, exact)  # only the planted half moves


def test_check_rows_are_a_scaled_gaussian_draw_from_the_seed():
    # N(0, 1/2) entries, so that E||R E||^2 = ||E||^2: the mean square of
    # 4000 entries lies within 5 standard errors of 1/2; the seed fixes it
    R = algorithms._check_rows(0, 2000)
    assert R.shape == (2, 2000)
    assert abs(np.mean(R * R) - 0.5) <= 5 * np.sqrt(0.5 / R.size)
    assert abs(np.mean(R)) <= 5 * np.sqrt(0.5 / R.size)
    assert np.array_equal(R, algorithms._check_rows(0, 2000))
    assert not np.array_equal(R, algorithms._check_rows(1, 2000))
    assert not np.array_equal(R[0], R[1])


def test_raise_max_follows_python_max():
    vals = np.array([0.3, np.nan, 0.7, np.inf, np.nan, 0.1])
    for start in (0.5, 2.0):
        diag = np.array([start])
        algorithms._raise_max(diag, 0, vals[:3])
        want = start
        for v in vals[:3]:
            want = max(want, v)
        assert diag[0] == want
    diag = np.zeros(1)
    algorithms._raise_max(diag, 0, vals)
    assert diag[0] == np.inf


def test_recorder_ignores_rows_after_a_nonfinite_row(small_net, small_suite):
    n, d, eta = 6, 8, 0.1
    rng = np.random.default_rng(1)
    rows = [[rng.standard_normal((n, d)) for _ in range(3)]
            for _ in range(5)]
    rows[2][0][0, 0] = np.inf  # row 2 is non-finite
    rows[3][1] *= 1e6          # row 3 would raise the tracking maximum
    cost = RunCosts(small_suite)
    blocks = [[np.stack(st[:2]), st[2]] for st in rows]  # X|Y, G
    rec = algorithms._BlockRecorder(RULES["dgt"], blocks[0], cost,
                                    small_net.mix, eta, 1.0, 1.0, 4)
    rec.cols[:] = -1.0
    assert rec.B >= 5
    for st in blocks:
        rec.push(st)
    with np.errstate(all="ignore"):
        assert rec.flush() == 2
        want = [metrics_oracle(cost, *st) for st in rows[:3]]
    cons = rec.cols[0]
    assert not np.isfinite(cons[2]) and np.all(cons[3:] == -1.0)
    assert rec.diag["mean_y_tracking"] == max(want[0][6], want[1][6])
    # the steps into rows 1 and 2 count; row 2's mean is infinite
    assert rec.diag["mean_x_recursion"] == np.inf


def _assert_same_run(a, b):
    for name in ("consensus_err", "opt_gap", "stationarity",
                 "lyapunov", "x_hist", "y_hist"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.status, a.failed_at) == (b.status, b.failed_at)
    assert list(a.diagnostics) == list(b.diagnostics)
    assert _bits(list(a.diagnostics.values())) == _bits(
        list(b.diagnostics.values()))
    for name, val in vars(a.final_state).items():
        other = getattr(b.final_state, name)
        assert (val is None) == (other is None), name
        assert val is None or _bits(val) == _bits(other), name


def _run_default_and_per_row(monkeypatch, *args, **kwargs):
    """The same run recorded in default blocks and one row at a time."""
    blocked = run_recorded(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(algorithms, "_RECORD_BUDGET", 0)
        assert algorithms._block_rows(3, 6, 8) == 1
        per_row = run_recorded(*args, **kwargs)
    return blocked, per_row


# at s0 = 8 every step of each compressed case sends nonzero messages (a
# delta of 2 would quantize every alg3 message to 0)
_BLOCK_CASES = {
    "alg1": make_compressor("norm_sign", d=8),
    "alg2": make_compressor("norm_sign", d=8),
    "alg3": make_compressor("uniform_quantize", d=8, delta=0.05),
    "dgt": None,
}


def _assert_every_row_sends(algo, tr):
    """Every recorded row of a compressed rule holds nonzero messages."""
    if not RULES[algo].exact:
        assert all(st[-1].any() for st in tr.state_rows), algo


@pytest.mark.parametrize("algo", sorted(_BLOCK_CASES))
def test_block_recording_equals_per_row(small_net, small_suite, monkeypatch,
                                        algo):
    iters = 150
    assert algorithms._block_rows(9, 6, 8) == 64 and iters % 64
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    a, b = _run_default_and_per_row(monkeypatch, algo, iters, small_net,
                                    small_suite, p, _BLOCK_CASES[algo],
                                    seed=9)
    assert a.status == "ok"
    _assert_every_row_sends(algo, a)
    _assert_same_run(a, b)


def test_final_state_fields_are_distinct_arrays(small_net, small_suite):
    # the steppers' own arrays, the list the recorder is handed, not the
    # recorder's copies; twins that all start at zero must not share one
    # zero array
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    x0 = initial_point(6, 8, 3)
    for algo, comp in _BLOCK_CASES.items():
        tr = run_recorded(algo, 5, small_net, small_suite, p, comp, seed=3,
                          x0=x0)
        assert tr.status == "ok"
        _assert_every_row_sends(algo, tr)
        live = {k: v for k, v in vars(tr.live_state).items() if v is not None}
        for name, val in vars(tr.final_state).items():
            assert val is None or _bits(live[name]) == _bits(val), name
        arrays = [x0, *live.values()]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), algo


@pytest.mark.parametrize("algo", sorted(_BLOCK_CASES))
def test_state_list_is_what_the_rule_describes(small_net, small_suite, algo):
    # X|Y, G, the rule's twins, then a compressed rule's one message block
    rule, n, d = RULES[algo], small_net.n, small_suite.d
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    tr = run_recorded(algo, 5, small_net, small_suite, p, _BLOCK_CASES[algo],
                      seed=3)
    assert tr.status == "ok"
    want = [(2, n, d), (n, d)] + [(2, n, d)] * len(rule.twins)
    if not rule.exact:
        want.append((len(rule.messages), n, d))
    for st in (*tr.state_rows, tr.state_list):
        assert [a.shape for a in st] == want, algo
    assert _bits(tr.state_list[0][0]) == _bits(tr.x_hist[-1])
    assert _bits(tr.state_list[0][1]) == _bits(tr.y_hist[-1])


@pytest.mark.parametrize("algo", sorted(_BLOCK_CASES))
def test_every_twin_a_rule_carries_changes(small_net, small_suite, algo):
    # each half of each twin block moves within 5 steps: a rule carries no
    # block that its steps never update
    rule = RULES[algo]
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    tr = run_recorded(algo, 5, small_net, small_suite, p, _BLOCK_CASES[algo],
                      seed=3)
    first, last = tr.state_rows[0], tr.state_rows[-1]
    assert len(tr.state_rows) == 6
    for i, twin in enumerate(rule.twins, 2):
        for half, name in enumerate(twin):
            assert not np.array_equal(first[i][half], last[i][half]), (
                algo, name)


# rows at which the per-row recorder found each quadratic run non-finite
_DIVERGED_AT = {"alg1": (91, 118, 169), "alg2": (91, 118, 170),
                "alg3": (91, 118, 170), "dgt": (91, 118, 165)}


@pytest.mark.parametrize("algo", sorted(_DIVERGED_AT))
def test_block_recording_divergence_equals_per_row(small_net, monkeypatch,
                                                   algo):
    # a non-finite row inside a block ends the run there: the later rows of
    # the block enter neither the trace nor the diagnostics, and the final
    # state is that row's
    suite = generate_suite("quadratic_pl", n=6, d=8, seed=3)
    comp = None if algo == "dgt" else make_compressor("norm_sign", d=8)
    for eta, row in zip((50.0, 20.0, 8.0), _DIVERGED_AT[algo]):
        p = AlgorithmParams(eta=eta, gamma=0.9, phi_x=0.3, phi_y=0.1,
                            varsigma=0.3, s0=8.0, mu=0.99)
        with np.errstate(all="ignore"):
            a, b = _run_default_and_per_row(monkeypatch, algo, 500,
                                            small_net, suite, p, comp,
                                            seed=1)
        assert (a.status, a.failed_at) == ("nonfinite_state", row)
        _assert_same_run(a, b)


def test_block_recording_scaling_exhausted_equals_per_row(
        small_net, small_suite, monkeypatch):
    p = AlgorithmParams(eta=1e-9, gamma=0.1, s0=1.0, mu=0.1)
    a, b = _run_default_and_per_row(
        monkeypatch, "alg3", 400, small_net, small_suite, p,
        make_compressor("uniform_quantize", d=8, delta=2.0), seed=1)
    assert (a.status, a.failed_at) == ("scaling_exhausted", 300)
    _assert_same_run(a, b)


# Block steppers against the twin-form oracle: every compressor kind, every
# Lyapunov function a rule takes, default blocks (B = 64 here) and B = 1,
# bitwise.

_TWIN_COMPRESSORS = [
    ("identity", {}),
    ("norm_sign", {}),
    ("uniform_quantize", {"delta": 0.05}),
    ("one_bit", {}),
    ("random_sparsify", {"keep_k": 3}),
    ("random_sparsify", {"keep_k": 3, "sparsify_mode": "random",
                         "rescale": True}),
    ("random_quantize", {"levels": 17}),
    ("uniform_quantize", {"delta": 0.5}),
]


def _assert_equals_twin(tr, want):
    for name in ("consensus_err", "opt_gap", "stationarity", "lyapunov",
                 "x_hist", "y_hist"):
        assert _bits(getattr(tr, name)) == _bits(want[name]), name
    assert (tr.status, tr.failed_at) == (want["status"], want["failed_at"])
    assert tr.lyapunov_name == want["lyapunov_name"]
    assert list(tr.diagnostics) == list(want["diagnostics"])
    assert _bits(list(tr.diagnostics.values())) == _bits(
        list(want["diagnostics"].values()))
    got = {k: v for k, v in vars(tr.final_state).items() if v is not None}
    assert sorted(got) == sorted(want["final"])
    for name, val in want["final"].items():
        assert _bits(got[name]) == _bits(val), name


def _check_against_twin(monkeypatch, algo, iters, net, suite, p, comp,
                        seed=9, x0=None):
    x0 = initial_point(net.n, suite.d, 9) if x0 is None else x0
    want = run_twin(algo, iters, net, suite, p, comp, seed, x0)
    with np.errstate(all="ignore"):
        runs = _run_default_and_per_row(monkeypatch, algo, iters, net, suite,
                                        p, comp, seed=seed, x0=x0)
    for tr in runs:
        _assert_equals_twin(tr, want)
    return want


@pytest.mark.parametrize("algo", ["alg1", "alg2", "alg3", "dgt"])
def test_block_steppers_equal_twin_form_oracle(small_net, small_suite,
                                               monkeypatch, algo):
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    # alg3 derives a gap weight under one_bit only (the scaled function),
    # and keeps the consensus function's 1 under the other kinds; alg2
    # derives its feedback weight, which is 0 outside the relative class,
    # for the identity and for norm_sign (phi_x above 1/r = 1/4), and
    # positive for the other kinds
    cases = [(None, {})] if algo == "dgt" else _TWIN_COMPRESSORS
    weighted = set()
    for kind, kw in cases:
        comp = None if kind is None else make_compressor(kind, d=8, **kw)
        want = _check_against_twin(monkeypatch, algo, 150, small_net,
                                   small_suite, p, comp)
        assert want["status"] == "ok", kind
        if lyapunov_weights_oracle(algo, small_net, small_suite, p, comp)[1]:
            weighted.add(kind)
    assert weighted == {"alg1": set(), "dgt": set(), "alg3": {"one_bit"},
                        "alg2": {"random_sparsify", "random_quantize"}}[algo]


@pytest.mark.parametrize("algo, kind, kw", [
    ("alg1", "random_sparsify", {"keep_k": 3, "sparsify_mode": "random"}),
    ("alg2", "random_quantize", {"levels": 17}),
    ("alg3", "norm_sign", {}),
    ("dgt", None, {}),
])
def test_block_steppers_equal_twin_form_oracle_when_diverging(
        small_net, monkeypatch, algo, kind, kw):
    # the non-finite row falls inside a block: the block steppers step on to
    # the block's end, the oracle stops at that row, and both record up to it
    suite = generate_suite("quadratic_pl", n=6, d=8, seed=3)
    p = AlgorithmParams(eta=20.0, gamma=0.9, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    comp = None if kind is None else make_compressor(kind, d=8, **kw)
    want = _check_against_twin(monkeypatch, algo, 500, small_net, suite, p,
                               comp, seed=1)
    assert want["status"] == "nonfinite_state"
    assert want["failed_at"] % 64


def test_block_stepper_equals_twin_form_oracle_scaling_exhausted(
        small_net, small_suite, monkeypatch):
    p = AlgorithmParams(eta=1e-9, gamma=0.1, s0=1.0, mu=0.1)
    want = _check_against_twin(
        monkeypatch, "alg3", 400, small_net, small_suite, p,
        make_compressor("one_bit", d=8))
    assert (want["status"], want["failed_at"]) == ("scaling_exhausted", 300)


def test_one_compressor_call_and_one_w_product_per_step(small_net,
                                                        small_suite,
                                                        monkeypatch):
    # and each of them takes one block of len(rule.messages) message slots:
    # the bit ledger bills what the steppers send.  The recorder makes no
    # product with W: its accumulator check projects by R, and R @ W is one
    # Network.rmatmul per compressed run.
    slots, sent = {}, []

    def counted(name, fn):
        def wrapper(*args, **kwargs):  # the block is the second argument
            slots[name].append(len(args[1]))
            out = fn(*args, **kwargs)
            if name == "compress":
                sent.append(bool(out.any()))
            return out
        return wrapper

    monkeypatch.setattr(algorithms, "_compress_block",
                        counted("compress", algorithms._compress_block))
    monkeypatch.setattr(Network, "mix", counted("mix", Network.mix))
    monkeypatch.setattr(Network, "rmatmul",
                        counted("rmatmul", Network.rmatmul))
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    assert {name: len(rule.messages) for name, rule in RULES.items()} == {
        "alg1": 2, "alg2": 4, "alg3": 2, "dgt": 2}
    for algo, comp in _BLOCK_CASES.items():
        slots.update(compress=[], mix=[], rmatmul=[])
        sent.clear()
        tr = run(algo, 150, small_net, small_suite, p, comp, seed=9)
        assert tr.status == "ok"
        m = len(RULES[algo].messages)
        assert slots["mix"] == [m] * 150, algo
        assert slots["rmatmul"] == ([] if comp is None else [2]), algo
        # one call for the first messages, whose x and y halves alg2 also
        # sends as its first feedback messages, then one a step
        want = [] if comp is None else [2] + [m] * 150
        assert slots["compress"] == want, algo
        assert all(sent), algo  # each call sends a nonzero block


def test_diverging_block_draws_each_iteration_key_once(small_net,
                                                       monkeypatch):
    # a run that turns non-finite inside a block steps no row twice: the
    # compressor kernel sees each iteration key at most once
    keys = []

    def counted(spec, Xin, seed, k, slot):
        keys.append(k)
        return compress_block(spec, Xin, seed, k, slot)

    compress_block = algorithms._compress_block
    monkeypatch.setattr(algorithms, "_compress_block", counted)
    suite = generate_suite("quadratic_pl", n=6, d=8, seed=3)
    p = AlgorithmParams(eta=50.0, gamma=0.9, phi_x=0.3, phi_y=0.1)
    assert algorithms._block_rows(7, 6, 8) == 64
    with np.errstate(all="ignore"):
        tr = run("alg1", 500, small_net, suite, p,
                 make_compressor("norm_sign", d=8), seed=1)
    assert (tr.status, tr.failed_at) == ("nonfinite_state",
                                         _DIVERGED_AT["alg1"][0])
    assert tr.failed_at % 64
    assert len(keys) == len(set(keys)) and keys == sorted(keys)
