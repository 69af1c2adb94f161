"""Stepper semantics: reductions, invariants, determinism, the oracle."""

import numpy as np
import pytest

from cgtsim import _kernels
from cgtsim.algorithms import (
    AlgorithmError,
    AlgorithmParams,
    auto_s0,
    initial_point,
    practical_params,
    run,
    scaling_sequence,
)
from cgtsim.compressors import make_compressor
from cgtsim.costs import CostSuite, RunCosts, generate_suite, grad
from cgtsim.graph import Network, generate_network
from message_passing_oracle import run_oracle
from twin_stepper_oracle import (
    metrics_oracle,
    row_norm_max_oracle,
    run_twin,
    struct_resid_oracle,
)


@pytest.fixture(scope="module")
def small_net():
    return generate_network(6, 0.6, seed=1)


@pytest.fixture(scope="module")
def small_suite():
    return generate_suite("logistic_log", n=6, d=8, seed=2, scale=0.3)


def _single_agent_net():
    return Network(n=1, adjacency=np.zeros((1, 1), dtype=bool),
                   W=np.ones((1, 1)), sigma=0.0)


def test_identity_reduction_to_baseline(small_net, small_suite):
    comp = make_compressor("identity", d=8)
    shared = dict(seed=5, record_states=True)
    trd = run("dgt", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3), **shared)
    tr1 = run("alg1", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3, phi_x=1.0, phi_y=1.0),
              comp, **shared)
    tr2 = run("alg2", 200, small_net, small_suite,
              AlgorithmParams(eta=0.05, gamma=0.3, phi_x=1.0, phi_y=1.0,
                              varsigma=0.3), comp, **shared)
    tr3 = run("alg3", 200, small_net, small_suite,
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
    a = run("alg1", 150, small_net, small_suite, p1, comp, seed=3,
            record_states=True)
    b = run("alg2", 150, small_net, small_suite, p2, comp, seed=3,
            record_states=True)
    assert np.array_equal(a.x_hist, b.x_hist)


def test_single_agent_is_centralized_gd():
    net = _single_agent_net()
    suite = generate_suite("logistic_log", n=1, d=5, seed=7, scale=0.5)
    comp = make_compressor("norm_sign", d=5)
    x0 = initial_point(1, 5, 11)
    p = AlgorithmParams(eta=0.1, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=10.0, mu=0.99)
    for algo in ("alg1", "alg2", "alg3", "dgt"):
        tr = run(algo, 100, net, suite, p, None if algo == "dgt" else comp,
                 seed=11, x0=x0, record_states=True)
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
    tr = run("alg1", 100, small_net, suite, p, comp, seed=1, x0=x0,
             record_states=True)
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
            assert tr.diagnostics["struct_x"] <= 1e-12
            assert tr.diagnostics["struct_y"] <= 1e-12


def test_agent_relabelling_equivariance(small_net, small_suite):
    # synchronous semantics: permuting agent labels permutes the trajectory
    comp = make_compressor("norm_sign", d=8)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1)
    x0 = initial_point(6, 8, 13)
    perm = np.array([3, 0, 5, 1, 4, 2])
    net_p = Network(n=6, adjacency=small_net.adjacency[perm][:, perm],
                    W=small_net.W[perm][:, perm], sigma=small_net.sigma)
    a = run("alg1", 200, small_net, small_suite, p, comp, seed=6, x0=x0)
    suite_p = generate_suite("logistic_log", n=6, d=8, seed=2, scale=0.3)
    for arr in ("h", "nu", "m", "xi"):
        setattr(suite_p, arr, getattr(small_suite, arr)[perm])
    b = run("alg1", 200, net_p, suite_p, p, comp, seed=6, x0=x0[perm])
    assert np.allclose(b.final_state.x, a.final_state.x[perm],
                       rtol=1e-9, atol=1e-11)


def test_same_seed_identical_traces(small_net, small_suite):
    comp = make_compressor("random_quantize", d=8, levels=9)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1)
    a = run("alg1", 120, small_net, small_suite, p, comp, seed=21)
    b = run("alg1", 120, small_net, small_suite, p, comp, seed=21)
    assert np.array_equal(a.consensus_err, b.consensus_err)
    assert np.array_equal(a.lyapunov, b.lyapunov)
    assert np.array_equal(a.final_state.x, b.final_state.x)
    c = run("alg1", 120, small_net, small_suite, p, comp, seed=22)
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
        tr = run(algo, 150, small_net, small_suite, p, comp, seed=9, x0=x0,
                 record_states=True)
        assert tr.status == "ok"
        xh, yh, final = run_oracle(algo, 150, small_net, small_suite, p,
                                   comp, 9, x0)
        got = {"x_hist": tr.x_hist, "y_hist": tr.y_hist}
        got.update((name, val) for name, val in vars(tr.final_state).items()
                   if val is not None)
        want = {"x_hist": xh, "y_hist": yh, **final}
        assert sorted(got) == sorted(want), algo
        for name, val in want.items():
            scale = 1.0 + np.max(np.abs(val))
            assert np.max(np.abs(got[name] - val)) <= 1e-9 * scale, (algo,
                                                                       name)


def test_bits_column_arithmetic(small_net, small_suite):
    comp = make_compressor("norm_sign", d=8)
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1)
    tr = run("alg1", 50, small_net, small_suite, p, comp, seed=2,
             bits_per_iter=1234)
    assert np.array_equal(tr.bits, np.arange(51) * 1234)


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
                 x0=x0, lyap_phi=b.constants["phi"])
        assert tr.status == "ok"
        paths.append(tr.lyapunov)
    rep = analysis.sample_mean_descent(paths, slack=1e-12)
    assert rep["ok"], rep


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("cost", ["logistic_log", "quadratic_pl"])
def test_batched_record_helpers_match_per_row_oracle(cost):
    # paper scale: there one gemm over stacked rows would already differ
    n, d = 20, 50
    suite = generate_suite(cost, n=n, d=d, seed=4)
    rng = np.random.default_rng(0)
    X, Y, G = (rng.standard_normal((5, n, d)) for _ in range(3))
    X[3] *= 1e200  # a row whose terms overflow
    W = generate_network(n, 0.3, seed=5).W
    # anchored at a given point, and at the least-squares solve without one
    for x_star in (rng.standard_normal(d), None):
        run_costs = RunCosts(suite, x_star, 0.25)
        with np.errstate(all="ignore"):
            got = _kernels._metrics_rows(run_costs, X, Y, G)
            want = [metrics_oracle(run_costs, X[j], Y[j], G[j])
                    for j in range(5)]
        for i, col in enumerate(got):
            assert _bits(col) == _bits([w[i] for w in want]), i
    with np.errstate(all="ignore"):
        # accumulators that satisfy the identity up to round-off, as in a run
        Acc = X - np.einsum("ij,bjd->bid", W, X)
        assert _bits(_kernels._struct_resid_rows(Acc, X, W)) == _bits(
            [struct_resid_oracle(Acc[j], X[j], W) for j in range(5)])
        for ip in (0, 1):
            assert _bits(_kernels._row_norm_max_rows(X - Acc, ip)) == _bits(
                [row_norm_max_oracle(X[j] - Acc[j], ip) for j in range(5)])


def test_raise_max_follows_python_max():
    vals = np.array([0.3, np.nan, 0.7, np.inf, np.nan, 0.1])
    for start in (0.5, 2.0):
        diag = np.array([start])
        _kernels._raise_max(diag, 0, vals[:3])
        want = start
        for v in vals[:3]:
            want = max(want, v)
        assert diag[0] == want
    diag = np.zeros(1)
    _kernels._raise_max(diag, 0, vals)
    assert diag[0] == np.inf


def test_recorder_ignores_rows_after_a_nonfinite_row(small_net, small_suite):
    n, d, eta = 6, 8, 0.1
    rng = np.random.default_rng(1)
    rows = [[rng.standard_normal((n, d)) for _ in range(3)]
            for _ in range(5)]
    rows[2][0][0, 0] = np.inf  # row 2 is non-finite
    rows[3][1] *= 1e6          # row 3 would raise the tracking maximum
    cons, gap, stat, lyap = (np.full(5, -1.0) for _ in range(4))
    diag = np.zeros(8)
    cost = RunCosts(small_suite)
    blocks = [[np.stack(st[:2]), st[2]] for st in rows]  # X|Y, G
    rec = _kernels._BlockRecorder(
        "dgt", blocks[0], cost, small_net.W, eta, _kernels.LYAP_CONSENSUS,
        1.0, 0.0,
        (cons, gap, stat, lyap, diag, np.zeros((0, n, d)),
         np.zeros((0, n, d))))
    assert rec.B >= 5
    for st in blocks:
        rec.push(st)
    with np.errstate(all="ignore"):
        assert rec.flush() == 2
        want = [metrics_oracle(cost, *st) for st in rows[:3]]
    assert not np.isfinite(cons[2]) and np.all(cons[3:] == -1.0)
    assert diag[1] == max(want[0][6], want[1][6])
    # the steps into rows 1 and 2 count; row 2's mean is infinite
    assert diag[0] == np.inf


def _assert_same_run(a, b):
    for name in ("k", "consensus_err", "opt_gap", "stationarity",
                 "lyapunov", "x_hist", "y_hist"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.status, a.failed_at) == (b.status, b.failed_at)
    assert _bits(list(a.diagnostics.values())) == _bits(
        list(b.diagnostics.values()))
    for name, val in vars(a.final_state).items():
        other = getattr(b.final_state, name)
        assert (val is None) == (other is None), name
        assert val is None or _bits(val) == _bits(other), name


def _run_default_and_per_row(monkeypatch, *args, **kwargs):
    """The same run recorded in default blocks and one row at a time."""
    kwargs.update(record_states=True)
    blocked = run(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "_RECORD_BUDGET", 0)
        assert _kernels._block_rows(3, 6, 8) == 1
        per_row = run(*args, **kwargs)
    return blocked, per_row


_BLOCK_CASES = {
    "alg1": make_compressor("norm_sign", d=8),
    "alg2": make_compressor("norm_sign", d=8),
    "alg3": make_compressor("uniform_quantize", d=8, delta=2.0),
    "dgt": None,
}


@pytest.mark.parametrize("algo", sorted(_BLOCK_CASES))
def test_block_recording_equals_per_row(small_net, small_suite, monkeypatch,
                                        algo):
    iters = 150
    assert _kernels._block_rows(9, 6, 8) == 64 and iters % 64
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    a, b = _run_default_and_per_row(monkeypatch, algo, iters, small_net,
                                    small_suite, p, _BLOCK_CASES[algo],
                                    seed=9)
    assert a.status == "ok"
    _assert_same_run(a, b)


def test_final_state_fields_are_distinct_arrays(small_net, small_suite):
    # the steppers hand back their own arrays; accumulators that start at
    # zero and never move (alg1's ex, ey) must not share one zero array
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    x0 = initial_point(6, 8, 3)
    for algo, comp in _BLOCK_CASES.items():
        tr = run(algo, 5, small_net, small_suite, p, comp, seed=3, x0=x0)
        arrays = [x0] + [a for a in vars(tr.final_state).values()
                         if a is not None]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), algo


# rows at which the per-row recorder found each quadratic run non-finite
_DIVERGED_AT = {"alg1": (91, 118, 169), "alg2": (91, 118, 170),
                "alg3": (91, 118, 170), "dgt": (91, 118, 165)}


@pytest.mark.parametrize("algo", sorted(_DIVERGED_AT))
def test_block_recording_divergence_equals_per_row(small_net, monkeypatch,
                                                   algo):
    # a non-finite row inside a block ends the run there: later rows of the
    # block are discarded and the state is replayed back to that row
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
# Lyapunov kind, default blocks (B = 64 here) and B = 1, bitwise.

_TWIN_COMPRESSORS = [
    ("identity", {}),
    ("norm_sign", {}),
    ("uniform_quantize", {"delta": 0.05}),
    ("one_bit", {}),
    ("random_sparsify", {"keep_k": 3}),
    ("random_sparsify", {"keep_k": 3, "sparsify_mode": "random",
                         "rescale": True}),
    ("random_quantize", {"levels": 17}),
    ("uniform_quantize", {"delta": 0.5, "p_norm": 2.0}),
]
_LYAP = dict(lyap_phi=0.7, lyap_aux=0.3)


def _assert_equals_twin(tr, want):
    for name in ("consensus_err", "opt_gap", "stationarity", "lyapunov",
                 "x_hist", "y_hist"):
        assert _bits(getattr(tr, name)) == _bits(want[name]), name
    assert (tr.status, tr.failed_at) == (want["status"], want["failed_at"])
    assert _bits(list(tr.diagnostics.values())) == _bits(
        list(want["diagnostics"].values()))
    got = {k: v for k, v in vars(tr.final_state).items() if v is not None}
    assert sorted(got) == sorted(want["final"])
    for name, val in want["final"].items():
        assert _bits(got[name]) == _bits(val), name


def _check_against_twin(monkeypatch, algo, iters, net, suite, p, comp,
                        lyap_kind, seed=9, x0=None):
    x0 = initial_point(net.n, suite.d, 9) if x0 is None else x0
    want = run_twin(algo, iters, net, suite, p, comp, seed, x0,
                    lyap_kind=lyap_kind, **_LYAP)
    with np.errstate(all="ignore"):
        runs = _run_default_and_per_row(monkeypatch, algo, iters, net, suite,
                                        p, comp, seed=seed, x0=x0,
                                        lyap_kind=lyap_kind, **_LYAP)
    for tr in runs:
        _assert_equals_twin(tr, want)
    return want


@pytest.mark.parametrize("algo", ["alg1", "alg2", "alg3", "dgt"])
def test_block_steppers_equal_twin_form_oracle(small_net, small_suite,
                                               monkeypatch, algo):
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    cases = [(None, {})] if algo == "dgt" else _TWIN_COMPRESSORS
    for i, (kind, kw) in enumerate(cases):
        comp = None if kind is None else make_compressor(kind, d=8, **kw)
        want = _check_against_twin(monkeypatch, algo, 150, small_net,
                                   small_suite, p, comp, lyap_kind=i % 4)
        assert want["status"] == "ok", kind


@pytest.mark.parametrize("algo, kind, kw", [
    ("alg1", "random_sparsify", {"keep_k": 3, "sparsify_mode": "random"}),
    ("alg2", "random_quantize", {"levels": 17}),
    ("alg3", "norm_sign", {}),
    ("dgt", None, {}),
])
def test_block_steppers_equal_twin_form_oracle_when_diverging(
        small_net, monkeypatch, algo, kind, kw):
    # the non-finite row falls inside a block: the block steppers replay to
    # it from a copy of the block's first row, the oracle just stops there
    suite = generate_suite("quadratic_pl", n=6, d=8, seed=3)
    p = AlgorithmParams(eta=20.0, gamma=0.9, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    comp = None if kind is None else make_compressor(kind, d=8, **kw)
    want = _check_against_twin(monkeypatch, algo, 500, small_net, suite, p,
                               comp, lyap_kind=1, seed=1)
    assert want["status"] == "nonfinite_state"
    assert want["failed_at"] % 64


def test_block_stepper_equals_twin_form_oracle_scaling_exhausted(
        small_net, small_suite, monkeypatch):
    p = AlgorithmParams(eta=1e-9, gamma=0.1, s0=1.0, mu=0.1)
    want = _check_against_twin(
        monkeypatch, "alg3", 400, small_net, small_suite, p,
        make_compressor("uniform_quantize", d=8, delta=2.0), lyap_kind=3)
    assert (want["status"], want["failed_at"]) == ("scaling_exhausted", 300)


def test_one_compressor_call_and_one_w_product_per_step(small_net,
                                                        small_suite,
                                                        monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_kernels, "_compress_block_np",
                        counted("compress", _kernels._compress_block_np))
    monkeypatch.setattr(_kernels, "_mix", counted("mix", _kernels._mix))
    p = AlgorithmParams(eta=0.05, gamma=0.3, phi_x=0.3, phi_y=0.1,
                        varsigma=0.3, s0=8.0, mu=0.99)
    for algo, comp in _BLOCK_CASES.items():
        calls.update(compress=0, mix=0)
        tr = run(algo, 150, small_net, small_suite, p, comp, seed=9)
        assert tr.status == "ok"
        # one call for the first messages, then one a step
        assert calls == {"compress": 0 if comp is None else 151,
                         "mix": 150}, algo
