"""Cost values, gradient oracles, smoothness estimates, reference solve."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cgtsim import costs
from cgtsim.costs import (
    CostError,
    CostSuite,
    RunCosts,
    generate_suite,
    grad_all,
    mean_grad,
    mean_hessian,
    mean_value,
    solve_reference,
)
from cost_oracles import (
    descend,
    estimate_L,
    eval_cost,
    grad,
    least_squares,
    logistic_grad_all,
    sigmoid_two_div,
    solve_reference_per_start,
    suite_from_json,
    suite_to_json,
)


def _logistic_eval_oracle(h, nu, m, xi, x):
    """Independent 50-digit reimplementation of the logistic-log value."""
    with mpmath.workdps(50):
        z = mpmath.mpf(0)
        for a, b in zip(xi, x):
            z += mpmath.mpf(float(a)) * mpmath.mpf(float(b))
        z += mpmath.mpf(float(nu))
        sig = 1 / (1 + mpmath.e**(-z))
        r2 = mpmath.mpf(0)
        for b in x:
            r2 += mpmath.mpf(float(b)) ** 2
        val = mpmath.mpf(float(h)) * sig + mpmath.mpf(float(m)) * mpmath.log(1 + r2)
        return float(val)


def test_eval_trivial_cases():
    suite = generate_suite("logistic_log", n=3, d=4, seed=0)
    # h=0, m=1 at x=0: log term is ln(1) = 0
    suite.h[0] = 0.0
    suite.m[0] = 1.0
    assert eval_cost(suite, 0, np.zeros(4)) == 0.0
    # h=1, xi=0, nu=0, m=0: constant sigmoid value 0.5
    suite.h[1] = 1.0
    suite.xi[1] = 0.0
    suite.nu[1] = 0.0
    suite.m[1] = 0.0
    assert eval_cost(suite, 1, np.array([5.0, -2, 1, 0])) == pytest.approx(0.5)


def test_eval_matches_high_precision_oracle():
    suite = generate_suite("logistic_log", n=5, d=6, seed=42)
    rng = np.random.default_rng(7)
    for _ in range(20):
        i = int(rng.integers(5))
        x = rng.standard_normal(6) * 2
        want = _logistic_eval_oracle(suite.h[i], suite.nu[i], suite.m[i],
                                     suite.xi[i], x)
        got = eval_cost(suite, i, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_eval_stable_for_large_arguments():
    suite = generate_suite("logistic_log", n=2, d=3, seed=1)
    x = np.array([1e4, -1e4, 1e4])
    v = eval_cost(suite, 0, x)
    assert math.isfinite(v)
    g = grad(suite, 0, x)
    assert np.all(np.isfinite(g))


def _fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


@pytest.mark.parametrize("kind", ["logistic_log", "quadratic_pl"])
def test_grad_matches_central_differences(kind):
    suite = generate_suite(kind, n=4, d=5, seed=3)
    rng = np.random.default_rng(11)
    for t in range(100):
        i = int(rng.integers(4))
        x = rng.standard_normal(5) * rng.uniform(0.2, 2.0)
        num = _fd_grad(lambda v: eval_cost(suite, i, v), x)
        ana = grad(suite, i, x)
        denom = max(np.linalg.norm(num), 1e-8)
        assert np.linalg.norm(ana - num) / denom <= 1e-5


def test_grad_zero_when_flat():
    suite = generate_suite("logistic_log", n=2, d=3, seed=5)
    suite.h[:] = 0.0
    suite.m[:] = 0.0
    assert np.array_equal(grad(suite, 0, np.array([1.0, 2.0, 3.0])), np.zeros(3))


def test_quadratic_grad_matches_matrix_arithmetic():
    suite = generate_suite("quadratic_pl", n=3, d=4, seed=9)
    rng = np.random.default_rng(13)
    for _ in range(50):
        i = int(rng.integers(3))
        x = rng.standard_normal(4)
        Mi = suite.M[i]
        want = Mi.T @ Mi @ x - Mi.T @ suite.b[i]
        assert np.allclose(grad(suite, i, x), want, atol=1e-12)


def test_grad_all_consistent_with_grad():
    for kind in ("logistic_log", "quadratic_pl"):
        suite = generate_suite(kind, n=6, d=4, seed=17)
        X = np.random.default_rng(19).standard_normal((6, 4))
        G = grad_all(suite, X)
        for i in range(6):
            assert np.allclose(G[i], grad(suite, i, X[i]), atol=1e-12)


# Gram form (H_i = M_i'M_i, c_i = M_i'b_i) against the factor form M_i.
# Round-off of either form is at most (terms summed) * eps * (sizes of the
# summed products), the first-order bound; the tolerances below state it.

_EPS = np.finfo(float).eps
_GRAM_CASES = [(rows, consistent) for rows in (4, 8, 16, 32)
               for consistent in (True, False)]  # rows d/4 .. 2d at d = 16


@pytest.mark.parametrize("rows,consistent", _GRAM_CASES)
def test_gram_gradients_match_factor_form(rows, consistent):
    n, d = 6, 16
    suite = generate_suite("quadratic_pl", n=n, d=d, seed=rows, rows=rows,
                           consistent=consistent)
    rng = np.random.default_rng(rows)
    for scale in (1e-6, 1.0, 1e3):
        X = scale * rng.standard_normal((n, d))
        G = grad_all(suite, X)
        for i in range(n):
            Mi, bi = suite.M[i], suite.b[i]
            size = np.linalg.norm(Mi) * (np.linalg.norm(Mi)
                                         * np.linalg.norm(X[i])
                                         + np.linalg.norm(bi))
            err = np.linalg.norm(G[i] - grad(suite, i, X[i]))
            assert err <= (rows + d) * _EPS * size, (i, scale)


@pytest.mark.parametrize("rows,consistent", _GRAM_CASES)
@pytest.mark.parametrize("anchored", [True, False])
def test_gram_trace_terms_match_factor_form(rows, consistent, anchored):
    # gap n (F(x) - F*) and stationarity n ||grad F(x)||^2 at agent means x
    # from the Gram form against the factor form on the same points.  With
    # the anchor at the reference x*, they differ from the gap measured from
    # the true minimiser by at most n ||grad F(x*)|| ||e||, the certificate
    # of the reference; the rest is round-off.
    n, d = 6, 16
    suite = generate_suite("quadratic_pl", n=n, d=d, seed=rows, rows=rows,
                           consistent=consistent)
    ref = solve_reference(suite)
    cost = RunCosts(suite, ref.x_star if anchored else None, ref.f_star)
    r = cost.r  # the least-squares minimiser when not anchored
    f_r = mean_value(suite, r)
    H, c, Hbar = suite.gram
    hbar, cbar = np.linalg.norm(Hbar, 2), np.linalg.norm(c.mean(axis=0))
    msize = sum(np.linalg.norm(Mi) for Mi in suite.M) / n
    bsize = sum(np.linalg.norm(bi) for bi in suite.b) / n
    rng = np.random.default_rng(rows + 1)
    pts = [ref.x_star + t * rng.standard_normal(d)
           for t in (1e-9, 1e-5, 1e-2, 1.0, 10.0)]
    gap, stat = cost.trace_terms(np.array(pts))
    for j, x in enumerate(pts):
        e = np.linalg.norm(x - r)
        f_x = mean_value(suite, x)
        gap_m = n * (f_x - ref.f_star)
        roundoff = (rows + d) * _EPS * (
            hbar * e * e + e * (hbar * np.linalg.norm(r) + cbar)
            + f_x + f_r + ref.f_star)
        assert abs(gap[j] - gap_m) <= n * (ref.grad_norm * e + roundoff), j
        g_m = mean_grad(suite, x)
        delta = (n * rows + d) * _EPS * msize * (
            msize * np.linalg.norm(x) + bsize)
        gn = np.linalg.norm(g_m)
        assert abs(stat[j] - n * (g_m @ g_m)) <= n * delta * (2 * gn + delta)


def test_generation_gram_is_the_one_gram_of_the_suite(monkeypatch):
    # generate_suite keeps its normalized Gram and the eigenpairs of its
    # mean; the reference solve and the runs reuse them, building no other
    # and making no other eigen or least-squares call
    calls = []
    for name in ("eigh", "eigvalsh", "lstsq", "svd", "pinv"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def rebuilt(self):
        raise AssertionError("the Gram was built again")

    monkeypatch.setattr(CostSuite.__dict__["gram"], "func", rebuilt)
    suite = generate_suite("quadratic_pl", n=4, d=6, seed=1)
    gram, eig = vars(suite)["gram"], vars(suite)["gram_eigh"]
    H, c, Hbar = gram
    assert H.shape == (4, 6, 6) and c.shape == (4, 6)
    assert np.array_equal(Hbar, H.mean(axis=0))
    Mt = suite.M.transpose(0, 2, 1)
    assert np.allclose(H, Mt @ suite.M, rtol=0, atol=1e-14)
    assert np.array_equal(c, (Mt @ suite.b[:, :, None])[:, :, 0])
    ref = solve_reference(suite)
    for cost in (RunCosts(suite, ref.x_star, ref.f_star), RunCosts(suite)):
        assert cost.Hbar is Hbar
    assert suite.gram is gram and suite.gram_eigh is eig
    assert calls == ["eigvalsh", "eigh"]
    X = np.random.default_rng(2).standard_normal((4, 6))
    assert np.array_equal(grad_all(suite, X), (H @ X[:, :, None])[:, :, 0] - c)


def test_runs_do_not_step_through_the_public_grad_all(monkeypatch):
    # profilers wrap costs.grad_all; runs must not send each step through it
    from cgtsim.algorithms import AlgorithmParams, run
    from cgtsim.graph import generate_network

    suite = generate_suite("quadratic_pl", n=4, d=6, seed=1)
    net = generate_network(4, 0.8, seed=1)
    want = run("dgt", 5, net, suite, AlgorithmParams(eta=0.1, gamma=0.3))

    def wrapped(*args):
        raise AssertionError("a step went through costs.grad_all")

    monkeypatch.setattr(costs, "grad_all", wrapped)
    got = run("dgt", 5, net, suite, AlgorithmParams(eta=0.1, gamma=0.3))
    assert np.array_equal(got.opt_gap, want.opt_gap)


def test_estimate_L_quadratic_identity_factors():
    suite = generate_suite("quadratic_pl", n=3, d=4, seed=2, normalize=False)
    for i in range(3):
        suite.M[i] = np.eye(4)
    suite.L_f = 1.0  # analytic for identity factors
    assert estimate_L(suite, 50, np.random.default_rng(0)) == 1.0


def test_estimate_L_logistic_pure_log_term():
    suite = generate_suite("logistic_log", n=3, d=5, seed=21)
    suite.h[:] = 0.0
    suite.m[:] = 1.0
    # Hessian of ln(1+||x||^2) has spectral norm at most 2
    est = estimate_L(suite, 300, np.random.default_rng(1))
    assert est <= 3.0
    assert est >= 1.0  # ratio near 2 is achievable, times the 1.5 margin


def test_estimate_L_monotone_in_samples():
    suite = generate_suite("logistic_log", n=4, d=5, seed=23)
    vals = [estimate_L(suite, s, np.random.default_rng(77)) for s in
            (10, 50, 200)]
    assert vals[0] <= vals[1] <= vals[2]


def test_logistic_suite_refuses_a_subnormal_lipschitz_square():
    # the Lyapunov weights divide by L_f^2, which must be a normal float:
    # L_f scales with ``scale``, so twice the edge passes and half fails
    L1 = generate_suite("logistic_log", n=5, d=4, seed=5).L_f
    edge = math.sqrt(np.finfo(float).tiny) / L1
    suite = generate_suite("logistic_log", n=5, d=4, seed=5, scale=2 * edge)
    assert suite.L_f * suite.L_f >= np.finfo(float).tiny
    for scale in (edge / 2, 1e-160, -1e-200):
        with pytest.raises(CostError, match="smallest normal float"):
            generate_suite("logistic_log", n=5, d=4, seed=5, scale=scale)


def test_normalized_quadratic_has_unit_L():
    suite = generate_suite("quadratic_pl", n=5, d=4, seed=29)
    assert suite.L_f == pytest.approx(1.0, rel=1e-12)
    assert suite.nu_pl is not None and 0 < suite.nu_pl <= 1.0


def test_pl_inequality_on_random_points():
    # 0.5 ||grad F||^2 >= nu (F - F*) with nu the smallest nonzero eigenvalue
    suite = generate_suite("quadratic_pl", n=4, d=5, seed=31)
    ref = solve_reference(suite, tol=1e-11)
    assert ref.f_star == pytest.approx(0.0, abs=1e-10)  # consistent system
    rng = np.random.default_rng(37)
    for _ in range(1000):
        x = rng.standard_normal(5) * rng.uniform(0.1, 4.0)
        lhs = 0.5 * np.linalg.norm(mean_grad(suite, x)) ** 2
        rhs = suite.nu_pl * (mean_value(suite, x) - ref.f_star)
        assert lhs >= rhs * (1 - 1e-9) - 1e-12


def test_solve_reference_logistic_pure_log():
    suite = generate_suite("logistic_log", n=4, d=6, seed=41)
    suite.h[:] = 0.0
    ref = solve_reference(suite, tol=1e-10)
    # pure log term is minimized at the origin with value 0
    assert ref.f_star == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(ref.x_star) <= 1e-6
    assert ref.certified


def test_solve_reference_multi_restart_dominates():
    suite = generate_suite("logistic_log", n=5, d=8, seed=43)
    ref = solve_reference(suite, tol=1e-8)
    assert ref.f_star <= min(ref.restart_values) + 1e-15
    assert ref.certified


def test_reference_is_global_floor_on_probes():
    suite = generate_suite("logistic_log", n=5, d=8, seed=43)
    ref = solve_reference(suite, tol=1e-8)
    rng = np.random.default_rng(47)
    worst = min(mean_value(suite, rng.standard_normal(8) * rng.uniform(0.1, 5))
                for _ in range(10_000))
    assert worst >= ref.f_star - 1e-8


def _restart_descent_oracle(suite, tol, restarts=16, seed=0, extra=()):
    """The 16-start reference solve: descent from the origin and from
    ``restarts - 1`` random points, keeping the lowest endpoint."""
    rng = np.random.default_rng(np.random.SeedSequence([suite.seed, seed, 0xF5]))
    starts = [np.zeros(suite.d)]
    starts += [rng.standard_normal(suite.d) * s for s in
               np.linspace(0.3, 3.0, restarts - 1)]
    starts += [np.asarray(s, dtype=np.float64) for s in extra]
    ends = [descend(suite, x0, tol, 10_000) for x0 in starts]
    best = min(range(len(ends)), key=lambda i: (ends[i][1], i))
    return ends[best], [f for _, f, _ in ends]


_QUAD_VARIANTS = [{}, {"consistent": False}, {"rows": 4},
                  {"rows": 4, "consistent": False}, {"normalize": False},
                  {"normalize": False, "consistent": False}]


@pytest.mark.parametrize("kw", _QUAD_VARIANTS)
def test_quadratic_reference_is_certified_least_squares(kw):
    # The reference is no worse than the restart descent's endpoint, up to
    # its P-L certificate and round-off: by P-L, F(x_ref) - F* is at most
    # ||grad F(x_ref)||^2 / (2 nu), F* <= F(x_old), and each computed value
    # of F, a sum of m = n * rows nonnegative terms, is off by at most
    # m eps |F| (recursive summation).
    suite = generate_suite("quadratic_pl", n=6, d=10, seed=5, **kw)
    (_, f_old, _), _ = _restart_descent_oracle(suite, 1e-9)
    m = suite.n * suite.M.shape[1]
    for tol in (1e-9, 1e-11):
        ref = solve_reference(suite, tol=tol)
        assert ref.certified and ref.grad_norm <= tol
        assert ref.grad_norm == np.linalg.norm(mean_grad(suite, ref.x_star))
        assert ref.f_star == mean_value(suite, ref.x_star)
        assert ref.f_star <= (f_old + ref.grad_norm**2 / (2 * suite.nu_pl)
                              + m * _EPS * abs(f_old))
        # restarts and seed do not apply to the quadratic family
        again = solve_reference(suite, tol=tol, restarts=3, seed=99)
        assert again.f_star == ref.f_star
        assert np.array_equal(again.x_star, ref.x_star)


# rows > d, and rows = 1, where the mean Gram has rank n = 6 < d
_QUAD_SHAPES = _QUAD_VARIANTS + [{"rows": 16}, {"rows": 16, "normalize": False},
                                 {"rows": 1}]


@pytest.mark.parametrize("kw", _QUAD_SHAPES)
def test_quadratic_constants_match_the_stored_factors(kw):
    suite = generate_suite("quadratic_pl", n=6, d=10, seed=5, **kw)
    tops = np.array([np.linalg.norm(Mi, 2) for Mi in suite.M])
    assert suite.L_f == pytest.approx(tops.max() ** 2, rel=1e-12)
    eigs = np.linalg.eigvalsh(np.mean([Mi.T @ Mi for Mi in suite.M], axis=0))
    nonzero = eigs[eigs > 1e-9 * eigs[-1]]
    assert len(nonzero) == min(10, 6 * suite.M.shape[1])
    assert suite.nu_pl == pytest.approx(nonzero[0], rel=1e-12)
    if kw.get("normalize", True):
        assert np.all(np.abs(tops - 1.0) <= 1e-12)
    for Hi in suite.gram[0]:
        assert suite.L_f >= np.linalg.eigvalsh(Hi)[-1] * (1 - 1e-12)


def _count_mean_calls(monkeypatch) -> dict:
    """From now on, calls["n"] counts the calls of costs.mean_value and
    costs.mean_grad."""
    calls = {"n": 0}
    for name in ("mean_value", "mean_grad"):
        fn = getattr(costs, name)

        def counted(*args, _fn=fn, **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(costs, name, counted)
    return calls


def _column_scaled_suite(decades):
    # columns scaled over some decades: kappa(Hbar) is about 10^(2 decades)
    base = generate_suite("quadratic_pl", n=6, d=10, seed=5)
    M = base.M * np.logspace(0, -decades, 10)
    b = np.einsum("nrd,d->nr", M, np.random.default_rng(6).standard_normal(10))
    suite = CostSuite("quadratic_pl", 6, 10, 5, M=M, b=b)
    suite.L_f = float(np.linalg.eigvalsh(suite.gram[0])[:, -1].max())
    return suite


@pytest.mark.parametrize("kw", _QUAD_SHAPES + [4, 6])
def test_quadratic_minimiser_is_the_least_squares_solution(kw, monkeypatch):
    # the Gram solve with one Newton step against the SVD of the stacked
    # factors: the same (minimum-norm) point, with a gradient no larger, and
    # certified by the reference solve without a descent step.  An int kw is
    # a column-scaled instance; at kappa(Hbar) = 1e12 the SVD oracle is
    # itself 5.5e-12 off the exact solution, and nu_pl's 1e-9 eigenvalue
    # cutoff would drop directions of Hbar that are not round-off.
    if isinstance(kw, int):
        suite = _column_scaled_suite(kw)
        lam = np.linalg.eigvalsh(suite.gram[2])
        assert 0.1 <= lam[-1] / lam[0] / 10.0 ** (2 * kw) <= 10.0
    else:
        suite = generate_suite("quadratic_pl", n=6, d=10, seed=5, **kw)
    rtol = 1e-10 if kw == 6 else 1e-12
    x_ls = least_squares(suite)
    x = costs._quadratic_minimiser(suite)
    assert np.linalg.norm(x - x_ls) <= rtol * np.linalg.norm(x_ls)
    tol = 1e-9
    gn_ls = np.linalg.norm(mean_grad(suite, x_ls))
    assert np.linalg.norm(mean_grad(suite, x)) <= max(gn_ls, tol)
    calls = _count_mean_calls(monkeypatch)
    ref = solve_reference(suite, tol=tol)
    assert ref.certified and np.array_equal(ref.x_star, x)
    assert calls["n"] <= 4


def test_quadratic_reference_uses_extra_starts():
    suite = generate_suite("quadratic_pl", n=5, d=6, seed=8, consistent=False)
    extra = [np.full(6, 3.0), -np.ones(6)]
    ref = solve_reference(suite, tol=1e-9, extra_starts=extra)
    assert len(ref.restart_values) == 3
    for x0, f in zip(extra, ref.restart_values[1:]):
        assert f == descend(suite, x0, 1e-9, 10_000)[1]
    assert ref.f_star == min(ref.restart_values)


def test_quadratic_reference_evaluation_count(monkeypatch):
    suite = generate_suite("quadratic_pl", n=20, d=30, seed=3, consistent=False)
    calls = _count_mean_calls(monkeypatch)
    ref = solve_reference(suite, tol=1e-9)
    assert ref.certified
    assert 1 <= calls["n"] <= 5


@pytest.mark.parametrize("seed", [43, 202])
def test_logistic_reference_is_the_restart_descent(seed):
    suite = generate_suite("logistic_log", n=5, d=8, seed=seed)
    extra = [np.full(8, 0.5)]
    ref = solve_reference(suite, tol=1e-8, restarts=6, seed=2,
                          extra_starts=extra)
    (x, f, gn), values = _restart_descent_oracle(suite, 1e-8, restarts=6,
                                                 seed=2, extra=extra)
    assert np.array_equal(ref.x_star, x)
    assert ref.f_star == f and ref.grad_norm == gn
    assert ref.restart_values == values


def _bits(v):
    """Bytes of v, with every NaN made the one NaN: on a NaN + NaN, numpy's
    scalar add and its SIMD loop keep the sign of different operands."""
    v = np.array(v, dtype=np.float64)
    v[np.isnan(v)] = np.nan
    return v.tobytes()


def _assert_same_solution(got, want):
    assert _bits(got.x_star) == _bits(want.x_star)
    assert got.x_star.shape == want.x_star.shape
    assert _bits(got.f_star) == _bits(want.f_star)
    assert _bits(got.grad_norm) == _bits(want.grad_norm)
    assert got.certified == want.certified and got.tol == want.tol
    assert _bits(got.restart_values) == _bits(want.restart_values)
    assert all(type(v) is float for v in got.restart_values)


# the paper instance; a seed whose stalled starts take the Newton finish,
# and one whose best start is the finish's; a quadratic whose extra starts
# run in lock-step
_SOLVE_CASES = [
    ("logistic_log", {"seed": 202}, {}),
    ("logistic_log", {"seed": 3}, {"max_iters": 300}),
    ("logistic_log", {"seed": 40}, {}),
    ("quadratic_pl", {"seed": 8, "d": 6, "consistent": False},
     {"extra_starts": [np.full(6, 3.0), -np.ones(6)]}),
]


@pytest.mark.parametrize("kind,gen,kw", _SOLVE_CASES)
def test_solve_reference_equals_per_start_descent(kind, gen, kw):
    gen = {"n": 20, "d": 50, **gen}
    if kind == "logistic_log":
        gen["scale"] = 0.1
    suite = generate_suite(kind, **gen)
    _assert_same_solution(solve_reference(suite, **kw),
                          solve_reference_per_start(suite, **kw))


def test_solve_reference_keeps_the_first_of_tied_or_nan_values():
    # a tie at the minimum: the origin and -0.0 both have F = 0 and a zero
    # gradient when h = 0, and the origin comes first
    suite = generate_suite("logistic_log", n=4, d=6, seed=41)
    suite.h[:] = 0.0
    kw = {"restarts": 3, "extra_starts": [np.full(6, -0.0)]}
    ref = solve_reference(suite, **kw)
    _assert_same_solution(ref, solve_reference_per_start(suite, **kw))
    assert ref.restart_values[0] == ref.restart_values[-1] == ref.f_star == 0
    assert _bits(ref.x_star) == _bits(np.zeros(6))
    # a NaN start after finite ones never wins (np.argmin would pick it)
    suite = generate_suite("logistic_log", n=4, d=6, seed=43)
    kw = {"restarts": 3, "max_iters": 20, "extra_starts": [np.full(6, np.nan)]}
    ref = solve_reference(suite, **kw)
    _assert_same_solution(ref, solve_reference_per_start(suite, **kw))
    assert math.isnan(ref.restart_values[-1]) and math.isfinite(ref.f_star)
    # a NaN first start wins: xi'x is inf * 0 at the origin only
    suite.xi[0, 0] = np.inf
    kw = {"restarts": 3, "max_iters": 0}
    with np.errstate(invalid="ignore"):
        ref = solve_reference(suite, **kw)
        _assert_same_solution(ref, solve_reference_per_start(suite, **kw))
    assert math.isnan(ref.f_star) and not ref.certified
    assert all(math.isfinite(v) for v in ref.restart_values[1:])


def test_paper_reference_evaluation_count(monkeypatch):
    # lock-step descent: one stacked call per iteration and per backtracking
    # round, not one per start (1375 calls by the per-start oracle)
    suite = generate_suite("logistic_log", n=20, d=50, seed=202, scale=0.1)
    calls = _count_mean_calls(monkeypatch)
    assert solve_reference(suite).certified
    assert calls["n"] <= 150


@pytest.mark.parametrize("seed", [3, 13, 14, 16, 40])
def test_stalled_references_are_certified_by_the_newton_finish(seed,
                                                               monkeypatch):
    # starts whose gradient norm stalls at round-off just above tol: the
    # descent stops at the first line search without a decrease, and the
    # Newton finish takes the norm below tol (about 30 000 calls, and seed
    # 40 uncertified, when the descent kept stepping to find a dip below tol)
    suite = generate_suite("logistic_log", n=20, d=50, seed=seed, scale=0.1)
    calls = _count_mean_calls(monkeypatch)
    assert solve_reference(suite).certified
    assert calls["n"] <= 300


def test_newton_finish_starts_from_the_stacked_gradient(monkeypatch):
    # seed 3 stalls in several starts; each finish starts from its row of
    # the last stacked gradient, so the only one-row gradient calls are the
    # one after each Newton step (12 when each finish recomputed its start's)
    suite = generate_suite("logistic_log", n=20, d=50, seed=3, scale=0.1)
    calls = {"grad": 0, "hessian": 0}
    for name, key in (("mean_grad", "grad"), ("mean_hessian", "hessian")):
        fn = getattr(costs, name)

        def counted(suite, x, _fn=fn, _key=key):
            calls[_key] += np.ndim(x) == 1
            return _fn(suite, x)

        monkeypatch.setattr(costs, name, counted)
    ref = solve_reference(suite)
    assert calls == {"grad": 9, "hessian": 9}
    monkeypatch.undo()
    want = solve_reference_per_start(suite)
    assert _bits(ref.x_star) == _bits(want.x_star)
    assert _bits(ref.f_star) == _bits(want.f_star)


def test_singular_hessian_ends_the_newton_finish(monkeypatch):
    # seed 64 at n = 10, d = 8 stalls above tol and needs the finish; a
    # singular Hessian ends the finish at once, which leaves what no finish
    # leaves
    suite = generate_suite("logistic_log", n=10, d=8, seed=64)
    assert solve_reference(suite).certified
    monkeypatch.setattr(costs, "mean_hessian",
                        lambda suite, x: np.zeros((suite.d, suite.d)))
    singular = solve_reference(suite)
    monkeypatch.setattr(costs, "_NEWTON_STEPS", 0)
    bare = solve_reference(suite)
    assert not bare.certified
    _assert_same_solution(singular, bare)


@pytest.mark.parametrize("kind,kw", [
    ("logistic_log", {}), ("logistic_log", {"scale": 0.1, "abs_m": False}),
    ("quadratic_pl", {}), ("quadratic_pl", {"normalize": False}),
    ("quadratic_pl", {"rows": 1}),  # rank n = 6 < d: a singular Hessian
])
def test_mean_hessian_matches_central_differences(kind, kw):
    suite = generate_suite(kind, n=6, d=10, seed=5, **kw)
    rng = np.random.default_rng(9)
    eps = 1e-5
    for _ in range(10):
        x = rng.standard_normal(10) * rng.uniform(0.2, 3.0)
        H = mean_hessian(suite, x)
        # row j: grad F at x + eps e_j minus grad F at x - eps e_j
        diff = (mean_grad(suite, x + eps * np.eye(10))
                - mean_grad(suite, x - eps * np.eye(10))) / (2 * eps)
        assert np.abs(H - diff.T).max() <= 1e-7 * max(np.abs(H).max(), 1.0)
        assert np.abs(H - H.T).max() <= 1e-14 * np.abs(H).max()
    if kw.get("rows") == 1:
        assert np.linalg.matrix_rank(H) == suite.n


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(costs.KINDS),
       n=st.integers(1, 8), d=st.integers(1, 60), B=st.integers(1, 17),
       seed=st.integers(0, 2**31))
def test_stacked_mean_calls_equal_one_row_calls(data, kind, n, d, B, seed):
    # rows from a generator, so that sums round; scales 1e-3 to 1e2
    if kind == "logistic_log":
        kw = {"scale": data.draw(st.sampled_from([0.1, 1.0])),
              "abs_m": data.draw(st.booleans())}
    else:  # rows below, at and above d
        kw = {"rows": data.draw(st.integers(1, d + 3)),
              "consistent": data.draw(st.booleans()),
              "normalize": data.draw(st.booleans())}
    suite = generate_suite(kind, n, d, seed, **kw)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((B, d)) * 10.0 ** rng.integers(-3, 3, (B, 1))
    X[data.draw(hnp.arrays(bool, B))] = 0.0
    V, G = mean_value(suite, X), mean_grad(suite, X)
    assert V.shape == (B,) and G.shape == (B, d)
    for b in range(B):
        assert _bits(mean_value(suite, X[b])) == _bits(V[b])
        assert _bits(mean_grad(suite, X[b])) == _bits(G[b])


def test_bad_inputs():
    with pytest.raises(CostError):
        generate_suite("cubic", 3, 3, 0)
    suite = generate_suite("logistic_log", n=2, d=2, seed=0)
    with pytest.raises(CostError):
        eval_cost(suite, 0, np.array([np.inf, 1.0]))
    with pytest.raises(CostError):
        estimate_L(suite, 5, np.random.default_rng(0))
    with pytest.raises(CostError):
        solve_reference(suite, tol=0.0)


@pytest.mark.parametrize("scale", [0.0, -0.0, math.nan, math.inf])
def test_logistic_scale_must_be_finite_and_nonzero(scale):
    # at scale 0 every h_i and m_i is 0, so L_f = 0 and a run's Lyapunov
    # weight (1 - sigma)^2 / (320 L_f^2) would divide by zero
    with pytest.raises(CostError, match="finite nonzero"):
        generate_suite("logistic_log", n=3, d=2, seed=0, scale=scale)
    assert generate_suite("logistic_log", n=3, d=2, seed=0,
                          scale=-0.5).L_f > 0


def test_hessian_spectral_norms_below_stored_constant():
    # finite-difference Hessians certify the stored smoothness constant
    for kind in ("logistic_log", "quadratic_pl"):
        suite = generate_suite(kind, n=4, d=5, seed=51)
        rng = np.random.default_rng(53)
        eps = 1e-5
        for _ in range(40):
            i = int(rng.integers(4))
            x = rng.standard_normal(5) * rng.uniform(0.2, 2.0)
            H = np.zeros((5, 5))
            for j in range(5):
                e = np.zeros(5)
                e[j] = eps
                H[:, j] = (grad(suite, i, x + e) - grad(suite, i, x - e)) / (2 * eps)
            top = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (H + H.T)))))
            assert top <= suite.L_f * (1 + 1e-3)


def test_suite_json_regenerates_exactly():
    for kind, kw in [("logistic_log", {"scale": 0.4}),
                     ("quadratic_pl", {"rows": 3, "consistent": False})]:
        suite = generate_suite(kind, n=4, d=5, seed=61, **kw)
        back = suite_from_json(suite_to_json(suite))
        assert back.kind == suite.kind and back.L_f == suite.L_f
        x = np.linspace(-1, 1, 5)
        for i in range(4):
            assert eval_cost(back, i, x) == eval_cost(suite, i, x)


# z = +-0, the sign switch, where exp(-|z|) underflows (about 745) and beyond
_Z = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 36.8, -36.8, 745.2, -745.2,
     1e308, -1e308, np.inf, -np.inf, np.nan])


@settings(max_examples=60, deadline=None)
@given(z=hnp.arrays(np.float64, st.integers(0, 12), elements=_Z), x=_Z)
def test_sigmoid_equals_two_division_form(z, x):
    with np.errstate(all="ignore"):
        assert costs._sigmoid(z).tobytes() == sigmoid_two_div(z).tobytes()
        # cost_oracles.grad passes a Python float
        got, want = costs._sigmoid(x), sigmoid_two_div(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 9),
       seed=st.integers(0, 2**31), scale=st.sampled_from([0.1, 1.0, 1e3]))
def test_logistic_grad_all_equals_unfused_form(data, n, d, seed, scale):
    # the one-array gradient gives bitwise the two-product sum, also where
    # z = xi'x + nu is 0 or large and where ||x||^2 overflows
    suite = generate_suite("logistic_log", n, d, seed, scale=scale)
    X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(
        -1e200, 1e200) | st.sampled_from([0.0, -0.0, 1e-300, 1e160])))
    X[0] = 0.0
    suite.nu[0] = 0.0  # z = 0 at agent 0
    with np.errstate(all="ignore"):
        got = grad_all(suite, X)
        want = logistic_grad_all(suite, X)
    assert got.shape == (n, d) and got.tobytes() == want.tobytes()
