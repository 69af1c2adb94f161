"""Cost values, gradient oracles, smoothness estimates, reference solve."""

import math

import mpmath
import numpy as np
import pytest

from cgtsim import costs
from cgtsim.costs import (
    CostError,
    estimate_L,
    eval_cost,
    generate_suite,
    grad,
    grad_all,
    mean_grad,
    mean_value,
    solve_reference,
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
    ends = [costs._descend(suite, x0, tol, 10_000) for x0 in starts]
    best = min(range(len(ends)), key=lambda i: (ends[i][1], i))
    return ends[best], [f for _, f, _ in ends]


_QUAD_VARIANTS = [{}, {"consistent": False}, {"rows": 4},
                  {"rows": 4, "consistent": False}, {"normalize": False},
                  {"normalize": False, "consistent": False}]


@pytest.mark.parametrize("kw", _QUAD_VARIANTS)
def test_quadratic_reference_is_certified_least_squares(kw):
    suite = generate_suite("quadratic_pl", n=6, d=10, seed=5, **kw)
    (_, f_old, _), _ = _restart_descent_oracle(suite, 1e-9)
    for tol in (1e-9, 1e-11):
        ref = solve_reference(suite, tol=tol)
        assert ref.certified and ref.grad_norm <= tol
        assert ref.grad_norm == np.linalg.norm(mean_grad(suite, ref.x_star))
        assert ref.f_star == mean_value(suite, ref.x_star)
        assert ref.f_star <= f_old
        # restarts and seed do not apply to the quadratic family
        again = solve_reference(suite, tol=tol, restarts=3, seed=99)
        assert again.f_star == ref.f_star
        assert np.array_equal(again.x_star, ref.x_star)


def test_quadratic_reference_uses_extra_starts():
    suite = generate_suite("quadratic_pl", n=5, d=6, seed=8, consistent=False)
    extra = [np.full(6, 3.0), -np.ones(6)]
    ref = solve_reference(suite, tol=1e-9, extra_starts=extra)
    assert len(ref.restart_values) == 3
    for x0, f in zip(extra, ref.restart_values[1:]):
        assert f == costs._descend(suite, x0, 1e-9, 10_000)[1]
    assert ref.f_star == min(ref.restart_values)


def test_quadratic_reference_evaluation_count(monkeypatch):
    suite = generate_suite("quadratic_pl", n=20, d=30, seed=3, consistent=False)
    calls = {"n": 0}
    for name in ("mean_value", "mean_grad"):
        fn = getattr(costs, name)

        def counted(*args, _fn=fn, **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(costs, name, counted)
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
    from cgtsim.costs import CostSuite

    for kind, kw in [("logistic_log", {"scale": 0.4}),
                     ("quadratic_pl", {"rows": 3, "consistent": False})]:
        suite = generate_suite(kind, n=4, d=5, seed=61, **kw)
        back = CostSuite.from_json(suite.to_json())
        assert back.kind == suite.kind and back.L_f == suite.L_f
        x = np.linspace(-1, 1, 5)
        for i in range(4):
            assert eval_cost(back, i, x) == eval_cost(suite, i, x)
