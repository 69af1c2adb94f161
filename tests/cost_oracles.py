"""Per-agent cost oracles for the tests of ``cgtsim.costs``.

The simulator evaluates costs in batches (``costs.grad_all``,
``costs.RunCosts``, ``costs.mean_value``); these helpers evaluate one agent's
value and gradient (``eval_cost``, ``grad``), sample a Lipschitz ratio, and
regenerate a suite from its seed and generation parameters, so tests can
check the batched code against them.
``sigmoid_two_div`` and ``logistic_grad_all`` are the sigmoid and the
logistic stacked gradient as plain expressions, the bitwise reference for
the shipped forms with one division and fewer temporaries.  ``descend`` and
``solve_reference_per_start`` are the reference solve with one descent and
Newton finish per start, run one start after another: the bitwise reference
for the lock-step descent of ``costs.solve_reference``.  ``least_squares``
is the quadratic minimiser by SVD of the stacked factors, the reference for
the Gram-based ``costs._quadratic_minimiser``.
"""

import json

import numpy as np

from cgtsim.costs import (
    _NEWTON_STEPS,
    CostError,
    CostSuite,
    ReferenceSolution,
    _quadratic_minimiser,
    _sigmoid,
    generate_suite,
    mean_grad,
    mean_hessian,
    mean_value,
)


def sigmoid_two_div(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_grad_all(suite: CostSuite, X: np.ndarray) -> np.ndarray:
    z = np.einsum("ij,ij->i", suite.xi, X) + suite.nu
    s = sigmoid_two_div(z)
    r2 = np.einsum("ij,ij->i", X, X)
    return ((suite.h * s * (1.0 - s))[:, None] * suite.xi
            + (2.0 * suite.m / (1.0 + r2))[:, None] * X)


def least_squares(suite: CostSuite) -> np.ndarray:
    """Minimum-norm least-squares solution of the stacked system
    [M_1; ...; M_n] x = [b_1; ...; b_n], by SVD."""
    return np.linalg.lstsq(suite.M.reshape(-1, suite.d), suite.b.reshape(-1),
                           rcond=None)[0]


def descend(suite: CostSuite, x0: np.ndarray, tol: float,
            max_iters: int) -> tuple[np.ndarray, float, float]:
    """Gradient descent with Armijo backtracking on the averaged cost from
    one start.  It stops at a gradient norm of at most ``tol`` or at a line
    search that finds no decrease; a stop above ``tol`` is followed by up to
    ``_NEWTON_STEPS`` Newton steps, each kept only if it lowers the gradient
    norm."""
    x = x0.copy()
    f = mean_value(suite, x)
    step = 1.0 / max(suite.L_f, 1e-12)
    for _ in range(max_iters):
        g = mean_grad(suite, x)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            break
        t = step
        for _ in range(60):
            cand = x - t * g
            fc = mean_value(suite, cand)
            if fc <= f - 0.25 * t * gn * gn:
                break
            t *= 0.5
        if fc >= f:
            break
        x, f = cand, fc
        step = min(t * 2.0, 1e6)
    g = mean_grad(suite, x)
    gn = float(np.linalg.norm(g))
    for _ in range(_NEWTON_STEPS if gn > tol else 0):
        try:
            cand = x - np.linalg.solve(mean_hessian(suite, x), g)
        except np.linalg.LinAlgError:
            break
        g_cand = mean_grad(suite, cand)
        if not np.linalg.norm(g_cand) < gn:
            break
        x, g, gn = cand, g_cand, float(np.linalg.norm(g_cand))
    return x, mean_value(suite, x), gn


def solve_reference_per_start(suite: CostSuite, tol: float, *,
                              restarts: int = 16, seed: int = 0,
                              max_iters: int = 10_000,
                              extra_starts: list | None = None
                              ) -> ReferenceSolution:
    """``costs.solve_reference`` with ``descend`` run from each start in
    turn, keeping the first start strictly lower than every earlier one."""
    if suite.kind == "quadratic_pl":
        starts = [_quadratic_minimiser(suite)]
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([suite.seed, seed, 0xF5]))
        starts = [np.zeros(suite.d)]
        starts += [rng.standard_normal(suite.d) * s for s in
                   np.linspace(0.3, 3.0, restarts - 1)]
    if extra_starts:
        starts += [np.asarray(s, dtype=np.float64) for s in extra_starts]
    best = None
    values = []
    for x0 in starts:
        x, f, gn = descend(suite, x0, tol, max_iters)
        values.append(f)
        if best is None or f < best[1]:
            best = (x, f, gn)
    x, f, gn = best
    return ReferenceSolution(x_star=x, f_star=f, grad_norm=gn,
                             certified=gn <= tol, tol=tol,
                             restart_values=values)


def grad(suite: CostSuite, agent: int, x: np.ndarray) -> np.ndarray:
    """grad F_i(x) of one agent."""
    x = np.asarray(x, dtype=np.float64)
    if suite.kind == "logistic_log":
        s = _sigmoid(float(suite.xi[agent] @ x + suite.nu[agent]))
        return (suite.h[agent] * s * (1.0 - s) * suite.xi[agent]
                + 2.0 * suite.m[agent] * x / (1.0 + x @ x))
    return suite.M[agent].T @ (suite.M[agent] @ x - suite.b[agent])


def eval_cost(suite: CostSuite, agent: int, x: np.ndarray) -> float:
    """F_i(x) of one agent."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise CostError("eval input has non-finite entries")
    if suite.kind == "logistic_log":
        z = float(suite.xi[agent] @ x + suite.nu[agent])
        return float(suite.h[agent] * _sigmoid(z)
                     + suite.m[agent] * np.log1p(x @ x))
    resid = suite.M[agent] @ x - suite.b[agent]
    return 0.5 * float(resid @ resid)


def estimate_L(suite: CostSuite, samples: int, rng) -> float:
    """Sampled Lipschitz ratio max, inflated by 1.5; exact for quadratics."""
    if samples < 10:
        raise CostError("need at least 10 samples")
    if suite.kind == "quadratic_pl":
        return suite.L_f  # analytic: max_i ||M_i' M_i||_2
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    best = 0.0
    for _ in range(samples):
        i = int(rng.integers(suite.n))
        x = rng.standard_normal(suite.d) * rng.uniform(0.1, 3.0)
        y = x + rng.standard_normal(suite.d) * rng.uniform(1e-3, 1.0)
        gap = np.linalg.norm(grad(suite, i, x) - grad(suite, i, y))
        dist = np.linalg.norm(x - y)
        if dist > 0:
            best = max(best, gap / dist)
    return 1.5 * best


def suite_to_json(suite: CostSuite, options: dict) -> str:
    """Seed plus ``options``, the keywords ``generate_suite`` drew it with;
    enough to regenerate exactly."""
    doc = {"kind": suite.kind, "n": suite.n, "d": suite.d, "seed": suite.seed}
    doc.update(options)
    return json.dumps(doc, sort_keys=True)


def suite_from_json(text: str) -> CostSuite:
    doc = json.loads(text)
    return generate_suite(doc.pop("kind"), doc.pop("n"), doc.pop("d"),
                          doc.pop("seed"), **doc)
