"""Per-agent cost oracles for the tests of ``cgtsim.costs``.

The simulator evaluates costs in batches (``costs.grad_all``,
``costs.RunCosts``, ``costs.mean_value``); these helpers evaluate one agent's
value, sample a Lipschitz ratio, and regenerate a suite from its seed and
generation parameters, so tests can check the batched code against them.
``sigmoid_two_div`` and ``logistic_grad_all`` are the sigmoid and the
logistic stacked gradient as plain expressions, the bitwise reference for
the shipped forms with one division and fewer temporaries.
"""

import json

import numpy as np

from cgtsim.costs import CostError, CostSuite, _sigmoid, generate_suite, grad


def sigmoid_two_div(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_grad_all(suite: CostSuite, X: np.ndarray) -> np.ndarray:
    z = np.einsum("ij,ij->i", suite.xi, X) + suite.nu
    s = sigmoid_two_div(z)
    r2 = np.einsum("ij,ij->i", X, X)
    return ((suite.h * s * (1.0 - s))[:, None] * suite.xi
            + (2.0 * suite.m / (1.0 + r2))[:, None] * X)


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


def suite_to_json(suite: CostSuite) -> str:
    """Seed plus generation parameters; enough to regenerate exactly."""
    doc = {"kind": suite.kind, "n": suite.n, "d": suite.d, "seed": suite.seed}
    doc.update(suite.gen_params)
    return json.dumps(doc, sort_keys=True)


def suite_from_json(text: str) -> CostSuite:
    doc = json.loads(text)
    return generate_suite(doc.pop("kind"), doc.pop("n"), doc.pop("d"),
                          doc.pop("seed"), **doc)
