"""Local cost families, gradient oracles, and the centralized reference solve.

Two families:

* ``logistic_log`` -- smooth nonconvex per-agent costs
  h_i * sigmoid(xi_i' x + nu_i) + m_i * ln(1 + ||x||^2); instance scalars and
  xi entries are standard normal draws.
* ``quadratic_pl`` -- least squares 0.5 ||M_i x - b_i||^2 whose network
  average satisfies the gradient-dominance (PL) inequality with constant
  equal to the smallest nonzero eigenvalue of the mean Gram matrix.

The reference solve finds F* = min_x (1/n) sum_i F_i(x).  The logistic family
is nonconvex, so it takes the best of several gradient-descent restarts.  The
quadratic family is convex, so its global minimiser is the stacked
least-squares solution, which descent only certifies (and polishes if needed).

Runs evaluate costs through a ``RunCosts``: the stacked gradients of each
step, and the optimality gap and stationarity of each trace row.  Quadratics
are evaluated there in Gram form, H_i = M_i'M_i and c_i = M_i'b_i
(``CostSuite.gram``, n d^2 8-byte floats, built by matmul at first use, which
in a run comes after ``lstsq`` has freed its copy of the factors).  The trace
terms at an agent mean x are anchored at a minimiser r: with e = x - r,

    n (F(x) - F*) = n (e'Hbar e / 2 + grad F(r)'e) + n (F(r) - F*)
    grad F(x)     = Hbar e + grad F(r)

and the last term is 0 at r = x*, so the gap does not cancel n F* near the
optimum.  A Gram gradient takes d^2 multiply-adds an agent against 2 r d with
r factor rows; at n = d = 100 (2-core Xeon host) it took 494 us at any r
against 1389 us (r = 100), 723 us (r = 50) and 105 us (r = 10) for the
factors, which are faster below about r = d/3.  Shipped configs use r = d.
The reference solve and the per-agent and mean evaluations keep the factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import _dots

KINDS = ("logistic_log", "quadratic_pl")

# sup |sigmoid''| over the real line
_SIGMOID_CURV = 1.0 / (6.0 * math.sqrt(3.0))


class CostError(ValueError):
    pass


def _sigmoid(z):
    """Overflow-free logistic sigmoid."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class CostSuite:
    kind: str
    n: int
    d: int
    seed: int
    L_f: float = 0.0
    nu_pl: float | None = None
    abs_m: bool = True
    scale: float = 1.0
    # logistic_log parameters
    h: np.ndarray = field(default=None, repr=False)
    nu: np.ndarray = field(default=None, repr=False)
    m: np.ndarray = field(default=None, repr=False)
    xi: np.ndarray = field(default=None, repr=False)
    # quadratic_pl parameters
    M: np.ndarray = field(default=None, repr=False)
    b: np.ndarray = field(default=None, repr=False)
    gen_params: dict = field(default_factory=dict, repr=False)

    def to_json(self) -> str:
        """Seed plus generation parameters; enough to regenerate exactly."""
        doc = {"kind": self.kind, "n": self.n, "d": self.d, "seed": self.seed}
        doc.update(self.gen_params)
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CostSuite":
        doc = json.loads(text)
        return generate_suite(doc.pop("kind"), doc.pop("n"), doc.pop("d"),
                              doc.pop("seed"), **doc)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, c, Hbar) of a quadratic suite: H_i = M_i'M_i, c_i = M_i'b_i
        and Hbar, the mean of the H_i.  Built at first use and kept, so M and
        b must not change after it."""
        Mt = self.M.transpose(0, 2, 1)
        H = np.matmul(Mt, self.M)
        return H, np.matmul(Mt, self.b[:, :, None])[:, :, 0], H.mean(axis=0)


def generate_suite(kind: str, n: int, d: int, seed: int, *,
                   abs_m: bool = True, scale: float = 1.0,
                   rows: int | None = None, consistent: bool = True,
                   normalize: bool = True) -> CostSuite:
    """Draw a cost instance from a seed.

    ``scale`` multiplies the logistic instance's h_i and m_i, which scales the
    smoothness constant without changing the landscape shape.  Quadratic
    factors are spectrally normalized by default so L_f = 1 exactly.
    """
    if kind not in KINDS:
        raise CostError(f"unknown cost kind {kind!r}")
    if n < 1 or d < 1:
        raise CostError("n and d must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC057]))
    if kind == "logistic_log":
        h = scale * rng.standard_normal(n)
        nu = rng.standard_normal(n)
        m = scale * rng.standard_normal(n)
        if abs_m:
            m = np.abs(m)  # keeps the log term coercive and bounded below
        xi = rng.standard_normal((n, d))
        suite = CostSuite(kind, n, d, seed, abs_m=abs_m, scale=scale,
                          h=h, nu=nu, m=m, xi=xi,
                          gen_params={"abs_m": abs_m, "scale": scale})
        suite.L_f = _logistic_L(suite)
        return suite

    rows = d if rows is None else rows
    M = rng.standard_normal((n, rows, d))
    if normalize:
        for i in range(n):
            s = np.linalg.svd(M[i], compute_uv=False)[0]
            M[i] /= s
    if consistent:
        x_true = rng.standard_normal(d)
        b = np.einsum("nrd,d->nr", M, x_true)
    else:
        b = rng.standard_normal((n, rows))
    suite = CostSuite(kind, n, d, seed, abs_m=abs_m, scale=scale, M=M, b=b,
                      gen_params={"rows": rows, "consistent": consistent,
                                  "normalize": normalize})
    grams = np.einsum("nrd,nre->nde", M, M)
    suite.L_f = float(max(np.linalg.eigvalsh(g)[-1] for g in grams))
    mean_gram = grams.mean(axis=0)
    eigs = np.linalg.eigvalsh(mean_gram)
    pos = eigs[eigs > 1e-9 * max(eigs[-1], 1.0)]
    suite.nu_pl = float(pos[0]) if len(pos) else None
    return suite


def _logistic_L(suite: CostSuite) -> float:
    """Per-agent smoothness upper bound |h| ||xi||^2 sup|s''| + 2 m."""
    xi_sq = np.einsum("ij,ij->i", suite.xi, suite.xi)
    per_agent = np.abs(suite.h) * xi_sq * _SIGMOID_CURV + 2.0 * np.abs(suite.m)
    return float(per_agent.max())


def eval_cost(suite: CostSuite, agent: int, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise CostError("eval input has non-finite entries")
    if suite.kind == "logistic_log":
        z = float(suite.xi[agent] @ x + suite.nu[agent])
        return float(suite.h[agent] * _sigmoid(z)
                     + suite.m[agent] * np.log1p(x @ x))
    resid = suite.M[agent] @ x - suite.b[agent]
    return 0.5 * float(resid @ resid)


def grad(suite: CostSuite, agent: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if suite.kind == "logistic_log":
        s = _sigmoid(float(suite.xi[agent] @ x + suite.nu[agent]))
        return (suite.h[agent] * s * (1.0 - s) * suite.xi[agent]
                + 2.0 * suite.m[agent] * x / (1.0 + x @ x))
    return suite.M[agent].T @ (suite.M[agent] @ x - suite.b[agent])


def grad_all(suite: CostSuite, X: np.ndarray) -> np.ndarray:
    """Stacked per-agent gradients: row i is grad F_i(X[i]); quadratics in
    Gram form."""
    if suite.kind == "logistic_log":
        z = np.einsum("ij,ij->i", suite.xi, X) + suite.nu
        s = _sigmoid(z)
        r2 = np.einsum("ij,ij->i", X, X)
        return ((suite.h * s * (1.0 - s))[:, None] * suite.xi
                + (2.0 * suite.m / (1.0 + r2))[:, None] * X)
    H, c, _ = suite.gram
    return np.matmul(H, X[:, :, None])[:, :, 0] - c


# Runs reach grad_all through this name, so that wrapping the public name
# (perfbench's traced mode does) times calls from outside a run, not each step.
_grad_all = grad_all


class RunCosts:
    """Cost evaluation of one run: stacked gradients for the steps, and the
    optimality gap n (F(x) - f_star) and stationarity n ||grad F(x)||^2 at
    the agent means x of the trace rows.

    Quadratic trace terms are anchored at ``x_star``, the point whose value
    is ``f_star`` (the reference solve's x* and F*), or else at the
    least-squares minimiser solved here.  Each row makes the BLAS calls of a
    single row (``Hbar @ e`` and dots), so a block of rows gives bitwise
    what recording row by row gives.
    """

    def __init__(self, suite: CostSuite, x_star: np.ndarray | None = None,
                 f_star: float = 0.0):
        self.suite, self.f_star = suite, f_star
        if suite.kind == "quadratic_pl":
            _, c, self.Hbar = suite.gram
            if x_star is None:
                self.r = _least_squares(suite)
                self.offset = suite.n * (mean_value(suite, self.r) - f_star)
            else:
                self.r = np.asarray(x_star, dtype=np.float64)
                self.offset = 0.0
            self.g_r = self.Hbar @ self.r - c.mean(axis=0)

    def grad(self, X: np.ndarray) -> np.ndarray:
        return _grad_all(self.suite, X)

    def trace_terms(self, xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gap, stationarity) for each row of a (b, d) array of means."""
        su, n = self.suite, self.suite.n
        if su.kind == "logistic_log":
            s = _sigmoid(np.matmul(su.xi, xbar[:, :, None])[:, :, 0] + su.nu)
            xx = _dots(xbar, xbar)
            msum = su.m.sum()
            vsum = np.matmul(su.h, s[:, :, None])[:, 0] + msum * np.log1p(xx)
            coef = su.h * s * (1.0 - s)
            gsum = (np.matmul(coef[:, None, :], su.xi)[:, 0]
                    + (2.0 * msum / (1.0 + xx))[:, None] * xbar)
            return vsum - n * self.f_star, _dots(gsum, gsum) / n
        E = xbar - self.r
        HE = np.matmul(self.Hbar, E[:, :, None])[:, :, 0]
        gap = n * (0.5 * _dots(E, HE)
                   + _dots(E, np.broadcast_to(self.g_r, E.shape)))
        g = HE + self.g_r
        return gap + self.offset, n * _dots(g, g)


def mean_value(suite: CostSuite, x: np.ndarray) -> float:
    """F(x) = (1/n) sum_i F_i(x)."""
    x = np.asarray(x, dtype=np.float64)
    if suite.kind == "logistic_log":
        s = _sigmoid(suite.xi @ x + suite.nu)
        return float(suite.h @ s + suite.m.sum() * np.log1p(x @ x)) / suite.n
    resid = np.einsum("nrd,d->nr", suite.M, x) - suite.b
    return 0.5 * float((resid * resid).sum()) / suite.n


def mean_grad(suite: CostSuite, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if suite.kind == "logistic_log":
        s = _sigmoid(suite.xi @ x + suite.nu)
        coef = suite.h * s * (1.0 - s)
        return (coef @ suite.xi
                + 2.0 * suite.m.sum() * x / (1.0 + x @ x)) / suite.n
    resid = np.einsum("nrd,d->nr", suite.M, x) - suite.b
    return np.einsum("nrd,nr->d", suite.M, resid) / suite.n


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


def _least_squares(suite: CostSuite) -> np.ndarray:
    """Minimiser of a quadratic suite's F: the least-squares solution of the
    stacked system [M_1; ...; M_n] x = [b_1; ...; b_n]."""
    return np.linalg.lstsq(suite.M.reshape(-1, suite.d), suite.b.reshape(-1),
                           rcond=None)[0]


@dataclass
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    certified: bool
    tol: float
    restart_values: list


def _descend(suite: CostSuite, x0: np.ndarray, tol: float,
             max_iters: int) -> tuple[np.ndarray, float, float]:
    """Gradient descent with Armijo backtracking on the averaged cost."""
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
        if fc >= f and t * gn * gn < 1e-30:
            break
        x, f = cand, fc
        step = min(t * 2.0, 1e6)
    return x, f, float(np.linalg.norm(mean_grad(suite, x)))


def solve_reference(suite: CostSuite, tol: float = 1e-9, *, restarts: int = 16,
                    seed: int = 0, max_iters: int = 10_000,
                    extra_starts: list | None = None) -> ReferenceSolution:
    """Best stationary value of F over gradient-descent runs from several starts.

    ``logistic_log`` descends from the origin and ``restarts - 1`` random
    points drawn from ``seed``.  ``quadratic_pl`` is convex, so it descends
    only from its global minimiser in closed form, the least-squares solution
    of the stacked system [M_1; ...; M_n] x = [b_1; ...; b_n]; descent checks
    that point's gradient norm and polishes it only if the norm exceeds
    ``tol``.  ``restarts`` and ``seed`` do not apply to ``quadratic_pl``.

    Returns the lowest endpoint; ``certified`` reports whether its gradient
    norm met ``tol``.  ``extra_starts`` lets callers re-seed from points that
    beat a previous solution; they follow the starts above in
    ``restart_values``.
    """
    if tol <= 0:
        raise CostError("tol must be positive")
    if suite.kind == "quadratic_pl":
        starts = [_least_squares(suite)]
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
        x, f, gn = _descend(suite, x0, tol, max_iters)
        values.append(f)
        if best is None or f < best[1]:
            best = (x, f, gn)
    x, f, gn = best
    return ReferenceSolution(x_star=x, f_star=f, grad_norm=gn,
                             certified=gn <= tol, tol=tol,
                             restart_values=values)
