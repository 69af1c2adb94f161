"""Local cost families, gradient oracles, and the centralized reference solve.

Two families:

* ``logistic_log`` -- smooth nonconvex per-agent costs
  h_i * sigmoid(xi_i' x + nu_i) + m_i * ln(1 + ||x||^2); instance scalars and
  xi entries are standard normal draws.
* ``quadratic_pl`` -- least squares 0.5 ||M_i x - b_i||^2 whose network
  average satisfies the gradient-dominance (PL) inequality with constant
  equal to the smallest nonzero eigenvalue of the mean Gram matrix.  Set-up
  builds all H_i = M_i'M_i with one batched matmul and makes one batched
  ``eigvalsh`` call: L_f is the largest lambda_max(H_i), and normalization
  divides each M_i by sqrt(lambda_max(H_i)) and H_i by lambda_max(H_i), which
  makes L_f = 1 exactly.  The suite keeps this Gram, with c_i = M_i'b_i from
  one more batched matmul on the stored factors, as ``CostSuite.gram``, and
  the eigenpairs of the mean Gram from one ``eigh`` call: nu_pl is the
  smallest of its nonzero eigenvalues.

The reference solve finds F* = min_x (1/n) sum_i F_i(x).  The logistic family
is nonconvex, so it takes the best of several gradient-descent restarts.  The
quadratic family is convex, so its global (minimum-norm) minimiser solves
Hbar x = cbar.  ``_quadratic_minimiser`` solves it with the mean Gram's
eigenpairs and refines it by one Newton step with the factor-form gradient
(iterative refinement of the normal equations); descent only certifies that
point (and polishes it if needed).  The starts descend in lock-step:
``mean_value`` and ``mean_grad`` also take a (B, d) stack of points, each row
bitwise its one-row call, and each iteration makes one stacked gradient call
and one stacked value call per backtracking round.  The last start left
finishes alone with one-row calls.

Runs evaluate costs through a ``RunCosts``: the stacked gradients of each
step, and the optimality gap and stationarity of each trace row.  Quadratics
are evaluated there in Gram form, H_i = M_i'M_i and c_i = M_i'b_i
(``CostSuite.gram``, n d^2 8-byte floats, kept from generation).  The trace
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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import _dots, _sums

KINDS = ("logistic_log", "quadratic_pl")

# sup |sigmoid''| over the real line
_SIGMOID_CURV = 1.0 / (6.0 * math.sqrt(3.0))
_EPS = np.finfo(np.float64).eps


class CostError(ValueError):
    pass


def _sigmoid(z):
    """Overflow-free logistic sigmoid."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class CostSuite:
    kind: str
    n: int
    d: int
    seed: int
    L_f: float = 0.0
    nu_pl: float | None = None
    # logistic_log parameters
    h: np.ndarray = field(default=None, repr=False)
    nu: np.ndarray = field(default=None, repr=False)
    m: np.ndarray = field(default=None, repr=False)
    xi: np.ndarray = field(default=None, repr=False)
    # quadratic_pl parameters
    M: np.ndarray = field(default=None, repr=False)
    b: np.ndarray = field(default=None, repr=False)
    gen_params: dict = field(default_factory=dict, repr=False)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, c, Hbar) of a quadratic suite: H_i = M_i'M_i, c_i = M_i'b_i
        and Hbar, the mean of the H_i.  ``generate_suite`` sets it from its
        own Gram; a suite built any other way builds it at first use.  It is
        kept, so M and b must not change after it."""
        Mt = self.M.transpose(0, 2, 1)
        H = np.matmul(Mt, self.M)
        return H, np.matmul(Mt, self.b[:, :, None])[:, :, 0], H.mean(axis=0)

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of Hbar, from one ``eigh``
        call; ``generate_suite`` makes it for nu_pl, and the reference solve
        reuses it."""
        return np.linalg.eigh(self.gram[2])


def generate_suite(kind: str, n: int, d: int, seed: int, *,
                   abs_m: bool = True, scale: float = 1.0,
                   rows: int | None = None, consistent: bool = True,
                   normalize: bool = True) -> CostSuite:
    """Draw a cost instance from a seed.

    ``scale`` multiplies the logistic instance's h_i and m_i, which scales the
    smoothness constant without changing the landscape shape.  Quadratic
    factors are spectrally normalized by default: each M_i is divided by
    sqrt(lambda_max(M_i'M_i)), with the eigenvalues of all agents' Grams from
    one batched ``eigvalsh``, so L_f = 1 exactly.  That Gram, divided by the
    same lambda_max(H_i), is kept as ``CostSuite.gram``, with c_i = M_i'b_i
    from one batched matmul on the stored factors.  nu_pl comes from
    ``CostSuite.gram_eigh``, which the reference solve reuses.
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
        suite = CostSuite(kind, n, d, seed, h=h, nu=nu, m=m, xi=xi,
                          gen_params={"abs_m": abs_m, "scale": scale})
        suite.L_f = _logistic_L(suite)
        return suite

    rows = d if rows is None else rows
    M = rng.standard_normal((n, rows, d))
    H = np.matmul(M.transpose(0, 2, 1), M)
    top = np.linalg.eigvalsh(H)[:, -1]  # lambda_max(H_i) = ||M_i||_2^2
    if normalize:  # M_i / sqrt(lambda_max): every top eigenvalue becomes 1
        M /= np.sqrt(top)[:, None, None]
        H /= top[:, None, None]
        top /= top
    if consistent:
        x_true = rng.standard_normal(d)
        b = np.einsum("nrd,d->nr", M, x_true)
    else:
        b = rng.standard_normal((n, rows))
    suite = CostSuite(kind, n, d, seed, M=M, b=b,
                      gen_params={"rows": rows, "consistent": consistent,
                                  "normalize": normalize})
    suite.L_f = float(top.max())
    c = np.matmul(M.transpose(0, 2, 1), b[:, :, None])[:, :, 0]
    suite.gram = (H, c, H.mean(axis=0))
    eigs = suite.gram_eigh[0]
    pos = eigs[eigs > 1e-9 * max(eigs[-1], 1.0)]
    suite.nu_pl = float(pos[0]) if len(pos) else None
    return suite


def _logistic_L(suite: CostSuite) -> float:
    """Per-agent smoothness upper bound |h| ||xi||^2 sup|s''| + 2 m."""
    xi_sq = np.einsum("ij,ij->i", suite.xi, suite.xi)
    per_agent = np.abs(suite.h) * xi_sq * _SIGMOID_CURV + 2.0 * np.abs(suite.m)
    return float(per_agent.max())


def grad_all(suite: CostSuite, X: np.ndarray) -> np.ndarray:
    """Stacked per-agent gradients: row i is grad F_i(X[i]); quadratics in
    Gram form."""
    if suite.kind == "logistic_log":
        z = np.einsum("ij,ij->i", suite.xi, X) + suite.nu
        s = _sigmoid(z)
        r2 = np.einsum("ij,ij->i", X, X)
        G = (suite.h * s * (1.0 - s))[:, None] * suite.xi
        G += (2.0 * suite.m / (1.0 + r2))[:, None] * X
        return G
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
    is ``f_star`` (the reference solve's x* and F*), or else at
    ``_quadratic_minimiser``, the reference solve's start.  Each row makes
    the BLAS calls of a single row (``Hbar @ e`` and dots), so a block of
    rows gives bitwise what recording row by row gives.
    """

    def __init__(self, suite: CostSuite, x_star: np.ndarray | None = None,
                 f_star: float = 0.0):
        self.suite, self.f_star = suite, f_star
        if suite.kind == "quadratic_pl":
            _, c, self.Hbar = suite.gram
            if x_star is None:
                self.r = _quadratic_minimiser(suite)
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


def mean_value(suite: CostSuite, x: np.ndarray):
    """F(x) = (1/n) sum_i F_i(x).  For a (B, d) stack of points it returns
    the (B,) values, each bitwise the value of its row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return _mean_values(suite, x)
    if suite.kind == "logistic_log":
        s = _sigmoid(suite.xi @ x + suite.nu)
        return float(suite.h @ s + suite.m.sum() * np.log1p(x @ x)) / suite.n
    resid = np.einsum("nrd,d->nr", suite.M, x) - suite.b
    return 0.5 * float((resid * resid).sum()) / suite.n


def mean_grad(suite: CostSuite, x: np.ndarray) -> np.ndarray:
    """grad F(x).  For a (B, d) stack of points it returns the (B, d)
    gradients, each bitwise the gradient of its row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return _mean_grads(suite, x)
    if suite.kind == "logistic_log":
        s = _sigmoid(suite.xi @ x + suite.nu)
        coef = suite.h * s * (1.0 - s)
        return (coef @ suite.xi
                + 2.0 * suite.m.sum() * x / (1.0 + x @ x)) / suite.n
    resid = np.einsum("nrd,d->nr", suite.M, x) - suite.b
    return np.einsum("nrd,nr->d", suite.M, resid) / suite.n


# The stacked forms.  Each stacked np.matmul makes the gemv or dot of one
# row's product, each einsum sums in the order of the one-row einsum, and the
# remaining operations are elementwise in the one-row order, so row b equals
# the one-row call bitwise.  At B = 1 they are slower than the one-row forms:
# at n = 20, d = 50 (2-core Xeon host) the value took 23 against 11 us and
# the gradient 27-29 against 17-22 us.

def _mean_values(suite: CostSuite, X: np.ndarray) -> np.ndarray:
    if suite.kind == "logistic_log":
        s = _sigmoid(np.matmul(suite.xi, X[:, :, None])[:, :, 0] + suite.nu)
        return (np.matmul(suite.h, s[:, :, None])[:, 0]
                + suite.m.sum() * np.log1p(_dots(X, X))) / suite.n
    resid = np.einsum("nrd,bd->bnr", suite.M, X) - suite.b
    return 0.5 * _sums(resid * resid) / suite.n


def _mean_grads(suite: CostSuite, X: np.ndarray) -> np.ndarray:
    if suite.kind == "logistic_log":
        s = _sigmoid(np.matmul(suite.xi, X[:, :, None])[:, :, 0] + suite.nu)
        coef = suite.h * s * (1.0 - s)
        return (np.matmul(coef[:, None, :], suite.xi)[:, 0]
                + 2.0 * suite.m.sum() * X / (1.0 + _dots(X, X))[:, None]
                ) / suite.n
    resid = np.einsum("nrd,bd->bnr", suite.M, X) - suite.b
    return np.einsum("nrd,bnr->bd", suite.M, resid) / suite.n


def _quadratic_minimiser(suite: CostSuite) -> np.ndarray:
    """Minimum-norm minimiser of a quadratic suite's F, the least-squares
    solution of the stacked system [M_1; ...; M_n] x = [b_1; ...; b_n].

    x0 = pinv(Hbar) cbar from the eigenpairs of Hbar, then one Newton step
    x0 - pinv(Hbar) grad F(x0) with the factor-form gradient, which removes
    the error of solving through the Gram (iterative refinement of the normal
    equations).  pinv inverts the eigenvalues above the round-off level
    d eps lambda_max: nu_pl's wider cutoff would drop real directions of an
    ill-conditioned Hbar.
    """
    lam, V = suite.gram_eigh
    k = np.searchsorted(lam, suite.d * _EPS * lam[-1], side="right")
    V, inv = V[:, k:], 1.0 / lam[k:]
    x = V @ (inv * (V.T @ suite.gram[1].mean(axis=0)))
    return x - V @ (inv * (V.T @ mean_grad(suite, x)))


@dataclass
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    certified: bool
    tol: float
    restart_values: list


def _descend(suite: CostSuite, starts: list, tol: float, max_iters: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient descent with Armijo backtracking on the averaged cost from
    each start; returns each start's endpoint, value and gradient norm.

    While two or more starts are active they step in lock-step: an iteration
    makes one stacked ``mean_grad`` call, then one stacked ``mean_value`` call
    per backtracking round over the starts still backtracking.  Each start
    keeps its own step, Armijo test, cap of 60 halvings and stop rule, so
    each endpoint is bitwise what descending from that start alone gives.
    The last active start continues alone in ``_descend_one``, where one-row
    calls are cheaper than stacked calls of one row.
    """
    X = np.array(starts, dtype=np.float64)
    F = mean_value(suite, X)
    GN = np.empty(len(X))
    step = np.full(len(X), 1.0 / max(suite.L_f, 1e-12))
    live = np.arange(len(X))
    k = 0
    while len(live) > 1 and k < max_iters:
        k += 1
        G = mean_grad(suite, X[live])
        gn = np.sqrt(_dots(G, G))
        done = gn <= tol
        GN[live[done]] = gn[done]
        go = ~done
        idx, g, gn = live[go], G[go], gn[go]
        x, f, t = X[idx], F[idx], step[idx]
        cand, fc = np.empty_like(x), np.empty(len(idx))
        todo = np.arange(len(idx))
        for _ in range(60):
            cand[todo] = x[todo] - t[todo, None] * g[todo]
            fc[todo] = mean_value(suite, cand[todo])
            todo = todo[~(fc[todo] <= f[todo] - 0.25 * t[todo] * gn[todo]
                          * gn[todo])]
            t[todo] *= 0.5
            if len(todo) == 0:
                break
        stuck = (fc >= f) & (t * gn * gn < 1e-30)
        GN[idx[stuck]] = gn[stuck]
        move = ~stuck
        X[idx[move]], F[idx[move]] = cand[move], fc[move]
        step[idx[move]] = np.minimum(t[move] * 2.0, 1e6)
        live = idx[move]
    if len(live) == 1:
        i = live[0]
        X[i], F[i], GN[i] = _descend_one(suite, X[i], F[i], step[i], tol,
                                         max_iters - k)
    elif len(live):
        G = mean_grad(suite, X[live])
        GN[live] = np.sqrt(_dots(G, G))
    return X, F, GN


def _descend_one(suite: CostSuite, x: np.ndarray, f: float, step: float,
                 tol: float, iters: int) -> tuple[np.ndarray, float, float]:
    """``iters`` more iterations of ``_descend`` from one start at x, with
    value f and first trial step ``step``."""
    for _ in range(iters):
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
    only from its global minimiser, solved from the suite's Gram and its
    eigenpairs with one Newton step (``_quadratic_minimiser``); descent checks
    that point's gradient norm and polishes it only if the norm exceeds
    ``tol``.  ``restarts`` and ``seed`` do not apply to ``quadratic_pl``.

    Returns the lowest endpoint, the first start's that is strictly lower
    than every earlier one, so a NaN wins only as the first start;
    ``certified`` reports whether its gradient norm met ``tol``.
    ``extra_starts`` lets callers re-seed from points that beat a previous
    solution; they follow the starts above in ``restart_values``.  All starts
    descend together (see ``_descend``), each to the endpoint it reaches
    alone.
    """
    if tol <= 0:
        raise CostError("tol must be positive")
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
    X, F, GN = _descend(suite, starts, tol, max_iters)
    best = 0  # the first start strictly lower than every earlier one
    for i in range(1, len(F)):
        if F[i] < F[best]:
            best = i
    gn = float(GN[best])
    return ReferenceSolution(x_star=X[best].copy(), f_star=float(F[best]),
                             grad_norm=gn, certified=gn <= tol, tol=tol,
                             restart_values=F.tolist())
