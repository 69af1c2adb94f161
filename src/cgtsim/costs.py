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
``mean_value`` and ``mean_grad`` take a (B, d) stack of points, each row
bitwise its one-row call (a stack of one), and each iteration makes one
stacked gradient call and one stacked value call per backtracking round.  A
start stops at the tolerance or at the first step whose line search finds no
decrease; one that stopped above the tolerance gets a few Newton steps with
the exact Hessian of F (``mean_hessian``).

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

KINDS = ("logistic_log", "quadratic_pl")

# sup |sigmoid''| over the real line
_SIGMOID_CURV = 1.0 / (6.0 * math.sqrt(3.0))
_EPS = np.finfo(np.float64).eps
# the most Newton steps of the reference solve's finish (see ``_descend``)
_NEWTON_STEPS = 5


class CostError(ValueError):
    pass


def _sigmoid(z):
    """Overflow-free logistic sigmoid."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# Batched helpers over leading row axes.  Each batched np.matmul makes the
# same BLAS call per row as the unbatched dot (a @ b, np.linalg.norm's), and
# each reduction sums in the same order, so each row gets bitwise what its
# own one-row call gives; the stacked evaluations here and the run recorder
# (``algorithms``) rely on it.  A pairwise sum in place of the dot, or one
# gemm over stacked rows, would not.

def _dots(A, B):
    """Row-wise dot products of two (..., m) arrays."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def _norms(A, lead=1):
    """np.linalg.norm over all but the first ``lead`` axes of A."""
    F = A.reshape(A.shape[:lead] + (-1,))
    return np.sqrt(_dots(F, F))


def _sums(A, lead=1):
    """.sum() over all but the first ``lead`` axes of A."""
    return np.add.reduce(A.reshape(A.shape[:lead] + (-1,)), -1)


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
        if not (math.isfinite(scale) and scale != 0):
            raise CostError("scale must be a finite nonzero number; L_f is 0 "
                            "at scale 0")
        with np.errstate(over="ignore"):  # an L_f that overflows is refused
            h = scale * rng.standard_normal(n)
            nu = rng.standard_normal(n)
            m = scale * rng.standard_normal(n)
        if abs_m:
            m = np.abs(m)  # keeps the log term coercive and bounded below
        xi = rng.standard_normal((n, d))
        suite = CostSuite(kind, n, d, seed, h=h, nu=nu, m=m, xi=xi)
        with np.errstate(over="ignore"):
            suite.L_f = L = _logistic_L(suite)
        # phi divides by 320 L_f^2: L_f^2 must be normal, 320 L_f^2 finite
        if L * L < np.finfo(float).tiny or not math.isfinite(320.0 * L * L):
            raise CostError(f"scale {scale} gives L_f = {L}; phi needs an "
                            "L_f^2 of at least the smallest normal float and "
                            "a finite 320 L_f^2")
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
    suite = CostSuite(kind, n, d, seed, M=M, b=b)
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


# Each stacked np.matmul makes the gemv or dot of one row's product, each
# einsum sums in the order of a stack of one, and the rest is elementwise, so
# row b of a stack is bitwise the call on that row alone (a 1-D point).

def mean_value(suite: CostSuite, x: np.ndarray):
    """F(x) = (1/n) sum_i F_i(x).  For a (B, d) stack of points it returns
    the (B,) values, each bitwise the value of its row alone."""
    x = np.asarray(x, dtype=np.float64)
    X = x.reshape(-1, suite.d)
    if suite.kind == "logistic_log":
        s = _sigmoid(np.matmul(suite.xi, X[:, :, None])[:, :, 0] + suite.nu)
        v = (np.matmul(suite.h, s[:, :, None])[:, 0]
             + suite.m.sum() * np.log1p(_dots(X, X))) / suite.n
    else:
        resid = np.einsum("nrd,bd->bnr", suite.M, X) - suite.b
        v = 0.5 * _sums(resid * resid) / suite.n
    return v if x.ndim == 2 else float(v[0])


def mean_grad(suite: CostSuite, x: np.ndarray) -> np.ndarray:
    """grad F(x).  For a (B, d) stack of points it returns the (B, d)
    gradients, each bitwise the gradient of its row alone."""
    x = np.asarray(x, dtype=np.float64)
    X = x.reshape(-1, suite.d)
    if suite.kind == "logistic_log":
        s = _sigmoid(np.matmul(suite.xi, X[:, :, None])[:, :, 0] + suite.nu)
        coef = suite.h * s * (1.0 - s)
        G = (np.matmul(coef[:, None, :], suite.xi)[:, 0]
             + 2.0 * suite.m.sum() * X / (1.0 + _dots(X, X))[:, None]
             ) / suite.n
    else:
        resid = np.einsum("nrd,bd->bnr", suite.M, X) - suite.b
        G = np.einsum("nrd,bnr->bd", suite.M, resid) / suite.n
    return G.reshape(x.shape)


def mean_hessian(suite: CostSuite, x: np.ndarray) -> np.ndarray:
    """The d x d Hessian of F at x: Hbar for quadratics, and for the
    logistic family (1/n) [sum_i h_i s_i (1 - s_i) (1 - 2 s_i) xi_i xi_i'
    + sum_i m_i (2 I / q - 4 x x' / q^2)], s_i = sigmoid(z_i), q = 1 + x'x."""
    if suite.kind == "quadratic_pl":
        return suite.gram[2].copy()
    x = np.asarray(x, dtype=np.float64)
    s = _sigmoid(suite.xi @ x + suite.nu)
    w = suite.h * s * (1.0 - s) * (1.0 - 2.0 * s)
    q = 1.0 + x @ x
    msum = suite.m.sum()
    H = (suite.xi.T * w) @ suite.xi - (4.0 * msum / (q * q)) * np.outer(x, x)
    H[np.diag_indices(suite.d)] += 2.0 * msum / q
    return H / suite.n


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
    each start, then a Newton finish; returns each start's endpoint, value
    and gradient norm.

    The starts step in lock-step: an iteration makes one stacked
    ``mean_grad`` call, then one stacked ``mean_value`` call per
    backtracking round over the starts still backtracking.  Each start keeps
    its own step, Armijo test, cap of 60 halvings and stop rule, so each
    endpoint is bitwise what descending from that start alone gives.  A
    start stops at a gradient norm of at most ``tol``, or at a line search
    that finds no decrease (near a minimum the Armijo test cannot see one
    below eps |F|).  A start that stopped above ``tol`` then takes up to
    ``_NEWTON_STEPS`` Newton steps with the exact Hessian (``mean_hessian``),
    each kept only if it lowers the gradient norm; the first that does not,
    or a singular Hessian, ends the finish.  A finish starts from the
    start's row of the last stacked gradient, bitwise its one-row gradient.

    Starts descend to ``tol`` before the finish to keep the reference values
    bitwise, not for speed.  Measured on logistic seeds 0-63 (n=20, d=50,
    tol 1e-9; 2-core host, best of 5): stopping the descent at 1e-2, 1e-3,
    1e-4 or 1e-6 and leaving the rest to the finish made 48-60% fewer value
    calls and 24-32% more Newton steps, took 0.69-0.82 s against 0.92-0.93 s,
    and certified all 64 either way.  Its endpoints differ, though: at the
    paper scenario's cost seed 202 f_star moves by one ulp, and every
    trace's gap with it.
    """
    X = np.array(starts, dtype=np.float64)
    F = mean_value(suite, X)
    G, GN = np.empty_like(X), np.empty(len(X))
    step = np.full(len(X), 1.0 / max(suite.L_f, 1e-12))
    live, k = np.arange(len(X)), 0
    while len(live) and k < max_iters:
        k += 1
        G[live] = mean_grad(suite, X[live])
        GN[live] = _norms(G[live])
        live = live[~(GN[live] <= tol)]
        if len(live) == 0:
            break
        x, g, f, t, gn = X[live], G[live], F[live], step[live], GN[live]
        cand, fc = np.empty_like(x), np.empty(len(live))
        todo = np.arange(len(live))
        for _ in range(60):
            cand[todo] = x[todo] - t[todo, None] * g[todo]
            fc[todo] = mean_value(suite, cand[todo])
            todo = todo[~(fc[todo] <= f[todo] - 0.25 * t[todo] * gn[todo]
                          * gn[todo])]
            t[todo] *= 0.5
            if len(todo) == 0:
                break
        move = ~(fc >= f)
        live = live[move]
        X[live], F[live] = cand[move], fc[move]
        step[live] = np.minimum(t[move] * 2.0, 1e6)
    if len(live):
        G[live] = mean_grad(suite, X[live])
        GN[live] = _norms(G[live])
    for i in np.flatnonzero(GN > tol):
        x, g, gn = X[i], G[i], GN[i]
        for _ in range(_NEWTON_STEPS):
            try:
                cand = x - np.linalg.solve(mean_hessian(suite, x), g)
            except np.linalg.LinAlgError:
                break
            gc = mean_grad(suite, cand)
            gnc = np.linalg.norm(gc)
            if not gnc < gn:
                break
            x, g, gn = cand, gc, gnc
        if gn < GN[i]:  # a step was kept
            X[i], F[i], GN[i] = x, mean_value(suite, x), gn
    return X, F, GN


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
