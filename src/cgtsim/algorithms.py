"""Synchronous runs of the compressed trackers and the exact baseline.

All four methods share the same skeleton per tick: consume the stored
compressed messages for the auxiliary and x/y updates, evaluate fresh
gradients, then produce the next round of compressed messages.  Agents are
updated from the same snapshot, so results are independent of agent order.
Only compressed quantities enter mixing products: the update rules multiply W
exclusively against messages or against reference states reconstructed from
messages, never against raw neighbour states (the baseline excepted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .compressors import CompressorSpec
from .costs import CostSuite, RunCosts
from .graph import Network

ALGORITHMS = ("alg1", "alg2", "alg3", "dgt")

# messages broadcast per agent per iteration
MESSAGES_PER_AGENT = {"alg1": 2, "alg2": 4, "alg3": 2, "dgt": 2}

DIAG_NAMES = (
    "mean_x_recursion",      # || mean X(k+1) - (mean X(k) - eta mean Y(k)) ||
    "mean_y_tracking",       # || mean Y - mean grad || / (1 + || mean grad ||)
    "struct_x",              # accumulator identity residual, x side
    "struct_y",              # accumulator identity residual, y side
    "induction_x",           # max_i ||X_i(k) - Xhat_i(k-1)||_p / s(k)
    "induction_y",
    "compression_ratio",     # max_i ||X_i(k) - Xhat_i(k)||_p / s(k)
    "reserved",
)


class AlgorithmError(ValueError):
    pass


@dataclass(frozen=True)
class AlgorithmParams:
    """Step sizes and gains: eta (gradient step), gamma (consensus gain),
    phi_x/phi_y (message mixing into the reference accumulators),
    varsigma (error-feedback retention), s0/mu (geometric message scaling)."""

    eta: float
    gamma: float
    phi_x: float = 1.0
    phi_y: float = 1.0
    varsigma: float = 0.0
    s0: float = 1.0
    mu: float = 0.98

    def validate(self, algo: str) -> None:
        if self.eta <= 0 or self.gamma <= 0:
            raise AlgorithmError("eta and gamma must be positive")
        if self.gamma >= 1:
            raise AlgorithmError("gamma must stay below 1 for contraction")
        if algo in ("alg1", "alg2") and (self.phi_x <= 0 or self.phi_y <= 0):
            raise AlgorithmError("phi_x and phi_y must be positive")
        if algo == "alg2" and self.varsigma < 0:
            raise AlgorithmError("varsigma must be nonnegative")
        if algo == "alg3":
            if self.s0 <= 0:
                raise AlgorithmError("s0 must be positive")
            if not 0.0 < self.mu < 1.0:
                raise AlgorithmError("mu must lie in (0, 1)")


@dataclass
class StackedState:
    """Final per-agent vectors, stacked row-wise (agent i is row i)."""

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray = None
    b: np.ndarray = None
    c: np.ndarray = None
    dd: np.ndarray = None
    ex: np.ndarray = None
    ey: np.ndarray = None
    xhat: np.ndarray = None
    v: np.ndarray = None
    yhat: np.ndarray = None
    z: np.ndarray = None
    qx: np.ndarray = None
    qy: np.ndarray = None
    qhx: np.ndarray = None
    qhy: np.ndarray = None


@dataclass
class RunTrace:
    """Dense per-iteration records plus runtime-invariant maxima."""

    algo: str
    k: np.ndarray
    consensus_err: np.ndarray
    opt_gap: np.ndarray
    stationarity: np.ndarray
    lyapunov: np.ndarray
    bits: np.ndarray
    status: str
    failed_at: int | None
    diagnostics: dict
    final_state: StackedState
    x_hist: np.ndarray | None = None
    y_hist: np.ndarray | None = None
    s_values: np.ndarray | None = None

    def __len__(self):
        return len(self.k)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def initial_point(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Shared deterministic start; depends only on (n, d, seed, scale)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1717]))
    return scale * rng.standard_normal((n, d))


def scaling_sequence(s0: float, mu: float, iters: int) -> np.ndarray:
    """s(k) = s0 mu^k, accumulated in extended precision."""
    ks = np.arange(iters + 1, dtype=np.float64)
    vals = np.longdouble(s0) * np.longdouble(mu) ** ks
    return np.asarray(vals, dtype=np.float64)


_STATUS = {kern.STATUS_OK: "ok",
           kern.STATUS_NONFINITE: "nonfinite_state",
           kern.STATUS_SCALE_UNDERFLOW: "scaling_exhausted"}


def run(algo: str, iters: int, net: Network, suite: CostSuite,
        params: AlgorithmParams, comp: CompressorSpec | None = None, *,
        seed: int = 0, x0: np.ndarray | None = None, f_star: float = 0.0,
        x_star: np.ndarray | None = None, lyap_kind: int | None = None,
        lyap_phi: float = 0.0, lyap_aux: float = 0.0, bits_per_iter: int = 0,
        record_states: bool = False) -> RunTrace:
    """Execute one synchronous run and return its dense trace.

    The run is stepped by the one numpy stepper of ``algo`` in ``_kernels``,
    which records the trace in blocks of rows.  ``seed`` feeds only the
    compressor randomness: agent i's message in slot s at iteration k is
    row i of ``compress(comp, inputs, seed=seed, k=k, slot=s)``.
    ``f_star`` is the reference value the optimality gap is measured from and
    ``x_star`` the point it is attained at, if known; quadratic gaps are
    anchored there, or at a least-squares solve without it (see
    ``costs.RunCosts``).
    ``lyap_phi``/``lyap_aux`` are the weight constants of the Lyapunov
    variant selected by ``lyap_kind``; sensible defaults are chosen per
    algorithm when not given.
    """
    if algo not in ALGORITHMS:
        raise AlgorithmError(f"unknown algorithm {algo!r}")
    if iters < 1:
        raise AlgorithmError("iters must be >= 1")
    if suite.n != net.n:
        raise AlgorithmError("network and cost suite disagree on n")
    params.validate(algo)
    if algo != "dgt":
        if comp is None:
            raise AlgorithmError(f"{algo} needs a compressor spec")
        if comp.d != suite.d:
            raise AlgorithmError("compressor dimensioned for a different d")

    n, d = net.n, suite.d
    if x0 is None:
        x0 = initial_point(n, d, seed)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    if x0.shape != (n, d):
        raise AlgorithmError(f"x0 must have shape {(n, d)}")

    if lyap_kind is None:
        lyap_kind = {"alg1": kern.LYAP_FULL, "alg2": kern.LYAP_EF,
                     "alg3": kern.LYAP_CONSENSUS,
                     "dgt": kern.LYAP_CONSENSUS}[algo]
    if not math.isfinite(lyap_aux):
        lyap_aux = 0.0  # exact compressors: the weighted terms are identically 0

    W = np.ascontiguousarray(net.W, dtype=np.float64)
    cost = RunCosts(suite, x_star, f_star)
    m_rows = iters + 1
    cons = np.zeros(m_rows)
    gapv = np.zeros(m_rows)
    stat = np.zeros(m_rows)
    lyap = np.zeros(m_rows)
    diag = np.zeros(8)
    hist_rows = m_rows if record_states else 0
    Xh = np.zeros((hist_rows, n, d))
    Yh = np.zeros((hist_rows, n, d))
    useed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    record = (cons, gapv, stat, lyap, diag, Xh, Yh)

    s_vals = None
    if algo in ("alg1", "alg2"):
        ck, cp1, cp2, cip = comp.kind_code, *comp.kernel_params()
        status, k_done, final = kern._run_alg1_np(
            x0, W, params.eta, params.gamma, params.phi_x, params.phi_y,
            params.varsigma, 1 if algo == "alg2" else 0,
            ck, cp1, cp2, cip, useed, cost,
            lyap_kind, lyap_phi, lyap_aux, iters, record)
    elif algo == "alg3":
        ck, cp1, cp2, cip = comp.kind_code, *comp.kernel_params()
        s_vals = scaling_sequence(params.s0, params.mu, iters)
        ip_norm = 0 if math.isinf(comp.p_norm) else 1
        status, k_done, final = kern._run_alg3_np(
            x0, W, params.eta, params.gamma, s_vals, ip_norm,
            ck, cp1, cp2, cip, useed, cost,
            lyap_kind, lyap_phi, lyap_aux, iters, record)
    else:
        status, k_done, final = kern._run_dgt_np(
            x0, W, params.eta, params.gamma, cost, lyap_phi, iters, record)

    rows = k_done + 1
    ks = np.arange(rows, dtype=np.int64)
    trace = RunTrace(
        algo=algo,
        k=ks,
        consensus_err=cons[:rows].copy(),
        opt_gap=gapv[:rows].copy(),
        stationarity=stat[:rows].copy(),
        lyapunov=lyap[:rows].copy(),
        bits=ks * int(bits_per_iter),
        status=_STATUS[int(status)],
        failed_at=None if status == kern.STATUS_OK else k_done,
        diagnostics=dict(zip(DIAG_NAMES, diag.tolist())),
        final_state=StackedState(**final),
        x_hist=Xh[:rows].copy() if record_states else None,
        y_hist=Yh[:rows].copy() if record_states else None,
        s_values=s_vals[:rows].copy() if s_vals is not None else None,
    )
    return trace


def practical_params(algo: str, *, s0: float = 1.0, mu: float = 0.98) -> AlgorithmParams:
    """Aggressive operating points for qualitative experiments."""
    if algo == "alg1":
        return AlgorithmParams(eta=0.8, gamma=0.3, phi_x=0.3, phi_y=0.1)
    if algo == "alg2":
        return AlgorithmParams(eta=0.8, gamma=0.3, phi_x=0.3, phi_y=0.1,
                               varsigma=0.3)
    if algo == "alg3":
        return AlgorithmParams(eta=0.4, gamma=0.6, s0=s0, mu=mu)
    if algo == "dgt":
        return AlgorithmParams(eta=0.8, gamma=0.3)
    raise AlgorithmError(f"unknown algorithm {algo!r}")


def auto_s0(x0: np.ndarray, suite: CostSuite) -> float:
    """Scaling start covering the initial states: max agent norm of x and y."""
    from .costs import grad_all

    y0 = grad_all(suite, x0)
    nx = float(np.linalg.norm(x0, axis=1).max())
    ny = float(np.linalg.norm(y0, axis=1).max())
    return max(1.0, nx, ny)
