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
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kern
from .compressors import CompressorSpec, make_compressor
from .costs import CostSuite
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


def _suite_arrays(suite: CostSuite):
    if suite.kind == "logistic_log":
        return (kern.COST_LOGISTIC,
                np.ascontiguousarray(suite.h), np.ascontiguousarray(suite.nu),
                np.ascontiguousarray(suite.m), np.ascontiguousarray(suite.xi),
                np.zeros((1, 1, 1)), np.zeros((1, 1)))
    return (kern.COST_QUADRATIC,
            np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((1, 1)),
            np.ascontiguousarray(suite.M), np.ascontiguousarray(suite.b))


_STATUS = {kern.STATUS_OK: "ok",
           kern.STATUS_NONFINITE: "nonfinite_state",
           kern.STATUS_SCALE_UNDERFLOW: "scaling_exhausted"}


def run(algo: str, iters: int, net: Network, suite: CostSuite,
        params: AlgorithmParams, comp: CompressorSpec | None = None, *,
        seed: int = 0, x0: np.ndarray | None = None, f_star: float = 0.0,
        lyap_kind: int | None = None, lyap_phi: float = 0.0,
        lyap_aux: float = 0.0, bits_per_iter: int = 0,
        record_states: bool = False, backend: str | None = None) -> RunTrace:
    """Execute one synchronous run and return its dense trace.

    ``seed`` feeds only the compressor randomness (counter-derived per
    iteration, agent, and message slot).  ``lyap_phi``/``lyap_aux`` are the
    weight constants of the Lyapunov variant selected by ``lyap_kind``;
    sensible defaults are chosen per algorithm when not given.  ``backend``
    is None (the active backend, see ``_kernels.active_backend``), "numpy" or
    "numba"; without numba, "numba" runs the loop kernels interpreted.
    """
    if algo not in ALGORITHMS:
        raise AlgorithmError(f"unknown algorithm {algo!r}")
    if backend not in (None, "numpy", "numba"):
        raise AlgorithmError(f"unknown backend {backend!r}; "
                             "expected 'numpy' or 'numba'")
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
    cost_pack = _suite_arrays(suite)
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
    use_numba = (backend or kern.active_backend()) == "numba"

    def out():
        return np.zeros((n, d))

    s_vals = None
    if algo in ("alg1", "alg2"):
        ck, cp1, cp2, cip = comp.kind_code, *comp.kernel_params()
        outs = [out() for _ in range(12)]
        fn = kern._run_alg1_nb if use_numba else kern._run_alg1_np
        status, k_done = fn(
            x0, W, params.eta, params.gamma, params.phi_x, params.phi_y,
            params.varsigma, 1 if algo == "alg2" else 0,
            ck, cp1, cp2, cip, useed, *cost_pack,
            f_star, lyap_kind, lyap_phi, lyap_aux, iters,
            cons, gapv, stat, lyap, diag, Xh, Yh, *outs)
        state = StackedState(x=outs[0], y=outs[1], a=outs[2], b=outs[3],
                             c=outs[4], dd=outs[5], ex=outs[6], ey=outs[7],
                             qx=outs[8], qy=outs[9], qhx=outs[10],
                             qhy=outs[11])
    elif algo == "alg3":
        ck, cp1, cp2, cip = comp.kind_code, *comp.kernel_params()
        s_vals = scaling_sequence(params.s0, params.mu, iters)
        ip_norm = 0 if math.isinf(comp.p_norm) else 1
        outs = [out() for _ in range(8)]
        fn = kern._run_alg3_nb if use_numba else kern._run_alg3_np
        status, k_done = fn(
            x0, W, params.eta, params.gamma, s_vals, ip_norm,
            ck, cp1, cp2, cip, useed, *cost_pack,
            f_star, lyap_kind, lyap_phi, lyap_aux, iters,
            cons, gapv, stat, lyap, diag, Xh, Yh, *outs)
        state = StackedState(x=outs[0], y=outs[1], xhat=outs[2], v=outs[3],
                             yhat=outs[4], z=outs[5], qx=outs[6], qy=outs[7])
    else:
        outs = [out() for _ in range(2)]
        fn = kern._run_dgt_nb if use_numba else kern._run_dgt_np
        status, k_done = fn(
            x0, W, params.eta, params.gamma, *cost_pack,
            f_star, lyap_phi, iters,
            cons, gapv, stat, lyap, diag, Xh, Yh, *outs)
        state = StackedState(x=outs[0], y=outs[1])

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
        final_state=state,
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
