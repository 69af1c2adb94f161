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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as kern
from .analysis import (AnalysisError, ef_weight, lyapunov_weight,
                       mixing_constants, scaled_gap_weight)
from .compressors import LOCAL_ABSOLUTE, RELATIVE, CompressorSpec
from .costs import CostSuite, RunCosts
from .graph import Network

DIAG_NAMES = (
    "mean_x_recursion",      # || mean X(k+1) - (mean X(k) - eta mean Y(k)) ||
    "mean_y_tracking",       # || mean Y - mean grad || / (1 + || mean grad ||)
    "struct_x",              # accumulator identity residual, x side
    "struct_y",              # accumulator identity residual, y side
    "induction_x",           # max_i ||X_i(k) - Xhat_i(k-1)||_inf / s(k)
    "induction_y",
    "compression_ratio",     # max_i ||X_i(k) - Xhat_i(k)||_inf / s(k)
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
        reads = RULES[algo].params
        if self.eta <= 0 or self.gamma <= 0:
            raise AlgorithmError("eta and gamma must be positive")
        if self.gamma >= 1:
            raise AlgorithmError("gamma must stay below 1 for contraction")
        if "phi_x" in reads and (self.phi_x <= 0 or self.phi_y <= 0):
            raise AlgorithmError("phi_x and phi_y must be positive")
        if "varsigma" in reads and self.varsigma < 0:
            raise AlgorithmError("varsigma must be nonnegative")
        if "s0" in reads and self.s0 <= 0:
            raise AlgorithmError("s0 must be positive")
        if "mu" in reads and not 0.0 < self.mu < 1.0:
            raise AlgorithmError("mu must lie in (0, 1)")


@dataclass(frozen=True)
class Rule:
    """One update rule, described once: ``run`` drives ``step`` (its step
    function in ``_kernels``) over X|Y, G, ``twins`` and, if it compresses,
    its message block; the block recorder reads its Lyapunov terms and
    invariants, and the harness's bit ledger bills one message per slot."""

    name: str
    step: Callable
    classes: tuple      # compressor classes it is certified for; () if exact
    messages: tuple     # the name of the message sent in each slot
    twins: tuple        # (2, n, d) blocks after X|Y and G, zero at first
    lyapunov: str       # "full", "ef" or "consensus" (sidecar names)
    invariants: tuple   # the runtime invariants (DIAG_NAMES) it checks
    params: tuple       # the AlgorithmParams fields it reads
    practical: AlgorithmParams  # aggressive operating point for
                                # qualitative experiments
    scaled: bool = False  # it sends (X - Xhat) / s(k), s(k) = s0 mu^k

    @property
    def feedback(self) -> bool:
        """Whether it sends error-feedback messages besides Qx, Qy (alg2)."""
        return self.lyapunov == "ef"


_RELATIVE_TWINS = (("a", "c"), ("b", "dd"))
_STRUCT = DIAG_NAMES[:4]

RULES = {rule.name: rule for rule in (
    Rule("alg1", kern._alg1_step, ("relative",), ("qx", "qy"),
         _RELATIVE_TWINS, "full", _STRUCT,
         ("eta", "gamma", "phi_x", "phi_y"),
         AlgorithmParams(eta=0.8, gamma=0.3, phi_x=0.3, phi_y=0.1)),
    Rule("alg2", kern._alg1_step, ("relative",),
         ("qx", "qy", "qhx", "qhy"), _RELATIVE_TWINS + (("ex", "ey"),),
         "ef", _STRUCT,
         ("eta", "gamma", "phi_x", "phi_y", "varsigma"),
         AlgorithmParams(eta=0.8, gamma=0.3, phi_x=0.3, phi_y=0.1,
                         varsigma=0.3)),
    Rule("alg3", kern._alg3_step, ("global_absolute", "local_absolute"),
         ("qx", "qy"), (("xhat", "yhat"), ("v", "z")), "consensus",
         DIAG_NAMES, ("eta", "gamma", "s0", "mu"),
         AlgorithmParams(eta=0.4, gamma=0.6), scaled=True),
    Rule("dgt", kern._dgt_step, (), ("x", "y"), (), "consensus",
         DIAG_NAMES[:2], ("eta", "gamma"), AlgorithmParams(eta=0.8, gamma=0.3)),
)}


@dataclass
class RunTrace:
    """Dense per-iteration records, row k before step k, plus
    runtime-invariant maxima and the name of the Lyapunov function the
    ``lyapunov`` column records; the harness bills a row's bits."""

    algo: str
    consensus_err: np.ndarray
    opt_gap: np.ndarray
    stationarity: np.ndarray
    lyapunov: np.ndarray
    status: str
    failed_at: int | None
    diagnostics: dict
    lyapunov_name: str

    def __len__(self):
        return len(self.consensus_err)


def initial_point(n: int, d: int, seed: int) -> np.ndarray:
    """Shared deterministic start; depends only on (n, d, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1717]))
    return rng.standard_normal((n, d))


def scaling_sequence(s0: float, mu: float, iters: int) -> np.ndarray:
    """s(k) = s0 mu^k, accumulated in extended precision."""
    ks = np.arange(iters + 1, dtype=np.float64)
    vals = np.longdouble(s0) * np.longdouble(mu) ** ks
    return np.asarray(vals, dtype=np.float64)


def run(algo: str, iters: int, net: Network, suite: CostSuite,
        params: AlgorithmParams, comp: CompressorSpec | None = None, *,
        seed: int = 0, x0: np.ndarray | None = None, f_star: float = 0.0,
        x_star: np.ndarray | None = None) -> RunTrace:
    """Execute one synchronous run and return its dense trace.

    The state list is X|Y, G, the rule's twins (zero at first) and, if it
    compresses, its first messages: X|Y compressed, over s(0) if scaled,
    and twice for alg2.  The block recorder records the trace, B rows at a
    time, and no state is returned.
    ``seed`` feeds only the compressor randomness: agent i's message in slot
    s at iteration k is row i of ``compress(comp, inputs, seed=seed, k=k,
    slot=s)``.  ``comp`` is ignored by a rule that sends exact messages.
    ``f_star`` is the reference value the optimality gap is measured from and
    ``x_star`` the point it is attained at, if known; quadratic gaps are
    anchored there, or at the minimiser solved from the suite's Gram without
    it (see ``costs.RunCosts``).
    The rule and the compressor's class fix the Lyapunov function, which
    the trace names, and the run derives its weights: phi =
    ``lyapunov_weight(sigma, L_f)``; alg2's ``ef_weight`` at its phis and a
    relative compressor's (r, psi, C), 0 in another class, for phis outside
    (0, 1/r) or for C = 0; a scaled rule's gap weight, ``scaled_gap_weight``
    at its eta and gamma under a locally bounded compressor, else 1.
    """
    rule = RULES.get(algo) if isinstance(algo, str) else None
    if rule is None:
        raise AlgorithmError(f"unknown algorithm {algo!r}")
    if iters < 1:
        raise AlgorithmError("iters must be >= 1")
    if suite.n != net.n:
        raise AlgorithmError("network and cost suite disagree on n")
    params.validate(algo)
    if rule.classes:
        if comp is None:
            raise AlgorithmError(f"{algo} needs a compressor spec")
        if comp.d != suite.d:
            raise AlgorithmError("compressor dimensioned for a different d")
    phi_w = lyapunov_weight(net.sigma, suite.L_f)
    aux, lyap_name = 1.0, rule.lyapunov
    if rule.feedback:
        # 0 where (r, psi, C) state no bound: outside the relative class and
        # for phis outside (0, 1/r); and for C = 0, whose feedback sum is 0
        try:
            aux = (ef_weight(*mixing_constants(
                params.phi_x, params.phi_y, comp.r, comp.psi), comp.cap_c)
                if comp.assumption_class == RELATIVE and comp.cap_c else 0.0)
        except AnalysisError:
            aux = 0.0
    elif rule.scaled and comp.assumption_class == LOCAL_ABSOLUTE:
        aux, lyap_name = scaled_gap_weight(params.eta, params.gamma,
                                           net.sigma, suite.L_f), "scaled"

    n, d = net.n, suite.d
    if x0 is None:
        x0 = initial_point(n, d, seed)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    if x0.shape != (n, d):
        raise AlgorithmError(f"x0 must have shape {(n, d)}")

    s_arr = (scaling_sequence(params.s0, params.mu, iters) if rule.scaled
             else None)
    W = np.ascontiguousarray(net.W, dtype=np.float64)
    useed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    cost = RunCosts(suite, x_star, f_star)
    G = cost.grad(x0)
    XY = np.stack([x0, G])
    st = [XY, G, *(np.zeros((2, n, d)) for _ in rule.twins)]
    if rule.classes:
        Q = kern._compress_block_np(
            comp, XY / s_arr[0] if rule.scaled else XY, useed, 0, 0)
        st.append(np.concatenate([Q, Q]) if rule.feedback else Q)
    step = rule.step(rule, st, W, params, cost, comp, useed, s_arr)
    # a scaled rule stops before the first step whose next scale underflows
    last, status = iters, "ok"
    if rule.scaled:
        below = np.flatnonzero(s_arr[1:] < kern._SCALE_FLOOR)
        if below.size:
            last, status = int(below[0]), "scaling_exhausted"
    # looked up at call time, so a test can swap the recorder
    rec = kern._BlockRecorder(rule, st[:2 + len(rule.twins)], cost, W,
                              params.eta, phi_w, aux, iters, s_arr)
    for k in range(last + 1):
        rec.push(st)
        if rec.fill == rec.B or k == last:
            # overflow in a diverging row is expected: the flush that finds
            # a non-finite row ends the run at that row
            with np.errstate(all="ignore"):
                bad = rec.flush()
            if bad is not None:
                status, last = "nonfinite_state", bad
                break
        if k < last:
            step(k, st)

    cons, gap, stat, lyap = (col[:last + 1].copy() for col in rec.cols)
    return RunTrace(
        algo=algo,
        consensus_err=cons,
        opt_gap=gap,
        stationarity=stat,
        lyapunov=lyap,
        status=status,
        failed_at=None if status == "ok" else last,
        diagnostics={name: float(v) for name, v in rec.diag.items()},
        lyapunov_name=lyap_name,
    )


def practical_params(algo: str) -> AlgorithmParams:
    """``RULES[algo].practical``."""
    rule = RULES.get(algo) if isinstance(algo, str) else None
    if rule is None:
        raise AlgorithmError(f"unknown algorithm {algo!r}")
    return rule.practical


def auto_s0(x0: np.ndarray, suite: CostSuite) -> float:
    """Scaling start covering the initial states: max agent norm of x and y."""
    from .costs import grad_all

    y0 = grad_all(suite, x0)
    nx = float(np.linalg.norm(x0, axis=1).max())
    ny = float(np.linalg.norm(y0, axis=1).max())
    return max(1.0, nx, ny)
