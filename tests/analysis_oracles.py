"""Analysis oracles for the tests: a term-by-term Lyapunov evaluation at a
final state, the linear-rate envelope of the scaled tracker, the linear rate
under gradient dominance (``pl_rate``) and least-squares rate fits of a trace
window (``fit_rate``), and descent checks of a recorded Lyapunov column
(``check_descent``) and of replicate columns (``sample_mean_descent``).

The runs record the Lyapunov column batched inside the steppers; this
evaluates one state from its ``run_recorder.StackedState`` fields with
``costs.mean_value``, so tests can check the recorded column and the weights
against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from cgtsim.analysis import AnalysisError, ParameterBounds
from cgtsim.costs import CostSuite, mean_value
from cgtsim.graph import Network


@dataclass
class LyapunovValue:
    total: float
    terms: dict


_LYAP_REQUIRED = {
    "full": ("a", "c"),
    "ef": ("a", "c", "ex", "ey"),
    "consensus": (),
    "scaled": (),
}


def lyapunov_eval(which: str, state, net: Network, suite: CostSuite,
                  f_star: float, consts: dict) -> LyapunovValue:
    """Term-by-term evaluation of the selected Lyapunov function at a state.

    ``consts`` carries the weights: phi (tracking) always; phi_hat for the
    error-feedback form; phi_tilde for the scaled-gap form.
    """
    if which not in _LYAP_REQUIRED:
        raise AnalysisError(f"unknown lyapunov kind {which!r}")
    for name in _LYAP_REQUIRED[which]:
        if getattr(state, name) is None:
            raise AnalysisError(
                f"lyapunov {which!r} needs state field {name!r}: "
                "algorithm/function mismatch")
    X, Y = state.x, state.y
    n = X.shape[0]
    xbar = X.mean(axis=0)
    ybar = Y.mean(axis=0)
    phi = consts["phi"]
    terms = {
        "consensus": float(((X - xbar) ** 2).sum()),
        "tracking": float(((Y - ybar) ** 2).sum()),
        "optimality": n * (mean_value(suite, xbar) - f_star),
    }
    total = terms["consensus"] + phi * terms["tracking"]
    if which in ("full", "ef"):
        terms["comp_err_x"] = float(((X - state.a) ** 2).sum())
        terms["comp_err_y"] = float(((Y - state.c) ** 2).sum())
        total += terms["comp_err_x"] + terms["comp_err_y"]
    if which == "ef":
        ef = float((state.ex ** 2).sum() + (state.ey ** 2).sum())
        phi_hat = consts["phi_hat"]
        terms["ef_x"] = float((state.ex ** 2).sum())
        terms["ef_y"] = float((state.ey ** 2).sum())
        if math.isinf(phi_hat):
            if ef > 0:
                raise AnalysisError(
                    "phi_hat is infinite (C=0) but feedback terms are nonzero")
        else:
            total += phi_hat * ef
    if which == "scaled":
        total += consts["phi_tilde"] * terms["optimality"]
    else:
        total += terms["optimality"]
    return LyapunovValue(total=total, terms=terms)


def geometric_tail_bound(bounds: ParameterBounds, nu: float, u0: float,
                         s0: float, varpi: float | None = None) -> dict:
    """Linear-rate envelope constants for the scaled tracker under gradient
    dominance; the equality case uses varpi = (mu^2 + 1)/2 unless given."""
    c = bounds.constants
    mu = c["mu"]
    breve7 = min(c["breve_theta1"], 2.0 * nu * c["theta2"])
    breve8 = c["breve_theta8"]
    mu2 = mu * mu
    if 1.0 - breve7 < mu2:
        scale = 1.0 / ((1.0 - (1.0 - breve7) / mu2) * mu2)
        case = "slower_scaling"
    elif 1.0 - breve7 > mu2:
        scale = 1.0 / ((1.0 - mu2 / (1.0 - breve7)) * (1.0 - breve7))
        case = "slower_contraction"
    else:
        vp = (mu2 + 1.0) / 2.0 if varpi is None else varpi
        if not mu2 < vp < 1.0:
            raise AnalysisError("varpi must lie in (mu^2, 1)")
        scale = 1.0 / ((1.0 - mu2 / vp) * vp)
        case = "tie"
    return {
        "breve_theta5": min(breve7, 1.0 - mu2),
        "breve_theta6": u0 + breve8 * s0 * s0 * scale,
        "breve_theta7": breve7,
        "case": case,
    }


def pl_rate(chain: dict, nu: float, hat: bool = False) -> float:
    """Linear contraction rate under gradient dominance: theta4 or hat form."""
    if nu <= 0:
        raise AnalysisError("nu must be positive")
    base = chain["hat_theta2"] if hat else chain["theta3"]
    return min(base, 2.0 * nu * chain["theta2"])


def fit_rate(ks, values, mode: str = "linear",
             window: tuple[int, int] | None = None) -> dict:
    """Least-squares rate fit on a trace window.

    linear mode: slope of log(value) against k, reported as the geometric
    rate exp(slope).  sublinear mode: fit of k*value against k, reporting the
    fitted level and its maximum deviation.
    """
    ks = np.asarray(ks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if window is not None:
        lo, hi = window
        if lo < ks[0] or hi > ks[-1] or hi <= lo:
            raise AnalysisError(f"window {window} outside trace")
        mask = (ks >= lo) & (ks <= hi)
        ks, values = ks[mask], values[mask]
    if len(ks) < 10:
        raise AnalysisError("need at least 10 points to fit")
    if mode == "linear":
        if np.any(values <= 0):
            raise AnalysisError("nonpositive values in window; cannot log-fit")
        y = np.log(values)
        A = np.vstack([ks, np.ones_like(ks)]).T
        (slope, icpt), res, *_ = np.linalg.lstsq(A, y, rcond=None)
        pred = A @ np.array([slope, icpt])
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
        return {"rate": float(np.exp(slope)), "r_squared": r2,
                "slope": float(slope)}
    if mode == "sublinear":
        z = ks * values
        A = np.vstack([ks, np.ones_like(ks)]).T
        (slope, icpt), *_ = np.linalg.lstsq(A, z, rcond=None)
        level = float(z.mean())
        return {"rate": float(slope), "r_squared": 1.0, "level": level,
                "max_dev": float(np.max(np.abs(z - level)))}
    raise AnalysisError(f"unknown fit mode {mode!r}")


def check_descent(values, slack=0.0) -> dict:
    """Per-step monotonicity check V(k+1) <= V(k) + slack(k).

    slack may be a scalar or a per-step array (length len(values)-1 or
    len(values); the entry at index k applies to the k -> k+1 transition).
    """
    values = np.asarray(values, dtype=np.float64)
    diffs = np.diff(values)
    slack_arr = np.broadcast_to(np.asarray(slack, dtype=np.float64),
                                (len(values),))[: len(diffs)]
    excess = diffs - slack_arr
    bad = np.nonzero(excess > 0)[0]
    return {
        "ok": len(bad) == 0,
        "first_violation": int(bad[0]) if len(bad) else None,
        "max_violation": float(excess.max()) if len(excess) else 0.0,
        "steps": len(diffs),
    }


def sample_mean_descent(runs: list, slack=0.0) -> dict:
    """Expectation-form descent over replicate traces: mean path descends
    within three standard errors of the step differences."""
    if len(runs) < 2:
        raise AnalysisError("need at least two replicate runs")
    mat = np.vstack([np.asarray(r, dtype=np.float64) for r in runs])
    diffs = np.diff(mat, axis=1)
    mean_diff = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / math.sqrt(mat.shape[0])
    slack_arr = np.broadcast_to(np.asarray(slack, dtype=np.float64),
                                (mat.shape[1],))[: diffs.shape[1]]
    excess = mean_diff - slack_arr - 3.0 * se
    bad = np.nonzero(excess > 0)[0]
    return {
        "ok": len(bad) == 0,
        "first_violation": int(bad[0]) if len(bad) else None,
        "max_violation": float(excess.max()),
        "replicates": mat.shape[0],
    }
