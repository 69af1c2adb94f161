"""Analysis oracles for the tests: a term-by-term Lyapunov evaluation at a
final state and the linear-rate envelope of the scaled tracker.

The runs record the Lyapunov column batched inside the steppers; this
evaluates one state from its StackedState fields with ``costs.mean_value``,
so tests can check the recorded column and the weights against it.
"""

import math
from dataclasses import dataclass

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
