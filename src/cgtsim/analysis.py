"""Certified parameter regions and Lyapunov weights.

Every named constant of the convergence analysis is computed in exactly one
place here and exported by name in the bounds' ``constants`` table, so the
parameter calculator, the runs' Lyapunov column and the tests all read the
same formulas.  Constant-table vocabulary:

* ``c1, c2``              mixing-times-compression gains phi_x psi r / 2 etc.
* ``delta``               consensus contraction 1 - gamma (1 - sigma)
* ``phi``                 tracking weight (1 - sigma)^2 / (320 L^2)
* ``phi_hat``             error-feedback weight 0.1/C min{c1(2c1+1), c2(2c2+1)}
* ``phi_tilde``           scaled-gap weight 0.4 gamma (1 - sigma) / (eta L^2)
* ``eps1..eps3``          eta-quadratic leak terms
* ``theta1..theta9``      descent-rate constants of the relative-class region
* ``xi1..xi12``           per-term contraction coefficients
* ``hat_*``               error-feedback variants
* ``breve_*``             globally-bounded absolute-error variants
* ``tilde_*``             locally-bounded absolute-error variants
* ``*gamma_term_*``       terms whose minimum is gamma_max, and likewise
  ``*eta_term_*`` for eta_max; every region runs at half its limits
* ``Pi``                  the smallest relative gamma term
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .compressors import CompressorSpec, make_compressor

INF = math.inf


class AnalysisError(ValueError):
    pass


@dataclass
class ParameterBounds:
    regime: str                 # relative | error_feedback |
                                # absolute_global | scaled_local
    gamma_max: float
    gamma: float
    eta_max: float
    eta: float
    varsigma_max: float | None = None
    varsigma: float | None = None
    s0_min: float | None = None
    s0: float | None = None
    mu_min: float | None = None
    mu: float | None = None
    constants: dict = field(default_factory=dict)

    def refusal(self, params) -> str | None:
        """None when ``params`` lie in the region, else why not: the first
        limit they break, with both numbers.  The limits are strict: gamma
        below gamma_max, eta below the smallest relative eta term at the
        given gamma (at the region's own c1 and c2, as ``eta_max`` is taken
        at the operating point's gamma) and, where the region sets
        varsigma_max, varsigma below it.  A scaled-local region fixes s0 and
        mu together with eta and gamma, so it admits no given params."""
        if self.regime == "scaled_local":
            return ("a locally bounded region fixes s0 and mu together with "
                    'eta and gamma, so it certifies no given params; use mode '
                    '"certified"')
        c, g, eta, vs = (self.constants, params.gamma, params.eta,
                         params.varsigma)
        eta_max = min(eta_terms_relative(c["sigma"], c["L_f"], c["c1"],
                                         c["c2"], g).values())
        vs_max = INF if self.varsigma_max is None else self.varsigma_max
        for name, value, limit, inside in (
                ("gamma", g, self.gamma_max, g < self.gamma_max),
                ("eta", eta, eta_max, eta < eta_max),
                ("varsigma", vs, vs_max, vs < vs_max)):
            if not inside:
                return (f"{name}={value:.10e} is not below its limit "
                        f"{limit:.10e}")
        return None


def mixing_constants(phi_x: float, phi_y: float, r: float, psi: float):
    """c1 = phi_x psi r / 2 and c2 = phi_y psi r / 2; both land in (0, 1/2)."""
    if r <= 0 or not 0.0 < psi <= 1.0:
        raise AnalysisError(f"invalid compressor constants r={r}, psi={psi}")
    if not 0.0 < phi_x < 1.0 / r:
        raise AnalysisError(f"phi_x={phi_x} outside (0, 1/r)=(0, {1.0 / r})")
    if not 0.0 < phi_y < 1.0 / r:
        raise AnalysisError(f"phi_y={phi_y} outside (0, 1/r)=(0, {1.0 / r})")
    return 0.5 * phi_x * psi * r, 0.5 * phi_y * psi * r


def lyapunov_weight(sigma: float, L: float) -> float:
    return (1.0 - sigma) ** 2 / (320.0 * L * L)


def ef_weight(c1: float, c2: float, C: float) -> float:
    """Error-feedback term weight; +inf in the exact-compressor limit C = 0."""
    if C < 0:
        raise AnalysisError("C must be nonnegative")
    if C == 0.0:
        return INF
    return 0.1 / C * min(c1 * (2 * c1 + 1), c2 * (2 * c2 + 1))


def scaled_gap_weight(eta: float, gamma: float, sigma: float, L: float) -> float:
    """+inf where eta L^2 underflows to 0."""
    return _div(0.4 * gamma * (1.0 - sigma), eta * L * L)


def _check_problem(sigma: float, L: float) -> None:
    if not 0.0 < sigma < 1.0:
        raise AnalysisError(f"sigma={sigma} outside (0, 1)")
    if L <= 0:
        raise AnalysisError("L must be positive")


def _div(num: float, den: float) -> float:
    """num/den with the empty-constraint convention den = 0 -> +inf."""
    return INF if den == 0.0 else num / den


def gamma_terms_relative(sigma, L, c1, c2, C):
    one = 1.0 - sigma
    return {
        "gamma_term_1": one / (160.0 * (1.0 + 1.0 / c1)),
        "gamma_term_2": one / (40000.0 * (1.0 + 1.0 / c2) * L * L),
        "gamma_term_3": _div(c1 * one, 40.0 * C),
        "gamma_term_4": _div(c1, 8.0 * math.sqrt(C)),
        "gamma_term_5": _div(c1, 10.0 * L * math.sqrt(C * (1.0 + 1.0 / c2))),
        "gamma_term_6": _div(c2 * L * L, C),
        "gamma_term_7": _div(c2, 10.0 * math.sqrt(C)),
    }


def eta_terms_relative(sigma, L, c1, c2, gamma):
    one = 1.0 - sigma
    return {
        "eta_term_1": one * one * gamma / (40.0 * L),
        "eta_term_2": 0.4 * one * gamma / (L * L),
        "eta_term_3": one * one / (80.0 * L) * math.sqrt(gamma / (1.0 + 1.0 / c1)),
        "eta_term_4": 9.0 / (40.0 * (4.0 * (1.0 + 1.0 / c1)
                                     + 5.0 * (1.0 + 1.0 / c2))),
        "eta_term_5": 1.0 / (2.0 * L),
        "eta_term_6": gamma,
    }


def descent_chain(sigma, L, c1, c2, C, eta, gamma) -> dict:
    """Per-term contraction coefficients and descent rates at (eta, gamma)."""
    one = 1.0 - sigma
    delta = 1.0 - gamma * one
    phi = lyapunov_weight(sigma, L)
    eps1 = 8.0 * L * L / (one * gamma) * eta * eta
    eps2 = 4.0 * (1.0 + 1.0 / c1) * eta * eta
    eps3 = 5.0 * (1.0 + 1.0 / c2) * eta * eta
    sq = 8.0 * gamma * gamma + 2.0 * eta * eta * L * L
    xi = {
        "xi1": 8.0 * L * L / (one * gamma) * sq,
        "xi2": 4.0 * sq * (1.0 + 1.0 / c1),
        "xi4": 2.0 * eta * eta / (gamma * one),
        "xi5": delta + 8.0 * L * L / (one * gamma) * eta * eta,
        "xi6": 4.0 * (1.0 + 1.0 / c1) * eta * eta,
        "xi7": 5.0 * (1.0 + 1.0 / c2) * sq,
        "xi8": 8.0 * gamma / one * C,
        "xi9": 32.0 * L * L / one * gamma * C,
        "xi10": 16.0 * gamma * gamma * (1.0 + 1.0 / c1) * C
                + (1.0 - c1 - 2.0 * c1 * c1),
        "xi11": 20.0 * gamma * gamma * (1.0 + 1.0 / c2) * L * L * C,
        "xi12": 20.0 * gamma * gamma * (1.0 + 1.0 / c2) * C
                + (1.0 - c2 - 2.0 * c2 * c2),
    }
    xi["xi3"] = xi["xi7"] * L * L
    theta2 = eta / 4.0 - (phi * eps1 + eps2 + eps3)
    theta3 = min(0.07 * one * gamma,
                 0.44 * c1 * (2.0 * c1 + 1.0),
                 0.77 * c2 * (2.0 * c2 + 1.0))
    out = {
        "sigma": sigma, "L_f": L, "c1": c1, "c2": c2, "C": C,
        "eta": eta, "gamma": gamma, "delta": delta, "phi": phi,
        "eps1": eps1, "eps2": eps2, "eps3": eps3,
        "theta2": theta2, "theta3": theta3,
        "theta1": min(theta2, theta3),
        "theta5": delta + phi * xi["xi1"] + xi["xi2"] + xi["xi3"]
                  + eta * L * L / 2.0,
        "theta6": xi["xi4"] + phi * xi["xi5"] + xi["xi6"] + xi["xi7"],
        "theta7": xi["xi8"] + phi * xi["xi9"] + xi["xi10"] + xi["xi11"],
        "theta8": phi * xi["xi8"] + xi["xi12"],
        "theta9": eta / 4.0 * (1.0 - 2.0 * eta * L),
    }
    out.update(xi)
    return out


def _operating_point(regime: str, gamma_terms: dict,
                     eta_terms_at) -> ParameterBounds:
    """The region of ``regime`` at its operating point, half its limits.

    gamma_max is the smallest gamma term and gamma = gamma_max / 2; eta_max
    is the smallest of the terms ``eta_terms_at(gamma)`` and
    eta = eta_max / 2.  A point that underflows to 0, or that is not below
    its limit, is an AnalysisError.  The constants table starts with both
    sets of terms.
    """
    gamma_max = min(gamma_terms.values())
    gamma = 0.5 * gamma_max
    if not 0.0 < gamma < gamma_max:
        raise AnalysisError(f"gamma={gamma} outside (0, {gamma_max})")
    eta_terms = eta_terms_at(gamma)
    eta_max = min(eta_terms.values())
    eta = 0.5 * eta_max
    if not 0.0 < eta < eta_max:
        raise AnalysisError(f"eta={eta} outside (0, {eta_max})")
    return ParameterBounds(regime=regime, gamma_max=gamma_max, gamma=gamma,
                           eta_max=eta_max, eta=eta,
                           constants={**gamma_terms, **eta_terms})


def bounds_relative(sigma: float, L: float, comp: CompressorSpec,
                    phi_x: float, phi_y: float, *,
                    gamma_terms=None) -> ParameterBounds:
    """Admissible region for the relative-class tracker.

    Pi is the smallest of the relative gamma terms.  ``gamma_terms(c1, c2,
    C, Pi)``, when given, returns the gamma terms that bind in their place
    and the constants they rest on; the error-feedback region passes its
    own.  The eta terms and the descent chain are the relative ones.
    """
    _check_problem(sigma, L)
    if comp.assumption_class != "relative":
        raise AnalysisError("relative-class bounds need a relative compressor")
    c1, c2 = mixing_constants(phi_x, phi_y, comp.r, comp.psi)
    C = comp.cap_c
    gts = gamma_terms_relative(sigma, L, c1, c2, C)
    pi = min(gts.values())
    extra: dict = {}
    if gamma_terms is not None:
        gts, extra = gamma_terms(c1, c2, C, pi)
    b = _operating_point("relative", gts,
                         lambda g: eta_terms_relative(sigma, L, c1, c2, g))
    b.constants.update(descent_chain(sigma, L, c1, c2, C, b.eta, b.gamma))
    b.constants.update(extra, Pi=pi, phi_x=phi_x, phi_y=phi_y, r=comp.r,
                       psi=comp.psi)
    return b


def bounds_error_feedback(sigma: float, L: float, comp: CompressorSpec,
                          phi_x: float, phi_y: float) -> ParameterBounds:
    """Admissible region for the error-feedback variant: the relative region
    with a tighter gamma list, whose last term is the relative Pi, plus the
    retention bound on varsigma."""
    one = 1.0 - sigma

    def ef_terms(c1, c2, C, pi):
        phi = lyapunov_weight(sigma, L)
        phi_hat = ef_weight(c1, c2, C)
        return {
            "gamma_term_ef_1": _div(c1 * one, 160.0 * C),
            "gamma_term_ef_2": _div(c1, 16.0 * math.sqrt(C)),
            "gamma_term_ef_3": _div(c1, 20.0 * L
                                    * math.sqrt(C * (1.0 + 1.0 / c2))),
            "gamma_term_ef_4": _div(c2 * L * L, 4.0 * C),
            "gamma_term_ef_5": _div(c2, 20.0 * math.sqrt(C)),
            "gamma_term_ef_6": 1.0 / (4.0 * (1.0 + 1.0 / c1)
                                      + 5.0 * (1.0 + 1.0 / c2) * L * L),
            "gamma_term_ef_7": one * phi_hat
                               / (4.0 * (16.0 * (1.0 + 4.0 * phi * L * L)
                                         + 8.0 * one)),
            "gamma_term_ef_8": 1.0 / (5.0 * (1.0 + 1.0 / c2)),
            "gamma_term_ef_9": one * phi_hat / (32.0 * (2.0 * phi + one)),
            "gamma_term_ef_10": pi,
        }, {"phi_hat": phi_hat}

    b = bounds_relative(sigma, L, comp, phi_x, phi_y, gamma_terms=ef_terms)
    consts = b.constants
    C, c1, c2 = consts["C"], consts["c1"], consts["c2"]
    phi, phi_hat, g = consts["phi"], consts["phi_hat"], b.gamma
    vs_max = min(_div(1.0, 2.0 * math.sqrt(C)),
                 1.0 / math.sqrt(2.0 * C + 1.0))
    vs = 0.5 * vs_max if math.isfinite(vs_max) else 0.5
    consts["hat_theta2"] = min(0.07 * one * g,
                               0.24 * c1 * (2.0 * c1 + 1.0),
                               0.57 * c2 * (2.0 * c2 + 1.0),
                               0.25)
    consts["hat_theta1"] = min(consts["theta2"], consts["hat_theta2"])
    two_s = 2.0 * vs * vs * (2.0 * C + 1.0)
    hxi = {
        "hat_xi1": 8.0 * g / one * two_s,
        "hat_xi2": 8.0 * L * L / (one * g) * 4.0 * g * g * two_s,
        "hat_xi3": 64.0 * g * g * (1.0 + 1.0 / c1) * C
                   + (1.0 - c1 - 2.0 * c1 * c1),
        "hat_xi4": 16.0 * g * g * (1.0 + 1.0 / c1) * two_s,
        "hat_xi5": 80.0 * g * g * (1.0 + 1.0 / c2) * C
                   + (1.0 - c2 - 2.0 * c2 * c2),
        "hat_xi7": 20.0 * g * g * (1.0 + 1.0 / c2) * two_s,
    }
    hxi["hat_xi6"] = L * L * hxi["hat_xi7"]
    if math.isfinite(phi_hat):
        hxi["hat_theta4"] = (4.0 * consts["xi8"] + 4.0 * phi * consts["xi9"]
                             + hxi["hat_xi3"] + 4.0 * consts["xi11"]
                             + 2.0 * C * phi_hat)
        hxi["hat_theta5"] = (4.0 * phi * consts["xi8"] + hxi["hat_xi5"]
                             + 2.0 * C * phi_hat)
        hxi["hat_theta6"] = (hxi["hat_xi1"] + phi * hxi["hat_xi2"]
                             + hxi["hat_xi4"] + hxi["hat_xi6"]
                             + 2.0 * C * phi_hat * vs * vs)
        hxi["hat_theta7"] = (phi * hxi["hat_xi1"] + hxi["hat_xi7"]
                             + 2.0 * C * phi_hat * vs * vs)
    consts.update(hxi)
    return replace(b, regime="error_feedback", varsigma_max=vs_max,
                   varsigma=vs)


def bounds_absolute_global(sigma: float, L: float, n: int, d: int,
                           cap_c: float, mu: float,
                           s0: float | None = None) -> ParameterBounds:
    """Region for the scaled tracker under a globally bounded absolute error.

    (eta, gamma) and their terms are the exact compressor's relative region
    at phi_x = phi_y = 1/2 (c1 = c2 = 1/4, and C = 0 empties the C terms);
    any mu in (0, 1) is admissible, and so is any s0 > 0, which the region
    carries as given (``harness.cell_region`` owns a certified cell's
    defaults).  The constants table carries the geometric slack coefficient
    of the Lyapunov descent check:
    slack(k) = breve_theta8 * s(k)^2 with
    breve_theta8 = 2 n d_tilde^2 xi8 (1 + 2 L^2), where d_tilde = sqrt(d)
    bounds the 2-norm by the inf-norm the class is stated in.
    """
    b = bounds_relative(sigma, L, make_compressor("identity", d), 0.5, 0.5)
    if not 0.0 < mu < 1.0:
        raise AnalysisError("mu must lie in (0, 1)")
    consts = b.constants
    one = 1.0 - sigma
    d_tilde = math.sqrt(d)
    xi8_abs = 8.0 * b.gamma / one * cap_c
    consts["d_tilde"] = d_tilde
    consts["xi8_abs"] = xi8_abs
    consts["breve_theta3"] = 0.59 * one * b.gamma
    consts["breve_theta4"] = b.eta / 4.0 - consts["phi"] * consts["eps1"]
    consts["breve_theta1"] = min(consts["breve_theta3"],
                                 consts["breve_theta4"])
    consts["breve_theta8"] = (2.0 * n * d_tilde * d_tilde * xi8_abs
                              * (1.0 + 2.0 * L * L))
    consts["mu"] = mu
    return replace(b, regime="absolute_global", mu_min=0.0, mu=mu, s0=s0)


def bounds_scaled_local(sigma: float, L: float, nu: float, phi_c: float,
                        n: int, d: int, *, cons0: float,
                        track0: float, gap0: float, x0_norm_max: float,
                        y0_norm_max: float) -> ParameterBounds:
    """Full parameter set for the scaled tracker under a locally bounded
    absolute error, including the admissible scaling pair (s0, mu).

    The initial-state summary (consensus, tracking, optimality gap at k=0 and
    the largest agent norms) fixes the s0 floor.  tilde_xi5, which must
    exceed t2/t4, is twice that floor.
    """
    _check_problem(sigma, L)
    if nu <= 0:
        raise AnalysisError("nu must be positive (gradient dominance constant)")
    if not 0.0 < phi_c <= 1.0:
        raise AnalysisError("phi_c must lie in (0, 1]")
    # ||v||_inf <= d_hat ||v||_2 <= d_hat d_tilde ||v||_inf
    d_hat, d_tilde = 1.0, math.sqrt(d)
    one = 1.0 - sigma
    phi = lyapunov_weight(sigma, L)
    L2 = L * L
    fr = 1.0 + 1.0 / phi_c
    pw = phi_c + phi_c**2 - phi_c**3
    t2 = 2.0 * (1.0 + 2.0 * L2) * 8.0 * n * d_tilde**2 * (1.0 - phi_c) ** 2 / one
    t4 = min(0.59 * one, 48.0 * nu * phi / one)
    xi5 = 2.0 * t2 / t4 if t2 > 0 else 2.0 * n * d_tilde**2
    xi8 = 16.0 * n * d_hat**2 * d_tilde**2 * fr
    xi9 = 20.0 * n * d_hat**2 * d_tilde**2 * fr
    xi1 = 4.0 * d_hat**2 * (5.0 + 4.0 * L2) * fr * xi5
    xi2 = 10.0 * L2 * (3.0 + 2.0 * L2) * fr * xi5
    xi3 = xi8 * (1.0 - phi_c) ** 2 + 32.0 * d_hat**2 * fr * xi5
    xi4 = xi9 * (1.0 + L2) * (1.0 - phi_c) ** 2 \
        + 40.0 * d_hat**2 * (1.0 + L2) * fr * xi5

    b = _operating_point("scaled_local", {
        "tilde_gamma_term_1": math.sqrt(pw / (2.0 * xi3)),
        "tilde_gamma_term_2": math.sqrt(pw / (2.0 * xi4)),
        "tilde_gamma_term_3": 2.0 * L2 / (one * nu),
    }, lambda g: {
        "tilde_eta_term_1": one * one * g / (40.0 * L),
        "tilde_eta_term_2": pw / (2.0 * xi1),
        "tilde_eta_term_3": pw / (2.0 * xi2),
        "tilde_eta_term_4": 1.0,
    })
    g, eta = b.gamma, b.eta

    t3 = g * t4
    t1 = 1.0 - t3 + t2 / xi5 * g
    xi6 = 1.0 - pw + eta * xi1 + g * g * xi3
    xi7 = 1.0 - pw + eta * xi2 + g * g * xi4
    candidates = {"tilde_theta1": t1, "tilde_xi6": xi6, "tilde_xi7": xi7}
    binding = max(candidates, key=candidates.get)
    mu_min_sq = candidates[binding]
    if mu_min_sq >= 1.0:
        raise AnalysisError(f"no admissible mu: {binding} = {mu_min_sq} "
                            f">= 1 (binding constraint: {binding})")
    mu_min = math.sqrt(mu_min_sq)

    phi_tilde = scaled_gap_weight(eta, g, sigma, L)
    u0 = cons0 + phi * track0 + phi_tilde * gap0

    consts = b.constants
    consts.update({
        "sigma": sigma, "L_f": L, "nu": nu, "phi_c": phi_c,
        "d_hat": d_hat, "d_tilde": d_tilde, "phi": phi,
        "phi_tilde": phi_tilde, "phi_weight_pw": pw,
        "tilde_theta1": t1, "tilde_theta2": t2, "tilde_theta3": t3,
        "tilde_theta4": t4,
        "tilde_xi1": xi1, "tilde_xi2": xi2, "tilde_xi3": xi3, "tilde_xi4": xi4,
        "tilde_xi5": xi5, "tilde_xi6": xi6, "tilde_xi7": xi7,
        "tilde_xi8": xi8, "tilde_xi9": xi9,
        "u_tilde_0": u0, "eta": eta, "gamma": g,
    })
    for v in consts.values():
        if isinstance(v, float) and not v > 0 and v != 0.0:
            raise AnalysisError(f"non-positive constant produced: {consts}")
    s0_min = max(math.sqrt(u0 / xi5), x0_norm_max, y0_norm_max)
    return replace(b, s0_min=s0_min, s0=s0_min, mu_min=mu_min,
                   mu=0.5 * (mu_min + 1.0))
