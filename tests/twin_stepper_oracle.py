"""Twin-form steppers: a second implementation of the steppers in
``cgtsim.algorithms``.

The update rules as they read with each half of an x/y twin (X and Y, A and
C, ...) held in its own (n, d) array: one numpy call per half, one
compressor-kernel call and one W product per message.  Rows are recorded one
at a time with per-row numpy formulas.  The block steppers store each twin as
one (2, n, d) block and all messages of a step as one (m, n, d) block; they
must reproduce this oracle bitwise: trace columns, x/y history, diag maxima
and final state.

Messages come from the compressor kernel with one message a call, keyed by
(seed, k, slot) as in the runs; unlike ``compressors.compress`` it also takes
the non-finite inputs of a diverging run.  The accumulator identities are
checked by the run's projection R (``algorithms._check_rows``), with R(I - W)
formed here from W.
"""

import numpy as np

from cgtsim.algorithms import (_SCALE_FLOOR, DIAG_NAMES, _check_rows,
                               scaling_sequence)
from cgtsim.compressors import _compress_block
from cgtsim.costs import RunCosts

# the runtime invariants each rule's runs check
CHECKED = {"alg1": DIAG_NAMES[:4], "alg2": DIAG_NAMES[:4],
           "alg3": DIAG_NAMES, "dgt": DIAG_NAMES[:2]}


# Per-row recording formulas; the recorder's batched helpers must reproduce
# them bitwise.  Quadratic gaps follow the Gram recipe anchored at cost.r
# (see costs.RunCosts).

def metrics_oracle(cost, X, Y, G):
    su = cost.suite
    n = X.shape[0]
    xbar = X.mean(axis=0)
    ybar = Y.mean(axis=0)
    gbar = G.mean(axis=0)
    c_k = float(((X - xbar) ** 2).sum())
    t_k = float(((Y - ybar) ** 2).sum())
    if su.kind == "logistic_log":
        z = su.xi @ xbar + su.nu
        s = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                     np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        vsum = float(su.h @ s + su.m.sum() * np.log1p(xbar @ xbar))
        coef = su.h * s * (1.0 - s)
        gsum = coef @ su.xi + (2.0 * su.m.sum() / (1.0 + xbar @ xbar)) * xbar
        g_k = vsum - n * cost.f_star
        s_k = float(gsum @ gsum) / n
    else:
        e = xbar - cost.r
        he = cost.Hbar @ e
        g_k = n * (0.5 * float(e @ he) + float(e @ cost.g_r)) + cost.offset
        g = he + cost.g_r
        s_k = n * float(g @ g)
    ytrack = (float(np.linalg.norm(ybar - gbar))
              / (1.0 + float(np.linalg.norm(gbar))))
    return xbar, ybar, c_k, t_k, g_k, s_k, ytrack


def struct_resid_oracle(Acc, Base, W):
    """The full accumulator residual ||Acc - (I - W) Base|| / ||Base||."""
    ref = max(float(np.linalg.norm(Base)), 1e-30)
    return float(np.linalg.norm(Acc - (Base - W @ Base))) / ref


def struct_proj_oracle(Acc, Base, R, W):
    """The residual projected by R, ||R Acc - R(I - W) Base|| / ||Base||, of
    one (n, d) half: each entry of R Acc and R(I - W) Base summed over the
    agents in ascending order, each norm a reduction over the half."""
    S = R - np.einsum("pi,ij->pj", R, W)
    P = np.einsum("pj,jd->pd", R, Acc) - np.einsum("pj,jd->pd", S, Base)
    num = np.sqrt(np.add.reduce(np.square(P).ravel()))
    den = np.sqrt(np.add.reduce(np.einsum("jd,jd->j", Base, Base)))
    return float(num / max(den, 1e-30))


def row_norm_max_oracle(A):
    return float(np.max(np.abs(A)))


class _RowRecorder:
    """Trace rows and diag maxima of one run, one row at a time."""

    def __init__(self, algo, cost, W, R, eta, lyap, phi_w, phi_aux, s_arr):
        self.algo, self.cost, self.W, self.R, self.eta = algo, cost, W, R, eta
        self.lyap, self.phi_w, self.phi_aux = lyap, phi_w, phi_aux
        self.s_arr = s_arr
        self.cols = {name: [] for name in ("consensus_err", "opt_gap",
                                           "stationarity", "lyapunov",
                                           "x_hist", "y_hist")}
        self.diag = [0.0] * len(DIAG_NAMES)
        self.prev = None

    def _raise(self, i, v):
        self.diag[i] = max(self.diag[i], v)  # a NaN v never wins

    def row(self, k, st):
        """Record row k of the state list; False if the row is non-finite."""
        W, R, s_arr = self.W, self.R, self.s_arr
        X, Y, G = st[:3]
        xbar, ybar, c, t, g, s, ytr = metrics_oracle(self.cost, X, Y, G)
        L = c + self.phi_w * t
        if self.lyap in ("full", "ef"):
            A, C = st[3], st[5]
            L = L + float(((X - A) ** 2).sum()) + float(((Y - C) ** 2).sum())
            L = L + g
            if self.lyap == "ef":
                Ex, Ey = st[7], st[8]
                L = L + self.phi_aux * (float((Ex * Ex).sum())
                                        + float((Ey * Ey).sum()))
        elif self.lyap == "scaled":
            L = L + self.phi_aux * g
        else:
            L = L + g
        for name, v in zip(self.cols, (c, g, s, L, X.copy(), Y.copy())):
            self.cols[name].append(v)
        ok = bool(np.isfinite(c + t + g + s))
        if ok:
            self._raise(1, ytr)
            if self.algo == "alg1":
                A, B, C, D = st[3:7]
                self._raise(2, struct_proj_oracle(B, A, R, W))
                self._raise(3, struct_proj_oracle(D, C, R, W))
            elif self.algo == "alg3":
                Xhat, Yhat, V, Z = st[3:7]
                self._raise(2, struct_proj_oracle(V, Xhat, R, W))
                self._raise(3, struct_proj_oracle(Z, Yhat, R, W))
                self._raise(4, row_norm_max_oracle(X - Xhat) / s_arr[k])
                self._raise(5, row_norm_max_oracle(Y - Yhat) / s_arr[k])
        if k > 0:  # the step into row k
            pxbar, pybar, pX = self.prev
            self._raise(0, float(np.linalg.norm(
                xbar - (pxbar - self.eta * pybar))))
            if self.algo == "alg3":
                self._raise(6, row_norm_max_oracle(pX - st[3])
                            / s_arr[k - 1])
        self.prev = (xbar, ybar, X)
        return ok


def lyapunov_weights_oracle(algo, net, suite, p, comp):
    """The Lyapunov weights a run derives, restated from the paper: phi =
    (1 - sigma)^2 / (320 L_f^2) on the tracking error, and the rule's second
    weight or None.  For alg2 it is the error-feedback weight 0.1 / C
    min(c (2c + 1)) over c1 = phi_x psi r / 2 and c2 = phi_y psi r / 2 of a
    relative-class compressor, and 0 outside that class, when C = 0 or when
    a phi lies outside (0, 1/r).  For alg3 under a locally bounded
    compressor it is the scaled gap weight 0.4 gamma (1 - sigma) / (eta
    L_f^2); there is none for alg3 under another class (the consensus
    function, whose gap weight is 1), alg1 or dgt."""
    L = suite.L_f
    phi = (1.0 - net.sigma) ** 2 / (320.0 * L * L)
    if algo == "alg3" and comp.assumption_class == "local_absolute":
        return phi, 0.4 * p.gamma * (1.0 - net.sigma) / (p.eta * L * L)
    if algo != "alg2":
        return phi, None
    inside = all(0.0 < f < 1.0 / comp.r for f in (p.phi_x, p.phi_y))
    if comp.assumption_class != "relative" or comp.cap_c == 0 or not inside:
        return phi, 0.0
    c1, c2 = (0.5 * f * comp.psi * comp.r for f in (p.phi_x, p.phi_y))
    return phi, 0.1 / comp.cap_c * min(c1 * (2 * c1 + 1), c2 * (2 * c2 + 1))


def run_twin(algo, iters, net, suite, p, comp, seed, x0, *, x_star=None,
             f_star=0.0):
    """The run ``algorithms.run`` makes with these arguments, as a dict of
    its ``run_recorder.RecordedTrace`` fields (``final`` for
    ``final_state``).  The Lyapunov function is alg1's full one, alg2's
    error-feedback one and otherwise the consensus one, or the scaled one
    when ``lyapunov_weights_oracle`` gives alg3 a gap weight; its weights
    are that oracle's."""
    lyap_phi, lyap_aux = lyapunov_weights_oracle(algo, net, suite, p, comp)
    lyap = {"alg1": "full", "alg2": "ef"}.get(
        algo, "consensus" if lyap_aux is None else "scaled")
    W = np.ascontiguousarray(net.W, dtype=np.float64)
    cost = RunCosts(suite, x_star, f_star)
    useed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    eta, gamma = p.eta, p.gamma
    n, d = x0.shape
    s_arr, last = None, iters

    def C(Xin, k, slot):
        return _compress_block(comp, Xin[None], useed, k, slot)[0]

    G = cost.grad(x0)
    if algo in ("alg1", "alg2"):
        use_ef = algo == "alg2"
        Qx, Qy = C(x0, 0, 0), C(G, 0, 1)
        # X, Y, G, A, B, C, D, Ex, Ey, Qx, Qy, Qhx, Qhy; alg1 leaves Ex, Ey,
        # Qhx and Qhy at their start values, and its state names none of them
        st = [x0.copy(), G.copy(), G, *(np.zeros((n, d)) for _ in range(6)),
              Qx, Qy, Qx.copy(), Qy.copy()]
        names = ("x", "y", "g", "a", "b", "c", "dd") + (
            ("ex", "ey", "qx", "qy", "qhx", "qhy") if use_ef
            else (None, None, "qx", "qy"))

        def step(k, st):
            X, Y, G, A, B, Cc, D, Ex, Ey, Qx, Qy, Qhx, Qhy = st
            mixQx = W @ Qx
            mixQy = W @ Qy
            if use_ef:
                mixQhx = W @ Qhx
                mixQhy = W @ Qhy
                Xn = X - gamma * (B + Qhx - mixQhx) - eta * Y
            else:
                Xn = X - gamma * (B + Qx - mixQx) - eta * Y
            Gn = cost.grad(Xn)
            if use_ef:
                Yn = Y - gamma * (D + Qhy - mixQhy) + Gn - G
                Ex = p.varsigma * Ex + X - A - Qhx
                Ey = p.varsigma * Ey + Y - Cc - Qhy
            else:
                Yn = Y - gamma * (D + Qy - mixQy) + Gn - G
            A = A + p.phi_x * Qx
            B = B + p.phi_x * (Qx - mixQx)
            Cc = Cc + p.phi_y * Qy
            D = D + p.phi_y * (Qy - mixQy)
            Qx = C(Xn - A, k + 1, 0)
            Qy = C(Yn - Cc, k + 1, 1)
            if use_ef:
                Qhx = C(p.varsigma * Ex + Xn - A, k + 1, 2)
                Qhy = C(p.varsigma * Ey + Yn - Cc, k + 1, 3)
            st[:] = Xn, Yn, Gn, A, B, Cc, D, Ex, Ey, Qx, Qy, Qhx, Qhy
        rec_algo = "alg1"
    elif algo == "alg3":
        s_arr = scaling_sequence(p.s0, p.mu, iters)
        below = np.flatnonzero(s_arr[1:] < _SCALE_FLOOR)
        last = int(below[0]) if below.size else iters
        # X, Y, G, Xhat, Yhat, V, Z, Qx, Qy
        st = [x0.copy(), G.copy(), G, *(np.zeros((n, d)) for _ in range(4)),
              C(x0 / s_arr[0], 0, 0), C(G / s_arr[0], 0, 1)]
        names = ("x", "y", "g", "xhat", "yhat", "v", "z", "qx", "qy")

        def step(k, st):
            X, Y, G, Xhat, Yhat, V, Z, Qx, Qy = st
            mixQx = W @ Qx
            mixQy = W @ Qy
            sk = s_arr[k]
            Xhat = Xhat + sk * Qx
            V = V + sk * (Qx - mixQx)
            Yhat = Yhat + sk * Qy
            Z = Z + sk * (Qy - mixQy)
            Xn = X - gamma * V - eta * Y
            Gn = cost.grad(Xn)
            Yn = Y - gamma * Z + Gn - G
            snext = s_arr[k + 1]
            st[:] = (Xn, Yn, Gn, Xhat, Yhat, V, Z,
                     C((Xn - Xhat) / snext, k + 1, 0),
                     C((Yn - Yhat) / snext, k + 1, 1))
        rec_algo = "alg3"
    else:
        st = [x0.copy(), G.copy(), G]  # X, Y, G
        names = ("x", "y", "g")

        def step(k, st):
            X, Y, G = st
            Xn = X - gamma * (X - W @ X) - eta * Y
            Gn = cost.grad(Xn)
            st[:] = Xn, Y - gamma * (Y - W @ Y) + Gn - G, Gn
        rec_algo = "dgt"

    rec = _RowRecorder(rec_algo, cost, W, _check_rows(seed, n), eta, lyap,
                       lyap_phi, lyap_aux, s_arr)
    status, k_done = ("ok" if last == iters else "scaling_exhausted"), last
    with np.errstate(all="ignore"):
        for k in range(last + 1):
            if not rec.row(k, st):
                status, k_done = "nonfinite_state", k
                break
            if k < last:
                step(k, st)
    out = {name: np.array(v) for name, v in rec.cols.items()}
    out.update(status=status, lyapunov_name=lyap,
               failed_at=None if status == "ok" else k_done,
               diagnostics={name: v for name, v in zip(DIAG_NAMES, rec.diag)
                            if name in CHECKED[algo]},
               final={name: a for name, a in zip(names, st)
                      if name not in ("g", None)})
    return out
