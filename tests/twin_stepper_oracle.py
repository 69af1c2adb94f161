"""Twin-form steppers: a second implementation of ``cgtsim._kernels``.

The update rules as they read with each half of an x/y twin (X and Y, A and
C, ...) held in its own (n, d) array: one numpy call per half, one
compressor-kernel call and one W product per message.  Rows are recorded one
at a time with per-row numpy formulas.  The block steppers store each twin as
one (2, n, d) block and all messages of a step as one (m, n, d) block; they
must reproduce this oracle bitwise: trace columns, x/y history, diag maxima
and final state.

Messages come from the compressor kernel with one message a call, keyed by
(seed, k, slot) as in the runs; unlike ``compressors.compress`` it also takes
the non-finite inputs of a diverging run.
"""

import math

import numpy as np

from cgtsim import _kernels
from cgtsim.algorithms import DIAG_NAMES, scaling_sequence
from cgtsim.costs import RunCosts

LYAP_FULL, LYAP_EF, LYAP_CONSENSUS, LYAP_SCALED = range(4)


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
    ref = max(float(np.linalg.norm(Base)), 1e-30)
    return float(np.linalg.norm(Acc - (Base - W @ Base))) / ref


def row_norm_max_oracle(A, ip_norm):
    if ip_norm == 0:
        return float(np.max(np.abs(A)))
    return float(np.sqrt((A * A).sum(axis=1)).max())


class _RowRecorder:
    """Trace rows and diag maxima of one run, one row at a time."""

    def __init__(self, algo, cost, W, eta, lyap_kind, phi_w, phi_aux, s_arr,
                 ip_norm):
        self.algo, self.cost, self.W, self.eta = algo, cost, W, eta
        self.lyap_kind, self.phi_w, self.phi_aux = lyap_kind, phi_w, phi_aux
        self.s_arr, self.ip_norm = s_arr, ip_norm
        self.cols = {name: [] for name in ("consensus_err", "opt_gap",
                                           "stationarity", "lyapunov",
                                           "x_hist", "y_hist")}
        self.diag = [0.0] * len(DIAG_NAMES)
        self.prev = None

    def _raise(self, i, v):
        self.diag[i] = max(self.diag[i], v)  # a NaN v never wins

    def row(self, k, st):
        """Record row k of the state list; False if the row is non-finite."""
        W, ip, s_arr = self.W, self.ip_norm, self.s_arr
        X, Y, G = st[:3]
        xbar, ybar, c, t, g, s, ytr = metrics_oracle(self.cost, X, Y, G)
        L = c + self.phi_w * t
        if self.algo == "alg1" and self.lyap_kind in (LYAP_FULL, LYAP_EF):
            A, C = st[3], st[5]
            L = L + float(((X - A) ** 2).sum()) + float(((Y - C) ** 2).sum())
            L = L + g
            if self.lyap_kind == LYAP_EF:
                Ex, Ey = st[7], st[8]
                L = L + self.phi_aux * (float((Ex * Ex).sum())
                                        + float((Ey * Ey).sum()))
        elif self.lyap_kind == LYAP_SCALED:
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
                self._raise(2, struct_resid_oracle(B, A, W))
                self._raise(3, struct_resid_oracle(D, C, W))
            elif self.algo == "alg3":
                Xhat, Yhat = st[3:5]
                self._raise(4, row_norm_max_oracle(X - Xhat, ip) / s_arr[k])
                self._raise(5, row_norm_max_oracle(Y - Yhat, ip) / s_arr[k])
        if k > 0:  # the step into row k
            pxbar, pybar, pX = self.prev
            self._raise(0, float(np.linalg.norm(
                xbar - (pxbar - self.eta * pybar))))
            if self.algo == "alg3":
                Xhat, Yhat, V, Z = st[3:7]
                self._raise(2, struct_resid_oracle(V, Xhat, W))
                self._raise(3, struct_resid_oracle(Z, Yhat, W))
                self._raise(6, row_norm_max_oracle(pX - Xhat, ip)
                            / s_arr[k - 1])
        self.prev = (xbar, ybar, X)
        return ok


def run_twin(algo, iters, net, suite, p, comp, seed, x0, *, x_star=None,
             f_star=0.0, lyap_kind, lyap_phi, lyap_aux):
    """The run ``algorithms.run`` makes with these arguments, as a dict of
    its RunTrace fields (``final`` for ``final_state``)."""
    W = np.ascontiguousarray(net.W, dtype=np.float64)
    cost = RunCosts(suite, x_star, f_star)
    useed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    eta, gamma = p.eta, p.gamma
    n, d = x0.shape
    s_arr, ip_norm, last = None, 0, iters

    def C(Xin, k, slot):
        return _kernels._compress_block_np(
            comp.kind_code, *comp.kernel_params(), Xin[None], useed, k,
            slot)[0]

    G = cost.grad(x0)
    if algo in ("alg1", "alg2"):
        use_ef = algo == "alg2"
        Qx, Qy = C(x0, 0, 0), C(G, 0, 1)
        # X, Y, G, A, B, C, D, Ex, Ey, Qx, Qy, Qhx, Qhy
        st = [x0.copy(), G.copy(), G, *(np.zeros((n, d)) for _ in range(6)),
              Qx, Qy, Qx.copy(), Qy.copy()]
        names = ("x", "y", "g", "a", "b", "c", "dd", "ex", "ey", "qx", "qy",
                 "qhx", "qhy")

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
        ip_norm = 0 if math.isinf(comp.p_norm) else 1
        below = np.flatnonzero(s_arr[1:] < _kernels._SCALE_FLOOR)
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
        lyap_kind = LYAP_CONSENSUS

        def step(k, st):
            X, Y, G = st
            Xn = X - gamma * (X - W @ X) - eta * Y
            Gn = cost.grad(Xn)
            st[:] = Xn, Y - gamma * (Y - W @ Y) + Gn - G, Gn
        rec_algo = "dgt"

    rec = _RowRecorder(rec_algo, cost, W, eta, lyap_kind, lyap_phi, lyap_aux,
                       s_arr, ip_norm)
    status, k_done = ("ok" if last == iters else "scaling_exhausted"), last
    with np.errstate(all="ignore"):
        for k in range(last + 1):
            if not rec.row(k, st):
                status, k_done = "nonfinite_state", k
                break
            if k < last:
                step(k, st)
    out = {name: np.array(v) for name, v in rec.cols.items()}
    out.update(status=status,
               failed_at=None if status == "ok" else k_done,
               diagnostics=dict(zip(DIAG_NAMES, rec.diag)),
               final={name: a for name, a in zip(names, st) if name != "g"})
    return out
