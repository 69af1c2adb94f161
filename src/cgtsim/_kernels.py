"""Iteration kernels: numba-compiled loops plus a vectorized numpy fallback.

Backend selection: ``CGT_BACKEND=numpy`` (or ``numba``) in the environment, or
``set_backend()`` at runtime.  Default is numba when importable; without it,
``CGT_BACKEND=numba`` falls back to numpy with a ``RuntimeWarning`` and
``set_backend("numba")`` raises.  Both paths draw compressor randomness from
the same counter-based splitmix64 stream, so a given (seed, iteration, agent,
slot) tuple yields identical draws; trajectories agree across backends up to
floating-point summation order.

The numpy steppers only step.  One block recorder (``_BlockRecorder``) takes
each row's state and, every B rows, computes the trace rows, the state
history and the diag maxima for the whole block at once.  Its batched
products make the same BLAS call per row as recording row by row, so the
result is bitwise equal to per-step recording.  B = clamp(1 MiB // bytes per
recorded row, 1, 64) follows from n*d and the number of (n, d) arrays a row
records: 3 for dgt, 7 for alg1 and alg3, 9 under the EF Lyapunov weight
(the alg2 default).  At n=20, d=50 that is 43, 18 and 14; B is 1 once a row
passes 512 KiB (n*d above about 22000 for dgt and 9400 for alg1/alg3).  At
B = 1 rows are recorded in place, without copies or checkpoints.  A
non-finite row ends the run at that row: the steps already taken past it
inside the block are discarded by replaying from the block's first row.

Shared conventions:

* agent states are stacked row-wise, shape (n, d)
* metric arrays hold one record per iteration index 0..iters
* ``diag`` collects running maxima of the runtime invariants:
  0 mean-x recursion residual, 1 relative mean-y tracking residual,
  2/3 structural accumulator residuals, 4/5 scaled-difference induction
  ratios, 6 post-update compression error ratio
* status codes: 0 ok, 1 non-finite state, 2 scaling underflow
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # numba is an optional extra; loops run interpreted
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap


_BACKEND_OVERRIDE: str | None = None

STATUS_OK = 0
STATUS_NONFINITE = 1
STATUS_SCALE_UNDERFLOW = 2

# compressor kind codes (see compressors.KIND_CODES)
K_IDENTITY, K_NORM_SIGN, K_UNIFORM, K_ONE_BIT = 0, 1, 2, 3
K_SPARSIFY_TOP, K_SPARSIFY_RAND, K_RAND_QUANT = 4, 5, 6

COST_LOGISTIC, COST_QUADRATIC = 0, 1
LYAP_FULL, LYAP_EF, LYAP_CONSENSUS, LYAP_SCALED = 0, 1, 2, 3

_SCALE_FLOOR = 1e-300


def set_backend(name: str | None) -> None:
    """Force 'numba' or 'numpy'; None restores the environment default."""
    global _BACKEND_OVERRIDE
    if name not in (None, "numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not NUMBA_AVAILABLE:
        raise ValueError("numba backend requested but numba is not importable")
    _BACKEND_OVERRIDE = name


def active_backend() -> str:
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    env = os.environ.get("CGT_BACKEND", "").strip().lower()
    if env in ("numba", "numpy"):
        if env == "numba" and not NUMBA_AVAILABLE:
            warnings.warn("CGT_BACKEND=numba but numba is not importable; "
                          "using the numpy backend", RuntimeWarning,
                          stacklevel=2)
            return "numpy"
        return env
    return "numba" if NUMBA_AVAILABLE else "numpy"


# ---------------------------------------------------------------------------
# counter-based randomness (identical across backends)

_U1 = np.uint64(0x9E3779B97F4A7C15)
_U2 = np.uint64(0xBF58476D1CE4E5B9)
_U3 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(30), np.uint64(27), np.uint64(31),
                          np.uint64(11))
_KITER = np.uint64(0xA076_1D64_78BD_642F)
_KAGENT = np.uint64(0xE703_7ED1_A0B4_28DB)
_KSLOT = np.uint64(0x8EBC_6AF0_9C88_C6E3)
_INV53 = 1.0 / 9007199254740992.0


@njit(cache=True)
def _mix64(z):
    z = z + _U1
    z = (z ^ (z >> _S30)) * _U2
    z = (z ^ (z >> _S27)) * _U3
    return z ^ (z >> _S31)


@njit(cache=True)
def _u01(z):
    return (_mix64(z) >> _S11) * _INV53


@njit(cache=True)
def _msg_base(seed, k, agent, slot):
    return _mix64(seed
                  ^ (np.uint64(k + 1) * _KITER)
                  ^ (np.uint64(agent + 1) * _KAGENT)
                  ^ (np.uint64(slot + 1) * _KSLOT))


def _mix64_np(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = z + _U1
        z = (z ^ (z >> _S30)) * _U2
        z = (z ^ (z >> _S27)) * _U3
        return z ^ (z >> _S31)


def _u01_np(z: np.ndarray) -> np.ndarray:
    return (_mix64_np(z) >> _S11) * _INV53


def _msg_base_np(seed: int, k: int, n: int, slot: int) -> np.ndarray:
    agents = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (np.uint64(seed)
             ^ (np.uint64(k + 1) * _KITER)
             ^ (agents * _KAGENT)
             ^ (np.uint64(slot + 1) * _KSLOT))
    return _mix64_np(z)


# ---------------------------------------------------------------------------
# compression (numba row kernel / numpy block)

@njit(cache=True)
def _compress_rows(kind, p1, p2, ip, Q, Xin, seed, k, slot):
    """Compress each row of Xin into Q; p1 grid step, p2 rescale, ip count."""
    n, d = Xin.shape
    for i in range(n):
        if kind == K_IDENTITY:
            for j in range(d):
                Q[i, j] = Xin[i, j]
        elif kind == K_NORM_SIGN:
            a = 0.0
            for j in range(d):
                v = abs(Xin[i, j])
                if v > a:
                    a = v
            if a == 0.0:
                for j in range(d):
                    Q[i, j] = 0.0
            else:
                half = 0.5 * a
                for j in range(d):
                    Q[i, j] = half if Xin[i, j] >= 0.0 else -half
        elif kind == K_UNIFORM:
            for j in range(d):
                Q[i, j] = p1 * np.floor(Xin[i, j] / p1 + 0.5)
        elif kind == K_ONE_BIT:
            for j in range(d):
                Q[i, j] = 0.5 if Xin[i, j] >= 0.0 else -0.5
        elif kind == K_SPARSIFY_TOP:
            mag = np.empty(d)
            for j in range(d):
                mag[j] = -abs(Xin[i, j])
            order = np.argsort(mag, kind="mergesort")
            for j in range(d):
                Q[i, j] = 0.0
            for t in range(ip):
                j = order[t]
                Q[i, j] = Xin[i, j] * p2
        elif kind == K_SPARSIFY_RAND:
            base = _msg_base(seed, k, i, slot)
            idx = np.arange(d)
            for t in range(ip):
                u = _u01(base + np.uint64(t))
                j = t + int(u * (d - t))
                if j >= d:
                    j = d - 1
                tmp = idx[t]
                idx[t] = idx[j]
                idx[j] = tmp
            for j in range(d):
                Q[i, j] = 0.0
            for t in range(ip):
                j = idx[t]
                Q[i, j] = Xin[i, j] * p2
        else:  # K_RAND_QUANT
            a = 0.0
            for j in range(d):
                v = abs(Xin[i, j])
                if v > a:
                    a = v
            if a == 0.0:
                for j in range(d):
                    Q[i, j] = 0.0
            else:
                base = _msg_base(seed, k, i, slot)
                h = 2.0 * a / (ip - 1)
                for j in range(d):
                    t = (Xin[i, j] + a) / h
                    lo = np.floor(t)
                    u = _u01(base + np.uint64(j))
                    lvl = lo + 1.0 if u < (t - lo) else lo
                    Q[i, j] = lvl * h - a


def _compress_block_np(kind, p1, p2, ip, Xin, seed, k, slot):
    n, d = Xin.shape
    if kind == K_IDENTITY:
        return Xin.copy()
    if kind == K_NORM_SIGN:
        a = np.abs(Xin).max(axis=1, keepdims=True)
        half = 0.5 * a
        return np.where(a > 0.0, np.where(Xin >= 0.0, half, -half), 0.0)
    if kind == K_UNIFORM:
        return p1 * np.floor(Xin / p1 + 0.5)
    if kind == K_ONE_BIT:
        return np.where(Xin >= 0.0, 0.5, -0.5)
    if kind == K_SPARSIFY_TOP:
        order = np.argsort(-np.abs(Xin), axis=1, kind="stable")[:, :ip]
        out = np.zeros_like(Xin)
        rows = np.arange(n)[:, None]
        out[rows, order] = Xin[rows, order] * p2
        return out
    if kind == K_SPARSIFY_RAND:
        bases = _msg_base_np(seed, k, n, slot)
        out = np.zeros_like(Xin)
        for i in range(n):
            idx = np.arange(d)
            for t in range(ip):
                u = float(_u01_np(bases[i] + np.uint64(t)))
                j = min(t + int(u * (d - t)), d - 1)
                idx[t], idx[j] = idx[j], idx[t]
            out[i, idx[:ip]] = Xin[i, idx[:ip]] * p2
        return out
    # K_RAND_QUANT
    a = np.max(np.abs(Xin), axis=1, keepdims=True)
    safe = np.where(a > 0.0, a, 1.0)
    h = 2.0 * safe / (ip - 1)
    t = (Xin + safe) / h
    lo = np.floor(t)
    bases = _msg_base_np(seed, k, n, slot)
    keys = bases[:, None] + np.arange(d, dtype=np.uint64)[None, :]
    u = _u01_np(keys)
    lvl = lo + (u < (t - lo))
    return np.where(a > 0.0, lvl * h - safe, 0.0)


# ---------------------------------------------------------------------------
# cost helpers (numba)

@njit(cache=True)
def _sigmoid_s(z):
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


@njit(cache=True)
def _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, X, G):
    n, d = X.shape
    if cost_kind == COST_LOGISTIC:
        for i in range(n):
            z = nuv[i]
            r2 = 0.0
            for j in range(d):
                z += xi[i, j] * X[i, j]
                r2 += X[i, j] * X[i, j]
            s = _sigmoid_s(z)
            ch = h[i] * s * (1.0 - s)
            cl = 2.0 * m[i] / (1.0 + r2)
            for j in range(d):
                G[i, j] = ch * xi[i, j] + cl * X[i, j]
    else:
        rows = Mq.shape[1]
        for i in range(n):
            for j in range(d):
                G[i, j] = 0.0
            for r in range(rows):
                resid = -bq[i, r]
                for j in range(d):
                    resid += Mq[i, r, j] * X[i, j]
                for j in range(d):
                    G[i, j] += Mq[i, r, j] * resid


@njit(cache=True)
def _value_sum_nb(cost_kind, h, nuv, m, xi, Mq, bq, x):
    total = 0.0
    d = x.shape[0]
    if cost_kind == COST_LOGISTIC:
        n = h.shape[0]
        r2 = 0.0
        for j in range(d):
            r2 += x[j] * x[j]
        lg = np.log1p(r2)
        for i in range(n):
            z = nuv[i]
            for j in range(d):
                z += xi[i, j] * x[j]
            total += h[i] * _sigmoid_s(z) + m[i] * lg
    else:
        n = Mq.shape[0]
        rows = Mq.shape[1]
        for i in range(n):
            for r in range(rows):
                resid = -bq[i, r]
                for j in range(d):
                    resid += Mq[i, r, j] * x[j]
                total += 0.5 * resid * resid
    return total


@njit(cache=True)
def _grad_sum_sq_nb(cost_kind, h, nuv, m, xi, Mq, bq, x):
    """||sum_i grad F_i(x)||^2 at a single point."""
    d = x.shape[0]
    g = np.zeros(d)
    if cost_kind == COST_LOGISTIC:
        n = h.shape[0]
        r2 = 0.0
        for j in range(d):
            r2 += x[j] * x[j]
        for i in range(n):
            z = nuv[i]
            for j in range(d):
                z += xi[i, j] * x[j]
            s = _sigmoid_s(z)
            ch = h[i] * s * (1.0 - s)
            cl = 2.0 * m[i] / (1.0 + r2)
            for j in range(d):
                g[j] += ch * xi[i, j] + cl * x[j]
    else:
        n = Mq.shape[0]
        rows = Mq.shape[1]
        for i in range(n):
            for r in range(rows):
                resid = -bq[i, r]
                for j in range(d):
                    resid += Mq[i, r, j] * x[j]
                for j in range(d):
                    g[j] += Mq[i, r, j] * resid
    acc = 0.0
    for j in range(d):
        acc += g[j] * g[j]
    return acc


@njit(cache=True)
def _frob_sq(A):
    acc = 0.0
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            acc += A[i, j] * A[i, j]
    return acc


@njit(cache=True)
def _col_mean(A, out):
    n, d = A.shape
    for j in range(d):
        acc = 0.0
        for i in range(n):
            acc += A[i, j]
        out[j] = acc / n


@njit(cache=True)
def _dev_sq_from_mean(A, mean):
    acc = 0.0
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            v = A[i, j] - mean[j]
            acc += v * v
    return acc


@njit(cache=True)
def _struct_resid(Acc, Base, W):
    """||Acc - (I - W) Base||_F / max(||Base||_F, eps)."""
    n, d = Base.shape
    mix = W @ Base
    acc = 0.0
    for i in range(n):
        for j in range(d):
            v = Acc[i, j] - (Base[i, j] - mix[i, j])
            acc += v * v
    ref = np.sqrt(_frob_sq(Base))
    return np.sqrt(acc) / (ref if ref > 1e-30 else 1e-30)


@njit(cache=True)
def _row_norm_max(A, ip_norm):
    """max_i ||A_i||_p with p in {inf (0), 2 (1)}."""
    worst = 0.0
    for i in range(A.shape[0]):
        if ip_norm == 0:
            v = 0.0
            for j in range(A.shape[1]):
                w = abs(A[i, j])
                if w > v:
                    v = w
        else:
            acc = 0.0
            for j in range(A.shape[1]):
                acc += A[i, j] * A[i, j]
            v = np.sqrt(acc)
        if v > worst:
            worst = v
    return worst


# ---------------------------------------------------------------------------
# full-run kernels (numba)

@njit(cache=True)
def _run_alg1_nb(X0, W, eta, gamma, phix, phiy, varsigma, use_ef,
                 ckind, cp1, cp2, cip, seed,
                 cost_kind, h, nuv, m, xi, Mq, bq,
                 fstar, lyap_kind, phi_w, phi_aux, iters,
                 cons, gap, stat, lyap, diag, Xh, Yh,
                 SX, SY, SA, SB, SC, SD, SEx, SEy, SQX, SQY, SQhX, SQhY):
    """Relative-class tracker; with use_ef it runs the error-feedback variant."""
    n, d = X0.shape
    X = X0.copy()
    G = np.empty((n, d))
    _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, X, G)
    Y = G.copy()
    A = np.zeros((n, d))
    B = np.zeros((n, d))
    C = np.zeros((n, d))
    D = np.zeros((n, d))
    Ex = np.zeros((n, d))
    Ey = np.zeros((n, d))
    Qx = np.empty((n, d))
    Qy = np.empty((n, d))
    _compress_rows(ckind, cp1, cp2, cip, Qx, X, seed, 0, 0)
    _compress_rows(ckind, cp1, cp2, cip, Qy, Y, seed, 0, 1)
    Qhx = Qx.copy()
    Qhy = Qy.copy()

    xbar = np.empty(d)
    ybar = np.empty(d)
    gbar = np.empty(d)
    status = STATUS_OK
    k_done = iters
    for k in range(iters + 1):
        _col_mean(X, xbar)
        _col_mean(Y, ybar)
        _col_mean(G, gbar)
        c_k = _dev_sq_from_mean(X, xbar)
        t_k = _dev_sq_from_mean(Y, ybar)
        g_k = _value_sum_nb(cost_kind, h, nuv, m, xi, Mq, bq, xbar) - n * fstar
        s_k = _grad_sum_sq_nb(cost_kind, h, nuv, m, xi, Mq, bq, xbar) / n
        nA = 0.0
        nC = 0.0
        for i in range(n):
            for j in range(d):
                va = X[i, j] - A[i, j]
                vc = Y[i, j] - C[i, j]
                nA += va * va
                nC += vc * vc
        if lyap_kind == LYAP_FULL:
            L = c_k + phi_w * t_k + nA + nC + g_k
        elif lyap_kind == LYAP_EF:
            L = c_k + phi_w * t_k + nA + nC + g_k \
                + phi_aux * (_frob_sq(Ex) + _frob_sq(Ey))
        elif lyap_kind == LYAP_SCALED:
            L = c_k + phi_w * t_k + phi_aux * g_k
        else:
            L = c_k + phi_w * t_k + g_k
        cons[k] = c_k
        gap[k] = g_k
        stat[k] = s_k
        lyap[k] = L
        if Xh.shape[0] > 0:
            for i in range(n):
                for j in range(d):
                    Xh[k, i, j] = X[i, j]
                    Yh[k, i, j] = Y[i, j]
        if not (np.isfinite(c_k) and np.isfinite(t_k) and np.isfinite(g_k)
                and np.isfinite(s_k)):
            status = STATUS_NONFINITE
            k_done = k
            break
        # mean-y tracking residual at the recorded state
        acc = 0.0
        gn = 0.0
        for j in range(d):
            v = ybar[j] - gbar[j]
            acc += v * v
            gn += gbar[j] * gbar[j]
        r = np.sqrt(acc) / (1.0 + np.sqrt(gn))
        if r > diag[1]:
            diag[1] = r
        rb = _struct_resid(B, A, W)
        if rb > diag[2]:
            diag[2] = rb
        rd = _struct_resid(D, C, W)
        if rd > diag[3]:
            diag[3] = rd
        if k == iters:
            break

        mixQx = W @ Qx
        mixQy = W @ Qy
        if use_ef == 1:
            mixQhx = W @ Qhx
            mixQhy = W @ Qhy
        else:
            mixQhx = mixQx
            mixQhy = mixQy
        Xn = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                if use_ef == 1:
                    cterm = B[i, j] + Qhx[i, j] - mixQhx[i, j]
                else:
                    cterm = B[i, j] + Qx[i, j] - mixQx[i, j]
                Xn[i, j] = X[i, j] - gamma * cterm - eta * Y[i, j]
        Gn = np.empty((n, d))
        _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, Xn, Gn)
        Yn = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                if use_ef == 1:
                    cterm = D[i, j] + Qhy[i, j] - mixQhy[i, j]
                else:
                    cterm = D[i, j] + Qy[i, j] - mixQy[i, j]
                Yn[i, j] = Y[i, j] - gamma * cterm + Gn[i, j] - G[i, j]
        if use_ef == 1:
            for i in range(n):
                for j in range(d):
                    ex = varsigma * Ex[i, j] + X[i, j] - A[i, j] - Qhx[i, j]
                    ey = varsigma * Ey[i, j] + Y[i, j] - C[i, j] - Qhy[i, j]
                    Ex[i, j] = ex
                    Ey[i, j] = ey
        for i in range(n):
            for j in range(d):
                A[i, j] += phix * Qx[i, j]
                B[i, j] += phix * (Qx[i, j] - mixQx[i, j])
                C[i, j] += phiy * Qy[i, j]
                D[i, j] += phiy * (Qy[i, j] - mixQy[i, j])
        buf = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                buf[i, j] = Xn[i, j] - A[i, j]
        _compress_rows(ckind, cp1, cp2, cip, Qx, buf, seed, k + 1, 0)
        for i in range(n):
            for j in range(d):
                buf[i, j] = Yn[i, j] - C[i, j]
        _compress_rows(ckind, cp1, cp2, cip, Qy, buf, seed, k + 1, 1)
        if use_ef == 1:
            for i in range(n):
                for j in range(d):
                    buf[i, j] = varsigma * Ex[i, j] + Xn[i, j] - A[i, j]
            _compress_rows(ckind, cp1, cp2, cip, Qhx, buf, seed, k + 1, 2)
            for i in range(n):
                for j in range(d):
                    buf[i, j] = varsigma * Ey[i, j] + Yn[i, j] - C[i, j]
            _compress_rows(ckind, cp1, cp2, cip, Qhy, buf, seed, k + 1, 3)
        # mean-x recursion residual
        acc = 0.0
        for j in range(d):
            want = xbar[j] - eta * ybar[j]
            got = 0.0
            for i in range(n):
                got += Xn[i, j]
            got /= n
            v = got - want
            acc += v * v
        r = np.sqrt(acc)
        if r > diag[0]:
            diag[0] = r
        X = Xn
        Y = Yn
        G = Gn

    for i in range(n):
        for j in range(d):
            SX[i, j] = X[i, j]
            SY[i, j] = Y[i, j]
            SA[i, j] = A[i, j]
            SB[i, j] = B[i, j]
            SC[i, j] = C[i, j]
            SD[i, j] = D[i, j]
            SEx[i, j] = Ex[i, j]
            SEy[i, j] = Ey[i, j]
            SQX[i, j] = Qx[i, j]
            SQY[i, j] = Qy[i, j]
            SQhX[i, j] = Qhx[i, j]
            SQhY[i, j] = Qhy[i, j]
    return status, k_done


@njit(cache=True)
def _run_alg3_nb(X0, W, eta, gamma, s_arr, ip_norm,
                 ckind, cp1, cp2, cip, seed,
                 cost_kind, h, nuv, m, xi, Mq, bq,
                 fstar, lyap_kind, phi_w, phi_aux, iters,
                 cons, gap, stat, lyap, diag, Xh, Yh,
                 SX, SY, SXhat, SV, SYhat, SZ, SQX, SQY):
    """Scaled-difference tracker for absolute-error compressors."""
    n, d = X0.shape
    X = X0.copy()
    G = np.empty((n, d))
    _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, X, G)
    Y = G.copy()
    Xhat = np.zeros((n, d))
    V = np.zeros((n, d))
    Yhat = np.zeros((n, d))
    Z = np.zeros((n, d))
    Qx = np.empty((n, d))
    Qy = np.empty((n, d))
    buf = np.empty((n, d))
    for i in range(n):
        for j in range(d):
            buf[i, j] = X[i, j] / s_arr[0]
    _compress_rows(ckind, cp1, cp2, cip, Qx, buf, seed, 0, 0)
    for i in range(n):
        for j in range(d):
            buf[i, j] = Y[i, j] / s_arr[0]
    _compress_rows(ckind, cp1, cp2, cip, Qy, buf, seed, 0, 1)

    xbar = np.empty(d)
    ybar = np.empty(d)
    gbar = np.empty(d)
    status = STATUS_OK
    k_done = iters
    for k in range(iters + 1):
        _col_mean(X, xbar)
        _col_mean(Y, ybar)
        _col_mean(G, gbar)
        c_k = _dev_sq_from_mean(X, xbar)
        t_k = _dev_sq_from_mean(Y, ybar)
        g_k = _value_sum_nb(cost_kind, h, nuv, m, xi, Mq, bq, xbar) - n * fstar
        s_k = _grad_sum_sq_nb(cost_kind, h, nuv, m, xi, Mq, bq, xbar) / n
        if lyap_kind == LYAP_SCALED:
            L = c_k + phi_w * t_k + phi_aux * g_k
        else:
            L = c_k + phi_w * t_k + g_k
        cons[k] = c_k
        gap[k] = g_k
        stat[k] = s_k
        lyap[k] = L
        if Xh.shape[0] > 0:
            for i in range(n):
                for j in range(d):
                    Xh[k, i, j] = X[i, j]
                    Yh[k, i, j] = Y[i, j]
        if not (np.isfinite(c_k) and np.isfinite(t_k) and np.isfinite(g_k)
                and np.isfinite(s_k)):
            status = STATUS_NONFINITE
            k_done = k
            break
        acc = 0.0
        gn = 0.0
        for j in range(d):
            v = ybar[j] - gbar[j]
            acc += v * v
            gn += gbar[j] * gbar[j]
        r = np.sqrt(acc) / (1.0 + np.sqrt(gn))
        if r > diag[1]:
            diag[1] = r
        # scaled-difference induction ratios at state k (hat states lag by one)
        for i in range(n):
            for j in range(d):
                buf[i, j] = X[i, j] - Xhat[i, j]
        rx = _row_norm_max(buf, ip_norm) / s_arr[k]
        if rx > diag[4]:
            diag[4] = rx
        for i in range(n):
            for j in range(d):
                buf[i, j] = Y[i, j] - Yhat[i, j]
        ry = _row_norm_max(buf, ip_norm) / s_arr[k]
        if ry > diag[5]:
            diag[5] = ry
        if k == iters:
            break
        if s_arr[k + 1] < _SCALE_FLOOR:
            status = STATUS_SCALE_UNDERFLOW
            k_done = k
            break

        mixQx = W @ Qx
        mixQy = W @ Qy
        sk = s_arr[k]
        for i in range(n):
            for j in range(d):
                Xhat[i, j] += sk * Qx[i, j]
                V[i, j] += sk * (Qx[i, j] - mixQx[i, j])
                Yhat[i, j] += sk * Qy[i, j]
                Z[i, j] += sk * (Qy[i, j] - mixQy[i, j])
        rv = _struct_resid(V, Xhat, W)
        if rv > diag[2]:
            diag[2] = rv
        rz = _struct_resid(Z, Yhat, W)
        if rz > diag[3]:
            diag[3] = rz
        # post-update compression error ratio ||X - Xhat||_p / s(k)
        for i in range(n):
            for j in range(d):
                buf[i, j] = X[i, j] - Xhat[i, j]
        rc = _row_norm_max(buf, ip_norm) / sk
        if rc > diag[6]:
            diag[6] = rc
        Xn = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                Xn[i, j] = X[i, j] - gamma * V[i, j] - eta * Y[i, j]
        Gn = np.empty((n, d))
        _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, Xn, Gn)
        Yn = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                Yn[i, j] = Y[i, j] - gamma * Z[i, j] + Gn[i, j] - G[i, j]
        snext = s_arr[k + 1]
        for i in range(n):
            for j in range(d):
                buf[i, j] = (Xn[i, j] - Xhat[i, j]) / snext
        _compress_rows(ckind, cp1, cp2, cip, Qx, buf, seed, k + 1, 0)
        for i in range(n):
            for j in range(d):
                buf[i, j] = (Yn[i, j] - Yhat[i, j]) / snext
        _compress_rows(ckind, cp1, cp2, cip, Qy, buf, seed, k + 1, 1)
        acc = 0.0
        for j in range(d):
            want = xbar[j] - eta * ybar[j]
            got = 0.0
            for i in range(n):
                got += Xn[i, j]
            got /= n
            v = got - want
            acc += v * v
        r = np.sqrt(acc)
        if r > diag[0]:
            diag[0] = r
        X = Xn
        Y = Yn
        G = Gn

    for i in range(n):
        for j in range(d):
            SX[i, j] = X[i, j]
            SY[i, j] = Y[i, j]
            SXhat[i, j] = Xhat[i, j]
            SV[i, j] = V[i, j]
            SYhat[i, j] = Yhat[i, j]
            SZ[i, j] = Z[i, j]
            SQX[i, j] = Qx[i, j]
            SQY[i, j] = Qy[i, j]
    return status, k_done


@njit(cache=True)
def _run_dgt_nb(X0, W, eta, gamma,
                cost_kind, h, nuv, m, xi, Mq, bq,
                fstar, phi_w, iters,
                cons, gap, stat, lyap, diag, Xh, Yh, SX, SY):
    """Exact-communication gradient tracking baseline."""
    n, d = X0.shape
    X = X0.copy()
    G = np.empty((n, d))
    _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, X, G)
    Y = G.copy()
    xbar = np.empty(d)
    ybar = np.empty(d)
    gbar = np.empty(d)
    status = STATUS_OK
    k_done = iters
    for k in range(iters + 1):
        _col_mean(X, xbar)
        _col_mean(Y, ybar)
        _col_mean(G, gbar)
        c_k = _dev_sq_from_mean(X, xbar)
        t_k = _dev_sq_from_mean(Y, ybar)
        g_k = _value_sum_nb(cost_kind, h, nuv, m, xi, Mq, bq, xbar) - n * fstar
        s_k = _grad_sum_sq_nb(cost_kind, h, nuv, m, xi, Mq, bq, xbar) / n
        cons[k] = c_k
        gap[k] = g_k
        stat[k] = s_k
        lyap[k] = c_k + phi_w * t_k + g_k
        if Xh.shape[0] > 0:
            for i in range(n):
                for j in range(d):
                    Xh[k, i, j] = X[i, j]
                    Yh[k, i, j] = Y[i, j]
        if not (np.isfinite(c_k) and np.isfinite(t_k) and np.isfinite(g_k)
                and np.isfinite(s_k)):
            status = STATUS_NONFINITE
            k_done = k
            break
        acc = 0.0
        gn = 0.0
        for j in range(d):
            v = ybar[j] - gbar[j]
            acc += v * v
            gn += gbar[j] * gbar[j]
        r = np.sqrt(acc) / (1.0 + np.sqrt(gn))
        if r > diag[1]:
            diag[1] = r
        if k == iters:
            break
        mixX = W @ X
        mixY = W @ Y
        Xn = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                Xn[i, j] = X[i, j] - gamma * (X[i, j] - mixX[i, j]) \
                    - eta * Y[i, j]
        Gn = np.empty((n, d))
        _grad_rows_nb(cost_kind, h, nuv, m, xi, Mq, bq, Xn, Gn)
        Yn = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                Yn[i, j] = Y[i, j] - gamma * (Y[i, j] - mixY[i, j]) \
                    + Gn[i, j] - G[i, j]
        acc = 0.0
        for j in range(d):
            want = xbar[j] - eta * ybar[j]
            got = 0.0
            for i in range(n):
                got += Xn[i, j]
            got /= n
            v = got - want
            acc += v * v
        r = np.sqrt(acc)
        if r > diag[0]:
            diag[0] = r
        X = Xn
        Y = Yn
        G = Gn
    for i in range(n):
        for j in range(d):
            SX[i, j] = X[i, j]
            SY[i, j] = Y[i, j]
    return status, k_done


# ---------------------------------------------------------------------------
# numpy runs: the steppers only step; one block recorder writes every trace
# row and diag maximum, B rows at a time

# Bytes of row buffers one recorder may hold; B is this over the bytes of a
# recorded row, clamped to 1.._RECORD_MAX_ROWS (see the module docstring).
_RECORD_BUDGET = 1 << 20
_RECORD_MAX_ROWS = 64


def _block_rows(nrec, n, d):
    """Rows per recorded block for ``nrec`` recorded (n, d) arrays a row."""
    return max(1, min(_RECORD_MAX_ROWS, _RECORD_BUDGET // (nrec * n * d * 8)))


def _pack_suite(cost_kind, h, nuv, m, xi, Mq, bq):
    return (cost_kind, h, nuv, m, xi, Mq, bq)


def _sigmoid_np(z):
    """Overflow-free logistic sigmoid."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _grad_block_np(suite_pack, X):
    cost_kind, h, nuv, m, xi, Mq, bq = suite_pack
    if cost_kind == COST_LOGISTIC:
        s = _sigmoid_np(np.einsum("ij,ij->i", xi, X) + nuv)
        r2 = np.einsum("ij,ij->i", X, X)
        return ((h * s * (1.0 - s))[:, None] * xi
                + (2.0 * m / (1.0 + r2))[:, None] * X)
    resid = np.einsum("nrd,nd->nr", Mq, X) - bq
    return np.einsum("nrd,nr->nd", Mq, resid)


# Batched helpers over a leading row axis.  Each batched np.matmul makes the
# same BLAS call per row as the unbatched product (a @ b, np.linalg.norm's
# dot, W @ Base), and each reduction sums in the same order, so a block of
# rows gives bitwise the values that recording row by row gives.  A pairwise
# sum in place of the dot, or one gemm over stacked rows, would not.

def _dots(A, B):
    """Row-wise dot products of two (b, m) arrays."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _norms(A):
    """np.linalg.norm of each row of a (b, ...) array."""
    F = A.reshape(len(A), -1)
    return np.sqrt(_dots(F, F))


def _sums(A):
    """.sum() of each row of a (b, ...) array."""
    return np.add.reduce(A.reshape(len(A), -1), 1)


def _metrics_rows(suite_pack, X, Y, G, fstar):
    """Trace terms of b rows of (n, d) states: agent means of X and Y,
    consensus and tracking errors, optimality gap, stationarity and the
    relative mean-y tracking residual."""
    cost_kind, h, nuv, m, xi, Mq, bq = suite_pack
    n = X.shape[1]
    xbar = np.add.reduce(X, 1) / n
    ybar = np.add.reduce(Y, 1) / n
    gbar = np.add.reduce(G, 1) / n
    c = _sums((X - xbar[:, None]) ** 2)
    t = _sums((Y - ybar[:, None]) ** 2)
    if cost_kind == COST_LOGISTIC:
        s = _sigmoid_np(np.matmul(xi, xbar[:, :, None])[:, :, 0] + nuv)
        xx = _dots(xbar, xbar)
        msum = m.sum()
        vsum = np.matmul(h, s[:, :, None])[:, 0] + msum * np.log1p(xx)
        coef = h * s * (1.0 - s)
        gsum = (np.matmul(coef[:, None, :], xi)[:, 0]
                + (2.0 * msum / (1.0 + xx))[:, None] * xbar)
    else:  # these einsums have no batched form that sums in the same order
        vsum = np.empty(len(X))
        gsum = np.empty_like(xbar)
        for j, xb in enumerate(xbar):
            resid = np.einsum("nrd,d->nr", Mq, xb) - bq
            vsum[j] = 0.5 * (resid * resid).sum()
            gsum[j] = np.einsum("nrd,nr->d", Mq, resid)
    ytrack = _norms(ybar - gbar) / (1.0 + _norms(gbar))
    return xbar, ybar, c, t, vsum - n * fstar, _dots(gsum, gsum) / n, ytrack


def _struct_resid_rows(Acc, Base, W):
    """||Acc - (I - W) Base|| / ||Base|| per row: the accumulator identity."""
    ref = np.maximum(_norms(Base), 1e-30)
    return _norms(Acc - (Base - np.matmul(W, Base))) / ref


def _row_norm_max_rows(A, ip_norm):
    """Largest agent p-norm (inf if ip_norm == 0, else 2) per row."""
    if ip_norm == 0:
        return np.abs(A).reshape(len(A), -1).max(axis=1)
    return np.sqrt(np.add.reduce(A * A, 2)).max(axis=1)


def _raise_max(diag, i, vals):
    """diag[i] = max(diag[i], v) for each v in turn; a NaN v never wins."""
    diag[i] = np.fmax.reduce(vals, initial=diag[i])


class _BlockRecorder:
    """Trace rows and diag maxima of one numpy run, computed B rows at once.

    Row k is the run state before step k as a list that starts X, Y, G and
    goes on with the run's other recorded arrays: alg1 A, B, C, D (then Ex,
    Ey under the EF Lyapunov weight), alg3 Xhat, Yhat, V, Z.  The diagnostics
    of step k (diag 0; alg3 diag 2, 3 and 6) are read off rows k and k+1.
    Steppers never write into a state array, so rows and checkpoints may
    hold the arrays themselves.
    """

    def __init__(self, algo, nrec, shape, suite_pack, W, eta, fstar,
                 lyap_kind, phi_w, phi_aux, out, s_arr=None, ip_norm=0):
        n, d = shape
        self.B = _block_rows(nrec, n, d)
        self.algo, self.nrec, self.pack, self.W = algo, nrec, suite_pack, W
        self.eta, self.fstar, self.lyap_kind = eta, fstar, lyap_kind
        self.phi_w, self.phi_aux = phi_w, phi_aux
        self.out, self.s_arr, self.ip_norm = out, s_arr, ip_norm
        # slot 0 carries the row before the block (its agent means, and alg3's
        # X); rows go to slots 1..B.  At B = 1 rows are not copied.
        self.means = np.empty((2, self.B + 1, d))
        self.buf = np.empty((nrec, self.B + 1, n, d)) if self.B > 1 else None
        self.rows = None
        self.prev_x = None
        self.k0 = 0
        self.fill = 0

    def run(self, st, step, last, end_status):
        """Record rows 0..last of the state list ``st``, calling
        ``step(k, st)`` between rows k and k+1.  Returns (status, k_done) and
        leaves ``st`` at row k_done.  A non-finite row ends the run; steps
        already taken past it are undone by replaying from the block start,
        which the counter-based compressor randomness makes exact."""
        for k in range(last + 1):
            if self.buf is not None and self.fill == 0:
                start, k_start = list(st), k
            self.push(st)
            if self.fill == self.B or k == last:
                bad = self.flush()
                if bad is not None:
                    if self.buf is not None:
                        st[:] = start
                        for kk in range(k_start, bad):
                            step(kk, st)
                    return STATUS_NONFINITE, bad
            if k < last:
                step(k, st)
        return end_status, last

    def push(self, st):
        self.fill += 1
        if self.buf is None:
            self.rows = st[:self.nrec]
        else:
            for q, a in zip(self.buf, st):
                q[self.fill] = a

    def flush(self):
        """Record the pushed rows; returns the first non-finite row or None."""
        b, k0, W, diag = self.fill, self.k0, self.W, self.out[4]
        if self.buf is None:
            R = [a[None] for a in self.rows]
            Xp = None if self.prev_x is None else self.prev_x[None]
        else:
            R = self.buf[:, 1:b + 1]
            Xp = self.buf[0, :b]
        X, Y = R[0], R[1]
        xbar, ybar, c, t, g, s, ytr = _metrics_rows(self.pack, X, Y, R[2],
                                                    self.fstar)
        L = c + self.phi_w * t
        if self.algo == "alg1" and self.lyap_kind in (LYAP_FULL, LYAP_EF):
            L = L + _sums((X - R[3]) ** 2) + _sums((Y - R[5]) ** 2) + g
            if self.lyap_kind == LYAP_EF:
                L = L + self.phi_aux * (_sums(R[7] * R[7])
                                        + _sums(R[8] * R[8]))
        elif self.lyap_kind == LYAP_SCALED:
            L = L + self.phi_aux * g
        else:
            L = L + g
        bad = np.flatnonzero(~np.isfinite(c + t + g + s))
        nok = int(bad[0]) if bad.size else b  # rows that pass the check
        keep = min(nok + 1, b)                # rows that enter the trace
        cons, gap, stat, lyap, _, Xh, Yh = self.out
        rows = slice(k0, k0 + keep)
        cons[rows], gap[rows], stat[rows], lyap[rows] = (
            c[:keep], g[:keep], s[:keep], L[:keep])
        if Xh.shape[0] > 0:
            Xh[rows] = X[:keep]
            Yh[rows] = Y[:keep]

        ok = slice(0, nok)
        _raise_max(diag, 1, ytr[ok])
        if nok and self.algo == "alg1":
            A, B, C, D = (a[ok] for a in R[3:7])
            _raise_max(diag, 2, _struct_resid_rows(B, A, W))
            _raise_max(diag, 3, _struct_resid_rows(D, C, W))
        elif nok and self.algo == "alg3":
            sk = self.s_arr[k0:k0 + nok]
            _raise_max(diag, 4, _row_norm_max_rows(X[ok] - R[3][ok],
                                                   self.ip_norm) / sk)
            _raise_max(diag, 5, _row_norm_max_rows(Y[ok] - R[4][ok],
                                                   self.ip_norm) / sk)

        # step k0 + j - 1 leads into row j: diag 0 needs the agent means of
        # both rows; alg3's post-update residuals use row j's Xhat, Yhat, V, Z
        self.means[0, 1:b + 1] = xbar
        self.means[1, 1:b + 1] = ybar
        steps = slice(1 if k0 == 0 else 0, keep)
        if keep > steps.start:
            want = self.means[0, steps] - self.eta * self.means[1, steps]
            _raise_max(diag, 0, _norms(xbar[steps] - want))
            if self.algo == "alg3":
                Xhat, Yhat, V, Z = (a[steps] for a in R[3:7])
                _raise_max(diag, 2, _struct_resid_rows(V, Xhat, W))
                _raise_max(diag, 3, _struct_resid_rows(Z, Yhat, W))
                _raise_max(diag, 6, _row_norm_max_rows(Xp[steps] - Xhat,
                                                       self.ip_norm)
                           / self.s_arr[k0 - 1 + steps.start:k0 - 1 + keep])
        if nok < b:
            return k0 + nok

        self.means[:, 0] = self.means[:, b]
        if self.algo == "alg3":
            if self.buf is None:
                self.prev_x = self.rows[0]
            else:
                self.buf[0, 0] = self.buf[0, b]
        self.rows = None
        self.k0 += b
        self.fill = 0
        return None


def _run_alg1_np(X0, W, eta, gamma, phix, phiy, varsigma, use_ef,
                 ckind, cp1, cp2, cip, seed,
                 cost_kind, h, nuv, m, xi, Mq, bq,
                 fstar, lyap_kind, phi_w, phi_aux, iters,
                 cons, gap, stat, lyap, diag, Xh, Yh,
                 SX, SY, SA, SB, SC, SD, SEx, SEy, SQX, SQY, SQhX, SQhY):
    n, d = X0.shape
    pack = _pack_suite(cost_kind, h, nuv, m, xi, Mq, bq)
    G = _grad_block_np(pack, X0)
    Qx = _compress_block_np(ckind, cp1, cp2, cip, X0, seed, 0, 0)
    Qy = _compress_block_np(ckind, cp1, cp2, cip, G, seed, 0, 1)
    zero = np.zeros((n, d))
    # X, Y, G, A, B, C, D, Ex, Ey, Qx, Qy, Qhx, Qhy
    st = [X0.copy(), G.copy(), G, zero, zero, zero, zero, zero, zero,
          Qx, Qy, Qx.copy(), Qy.copy()]
    del G, Qx, Qy

    def step(k, st):
        X, Y, G, A, B, C, D, Ex, Ey, Qx, Qy, Qhx, Qhy = st
        st.clear()  # superseded arrays are freed as soon as they are rebound
        mixQx = W @ Qx
        mixQy = W @ Qy
        if use_ef:
            mixQhx = W @ Qhx
            mixQhy = W @ Qhy
            Xn = X - gamma * (B + Qhx - mixQhx) - eta * Y
        else:
            Xn = X - gamma * (B + Qx - mixQx) - eta * Y
        Gn = _grad_block_np(pack, Xn)
        if use_ef:
            Yn = Y - gamma * (D + Qhy - mixQhy) + Gn - G
            Ex = varsigma * Ex + X - A - Qhx
            Ey = varsigma * Ey + Y - C - Qhy
        else:
            Yn = Y - gamma * (D + Qy - mixQy) + Gn - G
        A = A + phix * Qx
        B = B + phix * (Qx - mixQx)
        C = C + phiy * Qy
        D = D + phiy * (Qy - mixQy)
        Qx = _compress_block_np(ckind, cp1, cp2, cip, Xn - A, seed, k + 1, 0)
        Qy = _compress_block_np(ckind, cp1, cp2, cip, Yn - C, seed, k + 1, 1)
        if use_ef:
            Qhx = _compress_block_np(ckind, cp1, cp2, cip,
                                     varsigma * Ex + Xn - A, seed, k + 1, 2)
            Qhy = _compress_block_np(ckind, cp1, cp2, cip,
                                     varsigma * Ey + Yn - C, seed, k + 1, 3)
        st += Xn, Yn, Gn, A, B, C, D, Ex, Ey, Qx, Qy, Qhx, Qhy

    rec = _BlockRecorder("alg1", 9 if lyap_kind == LYAP_EF else 7, (n, d),
                         pack, W, eta, fstar, lyap_kind, phi_w, phi_aux,
                         (cons, gap, stat, lyap, diag, Xh, Yh))
    status, k_done = rec.run(st, step, iters, STATUS_OK)
    del st[2]
    for dst, a in zip((SX, SY, SA, SB, SC, SD, SEx, SEy, SQX, SQY, SQhX,
                       SQhY), st):
        dst[:] = a
    return status, k_done


def _run_alg3_np(X0, W, eta, gamma, s_arr, ip_norm,
                 ckind, cp1, cp2, cip, seed,
                 cost_kind, h, nuv, m, xi, Mq, bq,
                 fstar, lyap_kind, phi_w, phi_aux, iters,
                 cons, gap, stat, lyap, diag, Xh, Yh,
                 SX, SY, SXhat, SV, SYhat, SZ, SQX, SQY):
    n, d = X0.shape
    pack = _pack_suite(cost_kind, h, nuv, m, xi, Mq, bq)
    G = _grad_block_np(pack, X0)
    zero = np.zeros((n, d))
    # X, Y, G, Xhat, Yhat, V, Z, Qx, Qy
    st = [X0.copy(), G.copy(), G, zero, zero, zero, zero,
          _compress_block_np(ckind, cp1, cp2, cip, X0 / s_arr[0], seed, 0, 0),
          _compress_block_np(ckind, cp1, cp2, cip, G / s_arr[0], seed, 0, 1)]
    del G

    def step(k, st):
        X, Y, G, Xhat, Yhat, V, Z, Qx, Qy = st
        st.clear()  # superseded arrays are freed as soon as they are rebound
        mixQx = W @ Qx
        mixQy = W @ Qy
        sk = s_arr[k]
        Xhat = Xhat + sk * Qx
        V = V + sk * (Qx - mixQx)
        Yhat = Yhat + sk * Qy
        Z = Z + sk * (Qy - mixQy)
        Xn = X - gamma * V - eta * Y
        Gn = _grad_block_np(pack, Xn)
        Yn = Y - gamma * Z + Gn - G
        snext = s_arr[k + 1]
        Qx = _compress_block_np(ckind, cp1, cp2, cip, (Xn - Xhat) / snext,
                                seed, k + 1, 0)
        Qy = _compress_block_np(ckind, cp1, cp2, cip, (Yn - Yhat) / snext,
                                seed, k + 1, 1)
        st += Xn, Yn, Gn, Xhat, Yhat, V, Z, Qx, Qy

    # the run stops before the first step whose next scale underflows
    below = np.flatnonzero(s_arr[1:] < _SCALE_FLOOR)
    last = int(below[0]) if below.size else iters
    rec = _BlockRecorder("alg3", 7, (n, d), pack, W, eta, fstar, lyap_kind,
                         phi_w, phi_aux, (cons, gap, stat, lyap, diag, Xh, Yh),
                         s_arr, ip_norm)
    status, k_done = rec.run(st, step, last, STATUS_SCALE_UNDERFLOW
                             if last < iters else STATUS_OK)
    X, Y, _, Xhat, Yhat, V, Z, Qx, Qy = st
    SX[:], SY[:] = X, Y
    SXhat[:], SV[:], SYhat[:], SZ[:], SQX[:], SQY[:] = Xhat, V, Yhat, Z, Qx, Qy
    return status, k_done


def _run_dgt_np(X0, W, eta, gamma,
                cost_kind, h, nuv, m, xi, Mq, bq,
                fstar, phi_w, iters,
                cons, gap, stat, lyap, diag, Xh, Yh, SX, SY):
    pack = _pack_suite(cost_kind, h, nuv, m, xi, Mq, bq)
    G = _grad_block_np(pack, X0)
    st = [X0.copy(), G.copy(), G]  # X, Y, G
    del G

    def step(k, st):
        X, Y, G = st
        st.clear()  # superseded arrays are freed as soon as they are rebound
        Xn = X - gamma * (X - W @ X) - eta * Y
        Gn = _grad_block_np(pack, Xn)
        st += Xn, Y - gamma * (Y - W @ Y) + Gn - G, Gn

    rec = _BlockRecorder("dgt", 3, X0.shape, pack, W, eta, fstar,
                         LYAP_CONSENSUS, phi_w, 0.0,
                         (cons, gap, stat, lyap, diag, Xh, Yh))
    status, k_done = rec.run(st, step, iters, STATUS_OK)
    SX[:], SY[:] = st[0], st[1]
    return status, k_done
