"""Iteration kernels: one numpy stepper per update rule and a block recorder.

Compressor randomness comes from a counter-based splitmix64 stream: the draws
of one message depend only on (seed, iteration, agent, slot).  Runs are
therefore bitwise reproducible, a replayed step draws what it drew the first
time, and ``compressors.compress``, which applies the same block kernel with
explicit keys, certifies the operator that runs use.

Costs are evaluated by the run's ``costs.RunCosts``: the steppers take
gradients from it and the recorder each row's gap and stationarity.
Quadratics use the Gram form there (n*d^2 floats, built after the reference
solve): one batched matrix-vector product a step and one d x d product a row;
``costs`` states the memory and the crossover below about d/3 factor rows.

The steppers only step.  One block recorder (``_BlockRecorder``) takes
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

import numpy as np

STATUS_OK = 0
STATUS_NONFINITE = 1
STATUS_SCALE_UNDERFLOW = 2

# compressor kind codes (see compressors.KIND_CODES)
K_IDENTITY, K_NORM_SIGN, K_UNIFORM, K_ONE_BIT = 0, 1, 2, 3
K_SPARSIFY_TOP, K_SPARSIFY_RAND, K_RAND_QUANT = 4, 5, 6

LYAP_FULL, LYAP_EF, LYAP_CONSENSUS, LYAP_SCALED = 0, 1, 2, 3

_SCALE_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# counter-based randomness

_U1 = np.uint64(0x9E3779B97F4A7C15)
_U2 = np.uint64(0xBF58476D1CE4E5B9)
_U3 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(30), np.uint64(27), np.uint64(31),
                          np.uint64(11))
_KITER = np.uint64(0xA076_1D64_78BD_642F)
_KAGENT = np.uint64(0xE703_7ED1_A0B4_28DB)
_KSLOT = np.uint64(0x8EBC_6AF0_9C88_C6E3)
_INV53 = 1.0 / 9007199254740992.0


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
# compression

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
        # the first ip steps of a Fisher-Yates shuffle, all rows at once
        bases = _msg_base_np(seed, k, n, slot)
        rows = np.arange(n)
        idx = np.tile(np.arange(d), (n, 1))
        for t in range(ip):
            u = _u01_np(bases + np.uint64(t))
            j = np.minimum(t + (u * (d - t)).astype(np.int64), d - 1)
            idx[rows, t], idx[rows, j] = idx[rows, j], idx[rows, t]
        rows, keep = rows[:, None], idx[:, :ip]
        out = np.zeros_like(Xin)
        out[rows, keep] = Xin[rows, keep] * p2
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
# runs: the steppers only step; one block recorder writes every trace row
# and diag maximum, B rows at a time

# Bytes of row buffers one recorder may hold; B is this over the bytes of a
# recorded row, clamped to 1.._RECORD_MAX_ROWS (see the module docstring).
_RECORD_BUDGET = 1 << 20
_RECORD_MAX_ROWS = 64


def _block_rows(nrec, n, d):
    """Rows per recorded block for ``nrec`` recorded (n, d) arrays a row."""
    return max(1, min(_RECORD_MAX_ROWS, _RECORD_BUDGET // (nrec * n * d * 8)))


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


def _metrics_rows(cost, X, Y, G):
    """Trace terms of b rows of (n, d) states: agent means of X and Y,
    consensus and tracking errors, optimality gap and stationarity (from the
    run's ``costs.RunCosts``) and the relative mean-y tracking residual."""
    n = X.shape[1]
    xbar = np.add.reduce(X, 1) / n
    ybar = np.add.reduce(Y, 1) / n
    gbar = np.add.reduce(G, 1) / n
    c = _sums((X - xbar[:, None]) ** 2)
    t = _sums((Y - ybar[:, None]) ** 2)
    gap, stat = cost.trace_terms(xbar)
    ytrack = _norms(ybar - gbar) / (1.0 + _norms(gbar))
    return xbar, ybar, c, t, gap, stat, ytrack


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
    """Trace rows and diag maxima of one run, computed B rows at once.

    Row k is the run state before step k as a list that starts X, Y, G and
    goes on with the run's other recorded arrays: alg1 A, B, C, D (then Ex,
    Ey under the EF Lyapunov weight), alg3 Xhat, Yhat, V, Z.  The diagnostics
    of step k (diag 0; alg3 diag 2, 3 and 6) are read off rows k and k+1.
    Steppers never write into a state array, so rows and checkpoints may
    hold the arrays themselves.
    """

    def __init__(self, algo, nrec, shape, cost, W, eta, lyap_kind, phi_w,
                 phi_aux, out, s_arr=None, ip_norm=0):
        n, d = shape
        self.B = _block_rows(nrec, n, d)
        self.algo, self.nrec, self.cost, self.W = algo, nrec, cost, W
        self.eta, self.lyap_kind = eta, lyap_kind
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
                # overflow in a diverging row is expected: flush finds
                # non-finite rows itself and reports them as the status
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
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
        xbar, ybar, c, t, g, s, ytr = _metrics_rows(self.cost, X, Y, R[2])
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


# Each stepper evaluates gradients through ``cost`` (a ``costs.RunCosts``),
# records rows 0..iters of one run into ``record`` (the recorder's cons, gap,
# stat, lyap, diag, Xh, Yh arrays) and returns (status, k_done, final): final
# maps the StackedState fields of the run to its last state, one distinct
# array per field.

def _run_alg1_np(X0, W, eta, gamma, phix, phiy, varsigma, use_ef,
                 ckind, cp1, cp2, cip, seed, cost,
                 lyap_kind, phi_w, phi_aux, iters, record):
    n, d = X0.shape
    G = cost.grad(X0)
    Qx = _compress_block_np(ckind, cp1, cp2, cip, X0, seed, 0, 0)
    Qy = _compress_block_np(ckind, cp1, cp2, cip, G, seed, 0, 1)
    # X, Y, G, A, B, C, D, Ex, Ey, Qx, Qy, Qhx, Qhy
    st = [X0.copy(), G.copy(), G, *(np.zeros((n, d)) for _ in range(6)),
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
        Gn = cost.grad(Xn)
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
                         cost, W, eta, lyap_kind, phi_w, phi_aux, record)
    status, k_done = rec.run(st, step, iters, STATUS_OK)
    del st[2]
    return status, k_done, dict(zip(("x", "y", "a", "b", "c", "dd", "ex",
                                     "ey", "qx", "qy", "qhx", "qhy"), st))


def _run_alg3_np(X0, W, eta, gamma, s_arr, ip_norm,
                 ckind, cp1, cp2, cip, seed, cost,
                 lyap_kind, phi_w, phi_aux, iters, record):
    n, d = X0.shape
    G = cost.grad(X0)
    # X, Y, G, Xhat, Yhat, V, Z, Qx, Qy
    st = [X0.copy(), G.copy(), G, *(np.zeros((n, d)) for _ in range(4)),
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
        Gn = cost.grad(Xn)
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
    rec = _BlockRecorder("alg3", 7, (n, d), cost, W, eta, lyap_kind, phi_w,
                         phi_aux, record, s_arr, ip_norm)
    status, k_done = rec.run(st, step, last, STATUS_SCALE_UNDERFLOW
                             if last < iters else STATUS_OK)
    del st[2]
    return status, k_done, dict(zip(("x", "y", "xhat", "yhat", "v", "z",
                                     "qx", "qy"), st))


def _run_dgt_np(X0, W, eta, gamma, cost, phi_w, iters, record):
    G = cost.grad(X0)
    st = [X0.copy(), G.copy(), G]  # X, Y, G
    del G

    def step(k, st):
        X, Y, G = st
        st.clear()  # superseded arrays are freed as soon as they are rebound
        Xn = X - gamma * (X - W @ X) - eta * Y
        Gn = cost.grad(Xn)
        st += Xn, Y - gamma * (Y - W @ Y) + Gn - G, Gn

    rec = _BlockRecorder("dgt", 3, X0.shape, cost, W, eta, LYAP_CONSENSUS,
                         phi_w, 0.0, record)
    status, k_done = rec.run(st, step, iters, STATUS_OK)
    return status, k_done, {"x": st[0], "y": st[1]}
