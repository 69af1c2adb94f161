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

State blocks.  Each x/y twin of the update rules is one contiguous (2, n, d)
block, x in slot 0 and y in slot 1: X|Y, A|C, B|D, Ex|Ey (alg1/alg2),
Xhat|Yhat, V|Z (alg3).  All messages of one step form one (m, n, d) block
along a slot axis: Qx, Qy (m = 2), then alg2's error-feedback Qhx, Qhy
(m = 4).  A step makes one compressor-kernel call over that block, one
``np.matmul(W, Q)`` and one update per twin, written in place into the
run's blocks.  The stacked matmul still makes one gemm per slot and every
elementwise update rounds as the per-array update did, so traces and states
are bitwise those of updating each half of a twin on its own.  The kernel's
draws for slot j of a block started at ``slot`` are keyed by slot + j.

The steppers only step.  One block recorder (``_BlockRecorder``) takes
each row's state and, every B rows, computes the trace rows, the state
history and the diag maxima for the whole block at once.  Its batched
products make the same BLAS call per row as recording row by row, so the
result is bitwise equal to per-step recording.  B = clamp(1 MiB // bytes per
recorded row, 1, 64) follows from n*d and the number of (n, d) arrays a row
records: 3 for dgt, 7 for alg1 and alg3, 9 under the EF Lyapunov weight
(the alg2 default).  Storing twins as blocks records the same bytes a row,
so B is what it was per array.  At n=20, d=50 that is 43, 18 and 14; B is 1
once a row passes 512 KiB (n*d above about 22000 for dgt and 9400 for
alg1/alg3).  At B = 1 rows are recorded straight from the state blocks,
before the next step overwrites them.  A non-finite row ends the run at that
row: the steps already taken past it inside the block are discarded by
replaying from a copy of the block's first row.

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


def _msg_base_np(seed: int, k: int, n: int, slot) -> np.ndarray:
    """Stream bases of agents 1..n in message ``slot``: shape (n,) for one
    slot, (m, n) for an array of m slots."""
    agents = np.arange(1, n + 1, dtype=np.uint64)
    slots = np.asarray(slot, dtype=np.uint64)[..., None]
    with np.errstate(over="ignore"):
        z = (np.uint64(seed)
             ^ (np.uint64(k + 1) * _KITER)
             ^ (agents * _KAGENT)
             ^ ((slots + np.uint64(1)) * _KSLOT))
    return _mix64_np(z)


# ---------------------------------------------------------------------------
# compression

def _compress_block_np(kind, p1, p2, ip, Xin, seed, k, slot):
    """Compress an (m, n, d) message block: ``Xin[j]`` holds the n agents'
    inputs of message slot ``slot + j``."""
    m, n, d = Xin.shape
    if kind == K_IDENTITY:
        return Xin.copy()
    if kind == K_NORM_SIGN:
        a = np.abs(Xin).max(axis=2, keepdims=True)
        half = 0.5 * a
        out = np.where(Xin >= 0.0, half, -half)
        out[~(a[:, :, 0] > 0.0)] = 0.0  # all-zero (or NaN) agent rows
        return out
    if kind == K_UNIFORM:  # p1 * floor(Xin / p1 + 0.5), in one array
        out = Xin / p1
        out += 0.5
        np.floor(out, out=out)
        out *= p1
        return out
    if kind == K_ONE_BIT:
        return np.where(Xin >= 0.0, 0.5, -0.5)
    slots = np.arange(slot, slot + m)
    if kind == K_RAND_QUANT:
        a = np.max(np.abs(Xin), axis=2, keepdims=True)
        safe = np.where(a > 0.0, a, 1.0)
        h = 2.0 * safe / (ip - 1)
        t = (Xin + safe) / h
        lo = np.floor(t)
        bases = _msg_base_np(seed, k, n, slots)
        u = _u01_np(bases[:, :, None] + np.arange(d, dtype=np.uint64))
        lvl = lo + (u < (t - lo))
        return np.where(a > 0.0, lvl * h - safe, 0.0)
    X = Xin.reshape(m * n, d)  # sparsify: one row per (slot, agent)
    rows = np.arange(m * n)
    if kind == K_SPARSIFY_TOP:
        keep = np.argsort(-np.abs(X), axis=1, kind="stable")[:, :ip]
    else:  # K_SPARSIFY_RAND
        # the first ip steps of a Fisher-Yates shuffle, all rows at once
        bases = _msg_base_np(seed, k, n, slots).ravel()
        idx = np.tile(np.arange(d), (m * n, 1))
        for t in range(ip):
            u = _u01_np(bases + np.uint64(t))
            j = np.minimum(t + (u * (d - t)).astype(np.int64), d - 1)
            idx[rows, t], idx[rows, j] = idx[rows, j], idx[rows, t]
        keep = idx[:, :ip]
    rows = rows[:, None]
    out = np.zeros_like(X)
    out[rows, keep] = X[rows, keep] * p2
    return out.reshape(Xin.shape)


def _mix(W, Q, out):
    """W @ Q[j] for every slot j of a block, into ``out``: the stacked
    product makes one gemm per slot, as ``W @ Q[j]`` does."""
    return np.matmul(W, Q, out=out)


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
# sum in place of the dot, or one gemm over stacked rows, would not.  Rows
# may be strided views, such as the x half of a recorded X|Y block.

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

    Row k is the run state before step k as a list of blocks that starts
    X|Y, G and goes on with the run's other recorded blocks: alg1 A|C, B|D
    (then Ex|Ey under the EF Lyapunov weight), alg3 Xhat|Yhat, V|Z.  ``row``
    is the first such list; it fixes the block shapes.  The diagnostics of
    step k (diag 0; alg3 diag 2, 3 and 6) are read off rows k and k+1.
    Steppers update their blocks in place, so at B = 1 a row is read before
    the next step and alg3 keeps a copy of the X it needs from it.
    """

    def __init__(self, algo, row, cost, W, eta, lyap_kind, phi_w, phi_aux,
                 out, s_arr=None, ip_norm=0):
        n, d = row[1].shape
        self.B = _block_rows(sum(a.size for a in row) // (n * d), n, d)
        self.algo, self.nblk, self.cost, self.W = algo, len(row), cost, W
        self.eta, self.lyap_kind = eta, lyap_kind
        self.phi_w, self.phi_aux = phi_w, phi_aux
        self.out, self.s_arr, self.ip_norm = out, s_arr, ip_norm
        # slot 0 carries the row before the block (its agent means, and alg3's
        # X); rows go to slots 1..B.  At B = 1 rows are not copied.
        self.means = np.empty((2, self.B + 1, d))
        self.buf = ([np.empty((self.B + 1,) + a.shape) for a in row]
                    if self.B > 1 else None)
        self.rows = None
        self.prev_x = None
        self.k0 = 0
        self.fill = 0

    def run(self, st, step, last, end_status):
        """Record rows 0..last of the state list ``st``, calling
        ``step(k, st)`` between rows k and k+1.  Returns (status, k_done) and
        leaves ``st`` at row k_done.  A non-finite row ends the run; steps
        already taken past it are undone by replaying from a copy of the
        block start, which the counter-based compressor randomness makes
        exact."""
        for k in range(last + 1):
            if self.buf is not None and self.fill == 0:
                start, k_start = [a.copy() for a in st], k
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
            self.rows = st[:self.nblk]
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
            R = [q[1:b + 1] for q in self.buf]
            Xp = self.buf[0][:b, 0]
        # the x and y halves of each recorded block, as (b, n, d) views
        (X, Y), G = R[0].swapaxes(0, 1), R[1]
        xbar, ybar, c, t, g, s, ytr = _metrics_rows(self.cost, X, Y, G)
        L = c + self.phi_w * t
        if self.algo == "alg1":
            (A, C), (B, D) = R[2].swapaxes(0, 1), R[3].swapaxes(0, 1)
        elif self.algo == "alg3":
            (Xhat, Yhat), (V, Z) = R[2].swapaxes(0, 1), R[3].swapaxes(0, 1)
        if self.algo == "alg1" and self.lyap_kind in (LYAP_FULL, LYAP_EF):
            L = L + _sums((X - A) ** 2) + _sums((Y - C) ** 2) + g
            if self.lyap_kind == LYAP_EF:
                Ex, Ey = R[4].swapaxes(0, 1)
                L = L + self.phi_aux * (_sums(Ex * Ex) + _sums(Ey * Ey))
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
            _raise_max(diag, 2, _struct_resid_rows(B[ok], A[ok], W))
            _raise_max(diag, 3, _struct_resid_rows(D[ok], C[ok], W))
        elif nok and self.algo == "alg3":
            sk = self.s_arr[k0:k0 + nok]
            _raise_max(diag, 4, _row_norm_max_rows(X[ok] - Xhat[ok],
                                                   self.ip_norm) / sk)
            _raise_max(diag, 5, _row_norm_max_rows(Y[ok] - Yhat[ok],
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
                Xhat, Yhat, V, Z = (a[steps] for a in (Xhat, Yhat, V, Z))
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
                self.prev_x = self.rows[0][0].copy()
            else:
                self.buf[0][0] = self.buf[0][b]
        self.rows = None
        self.k0 += b
        self.fill = 0
        return None


# Each stepper evaluates gradients through ``cost`` (a ``costs.RunCosts``),
# records rows 0..iters of one run into ``record`` (the recorder's cons, gap,
# stat, lyap, diag, Xh, Yh arrays) and returns (status, k_done, final): final
# maps the StackedState fields of the run to its last state, one distinct
# array per field.  A step updates the state blocks in place.  Its scratch is
# ``tmp``, one (2, n, d) block, and ``buf``, one slot per message: ``buf``
# takes W @ Q, then, once that is spent, the step's other temporaries and the
# next messages' inputs.  Both are bound as default arguments, so the step's
# in-place operators act on them.  Only G and the message block are new
# arrays, which keeps the live arrays of a large-n run near those of
# updating each twin half on its own.

def _run_alg1_np(X0, W, eta, gamma, phix, phiy, varsigma, use_ef,
                 ckind, cp1, cp2, cip, seed, cost,
                 lyap_kind, phi_w, phi_aux, iters, record):
    n, d = X0.shape
    G = cost.grad(X0)
    XY = np.stack([X0, G])
    Q = _compress_block_np(ckind, cp1, cp2, cip, XY, seed, 0, 0)
    Qh = Q.copy()  # the first EF messages; plain alg1 never sends others
    if use_ef:
        Q = np.concatenate([Q, Qh])
    # X|Y, G, A|C, B|D, Ex|Ey, Qx|Qy[|Qhx|Qhy]
    st = [XY, G, *(np.zeros((2, n, d)) for _ in range(3)), Q]
    phi = np.array([phix, phiy])[:, None, None]

    def step(k, st, tmp=np.empty((2, n, d)), buf=np.empty_like(Q)):
        XY, G, AC, BD, E, Q = st
        mixQ = _mix(W, Q, buf)
        Qs, mixQs = (Q[2:], mixQ[2:]) if use_ef else (Q, mixQ)
        np.add(BD, Qs, out=tmp)  # the consensus terms, from the old B|D
        tmp -= mixQs
        tmp *= gamma
        if use_ef:  # from the old X|Y and A|C
            E *= varsigma
            E += XY
            E -= AC
            E -= Qs
        diff = np.subtract(Q[:2], mixQ[:2], out=buf[:2])
        diff *= phi
        BD += diff
        AC += np.multiply(phi, Q[:2], out=buf[:2])
        ey = np.multiply(eta, XY[1], out=buf[0])
        XY -= tmp
        XY[0] -= ey
        st[1] = Gn = cost.grad(XY[0])
        XY[1] += Gn
        XY[1] -= G
        np.subtract(XY, AC, out=buf[:2])  # the next messages' inputs
        if use_ef:
            h = np.multiply(varsigma, E, out=buf[2:])
            h += XY
            h -= AC
        st[5] = _compress_block_np(ckind, cp1, cp2, cip, buf, seed, k + 1, 0)

    rec = _BlockRecorder("alg1", st[:5 if lyap_kind == LYAP_EF else 4],
                         cost, W, eta, lyap_kind, phi_w, phi_aux, record)
    status, k_done = rec.run(st, step, iters, STATUS_OK)
    XY, _, AC, BD, E, Q = st
    Qh = Q[2:] if use_ef else Qh
    return status, k_done, {
        "x": XY[0], "y": XY[1], "a": AC[0], "b": BD[0], "c": AC[1],
        "dd": BD[1], "ex": E[0], "ey": E[1], "qx": Q[0], "qy": Q[1],
        "qhx": Qh[0], "qhy": Qh[1]}


def _run_alg3_np(X0, W, eta, gamma, s_arr, ip_norm,
                 ckind, cp1, cp2, cip, seed, cost,
                 lyap_kind, phi_w, phi_aux, iters, record):
    n, d = X0.shape
    G = cost.grad(X0)
    XY = np.stack([X0, G])
    # X|Y, G, Xhat|Yhat, V|Z, Qx|Qy
    st = [XY, G, np.zeros((2, n, d)), np.zeros((2, n, d)),
          _compress_block_np(ckind, cp1, cp2, cip, XY / s_arr[0], seed, 0, 0)]

    def step(k, st, tmp=np.empty((2, n, d)), buf=np.empty((2, n, d))):
        XY, G, Hat, VZ, Q = st
        mixQ = _mix(W, Q, buf)
        sk = s_arr[k]
        Hat += np.multiply(sk, Q, out=tmp)
        diff = np.subtract(Q, mixQ, out=tmp)
        diff *= sk
        VZ += diff
        np.multiply(gamma, VZ, out=tmp)
        ey = np.multiply(eta, XY[1], out=buf[0])
        XY -= tmp
        XY[0] -= ey
        st[1] = Gn = cost.grad(XY[0])
        XY[1] += Gn
        XY[1] -= G
        cin = np.subtract(XY, Hat, out=tmp)  # the next messages' inputs
        cin /= s_arr[k + 1]
        st[4] = _compress_block_np(ckind, cp1, cp2, cip, cin, seed, k + 1, 0)

    # the run stops before the first step whose next scale underflows
    below = np.flatnonzero(s_arr[1:] < _SCALE_FLOOR)
    last = int(below[0]) if below.size else iters
    rec = _BlockRecorder("alg3", st[:4], cost, W, eta, lyap_kind, phi_w,
                         phi_aux, record, s_arr, ip_norm)
    status, k_done = rec.run(st, step, last, STATUS_SCALE_UNDERFLOW
                             if last < iters else STATUS_OK)
    XY, _, Hat, VZ, Q = st
    return status, k_done, {
        "x": XY[0], "y": XY[1], "xhat": Hat[0], "yhat": Hat[1], "v": VZ[0],
        "z": VZ[1], "qx": Q[0], "qy": Q[1]}


def _run_dgt_np(X0, W, eta, gamma, cost, phi_w, iters, record):
    G = cost.grad(X0)
    st = [np.stack([X0, G]), G]  # X|Y, G

    def step(k, st, tmp=np.empty_like(st[0]), ey=np.empty_like(X0)):
        XY, G = st
        _mix(W, XY, tmp)
        np.subtract(XY, tmp, out=tmp)
        tmp *= gamma
        np.multiply(eta, XY[1], out=ey)
        XY -= tmp
        XY[0] -= ey
        st[1] = Gn = cost.grad(XY[0])
        XY[1] += Gn
        XY[1] -= G

    rec = _BlockRecorder("dgt", st, cost, W, eta, LYAP_CONSENSUS, phi_w, 0.0,
                         record)
    status, k_done = rec.run(st, step, iters, STATUS_OK)
    return status, k_done, {"x": st[0][0], "y": st[0][1]}
