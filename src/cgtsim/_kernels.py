"""Iteration kernels: the compressor kernel, one step function per update
rule and the block recorder.  ``algorithms.run``, the one driver, builds and
records every run with them from its rule's description
(``algorithms.RULES``), and none of them branches on the rule's name.

Compressor randomness comes from a counter-based splitmix64 stream: the draws
of one message depend only on (seed, iteration, agent, slot).  Runs are
therefore bitwise reproducible, and ``compressors.compress`` (the same block
kernel, with explicit keys) certifies the operator that runs use.

Norm-sign and one-bit make no block-wide ``np.where``.  They rely on these
exact identities, so they give bitwise what the ``np.where`` formulas give
(``tests/kernel_oracles.py``), signs of zero included:

* ``np.subtract(x >= 0, 0.5)`` is +0.5 where x >= 0, -0.0 included, and
  -0.5 elsewhere, NaN included: one-bit, and norm-sign's sign.
* (-0.5) * a == -(0.5 * a) for every a, inf included, as negation is exact:
  norm-sign's +-a/2.  A row of zeros (a = 0) gives 0.5 * 0 = +0.0 with no
  mask; only a NaN row (a = NaN) needs the row mask that sets it to 0.0.

Costs are evaluated by the run's ``costs.RunCosts``: the steppers take
gradients from it and the recorder each row's gap and stationarity.
Quadratics use the Gram form there (n*d^2 floats, built after the reference
solve): one batched matrix-vector product a step and one d x d product a row;
``costs`` states the memory and the crossover below about d/3 factor rows.

State blocks.  Each x/y twin of the update rules is one contiguous (2, n, d)
block, x in slot 0 and y in slot 1.  A run's state list is X|Y, G, the twins
the rule describes (A|C, B|D, and alg2's Ex|Ey; Xhat|Yhat, V|Z for alg3),
then a compressed rule's message block: all messages of one step as one
(m, n, d) block along a slot axis, one slot per message the rule names:
Qx, Qy (m = 2), then alg2's error-feedback Qhx, Qhy (m = 4).
A step makes one compressor-kernel call over that block, one
``np.matmul(W, Q)``, one update per twin and the one tracking tail
(``_track``), written in place into the run's blocks.  The stacked matmul
still makes one gemm per slot and every elementwise update rounds as the
per-array update did, so traces and states are bitwise those of updating
each half of a twin on its own.  The kernel's draws for slot j of a block
started at ``slot`` are keyed by slot + j.

The steppers only step.  The block recorder takes each row's state and,
every B rows, computes the trace rows and the invariant maxima for the whole
block at once, twin by twin: one reduction gives both agent means, one both
consensus and tracking errors, and one call each twin's Lyapunov sum,
accumulator identity or induction ratio.  Its batched products make the same
BLAS call per row and half, and its reductions sum in the same order, as
recording each half row by row, so the result is bitwise equal to per-step
recording.  B = clamp(1 MiB // bytes per recorded row, 1, 64) follows from
n*d and the number of (n, d) arrays a row records: X|Y, G and every twin,
so 3 for dgt, 7 for alg1 and alg3 and 9 for alg2.  At n=20, d=50 that is
43, 18 and 14; B is 1 once a row passes 512 KiB (n*d above about 22000 for
dgt and 9400 for alg1/alg3).  At B = 1 rows are recorded straight from the
state blocks, before the next step overwrites them.  A non-finite row ends
the run at that row, at the flush that finds it: the steps already taken
past it inside the block enter neither the trace nor the maxima, and no
step is taken twice.

Shared conventions:

* agent states are stacked row-wise, shape (n, d)
* metric arrays hold one record per iteration index 0..iters
* a run's ``diag`` maps each runtime invariant its rule lists (named and
  defined in ``algorithms.DIAG_NAMES``) to its running maximum
* a run ends "ok", "nonfinite_state" (a non-finite row) or
  "scaling_exhausted" (the next scale s(k) would underflow)
"""

from __future__ import annotations

import numpy as np

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

def _compress_block_np(spec, Xin, seed, k, slot):
    """Compress an (m, n, d) message block with the operator ``spec`` (a
    ``compressors.CompressorSpec``): ``Xin[j]`` holds the n agents' inputs
    of message slot ``slot + j``."""
    m, n, d = Xin.shape
    kind = spec.kind
    if kind == "identity":
        return Xin.copy()
    if kind == "norm_sign":  # +-a/2; a row of zeros gives +0.0 unmasked
        a = np.abs(Xin).max(axis=2, keepdims=True)
        out = np.subtract(Xin >= 0.0, 0.5)
        out *= a
        out[np.isnan(a[:, :, 0])] = 0.0
        return out
    if kind == "uniform_quantize":  # delta * floor(Xin / delta + 0.5)
        out = Xin / spec.delta
        out += 0.5
        np.floor(out, out=out)
        out *= spec.delta
        return out
    if kind == "one_bit":
        return np.subtract(Xin >= 0.0, 0.5)
    slots = np.arange(slot, slot + m)
    if kind == "random_quantize":
        a = np.max(np.abs(Xin), axis=2, keepdims=True)
        safe = np.where(a > 0.0, a, 1.0)
        h = 2.0 * safe / (spec.levels - 1)
        t = (Xin + safe) / h
        lo = np.floor(t)
        bases = _msg_base_np(seed, k, n, slots)
        u = _u01_np(bases[:, :, None] + np.arange(d, dtype=np.uint64))
        lvl = lo + (u < (t - lo))
        return np.where(a > 0.0, lvl * h - safe, 0.0)
    X = Xin.reshape(m * n, d)  # sparsify: one row per (slot, agent)
    rows = np.arange(m * n)
    keep_k = spec.keep_k
    if spec.sparsify_mode == "top":
        keep = np.argsort(-np.abs(X), axis=1, kind="stable")[:, :keep_k]
    else:
        # the first keep_k steps of a Fisher-Yates shuffle, all rows at once
        bases = _msg_base_np(seed, k, n, slots).ravel()
        idx = np.tile(np.arange(d), (m * n, 1))
        for t in range(keep_k):
            u = _u01_np(bases + np.uint64(t))
            j = np.minimum(t + (u * (d - t)).astype(np.int64), d - 1)
            idx[rows, t], idx[rows, j] = idx[rows, j], idx[rows, t]
        keep = idx[:, :keep_k]
    rows = rows[:, None]
    out = np.zeros_like(X)
    out[rows, keep] = X[rows, keep] * (spec.d / keep_k if spec.rescale
                                       else 1.0)
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


# Batched helpers over leading row axes.  Each batched np.matmul makes the
# same BLAS call per row as the unbatched product (a @ b, np.linalg.norm's
# dot, W @ Base), and each reduction sums in the same order, so each half of
# each twin row gets bitwise what recording it alone row by row gives.  A
# pairwise sum in place of the dot, or one gemm over stacked rows, would not.

def _dots(A, B):
    """Row-wise dot products of two (..., m) arrays."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def _norms(A, lead=1):
    """np.linalg.norm over all but the first ``lead`` axes of A."""
    F = A.reshape(A.shape[:lead] + (-1,))
    return np.sqrt(_dots(F, F))


def _sums(A, lead=1):
    """.sum() over all but the first ``lead`` axes of A."""
    return np.add.reduce(A.reshape(A.shape[:lead] + (-1,)), -1)


def _metrics_rows(cost, XY, G):
    """Trace terms of b rows of X|Y (b, 2, n, d) and G (b, n, d): the
    (b, 2, d) agent means of X and Y, the (b, 2) consensus and tracking
    errors, the gap and stationarity at the mean x (from the run's
    ``costs.RunCosts``) and the relative mean-y tracking residual."""
    n = XY.shape[2]
    means = np.add.reduce(XY, 2) / n
    gbar = np.add.reduce(G, 1) / n
    D = XY - means[:, :, None]
    ct = _sums(np.square(D, out=D), 2)
    gap, stat = cost.trace_terms(means[:, 0])
    ytrack = _norms(means[:, 1] - gbar) / (1.0 + _norms(gbar))
    return means, ct, gap, stat, ytrack


def _struct_resid_rows(Acc, Base, W):
    """||Acc - (I - W) Base|| / ||Base|| for each half of b (2, n, d) twin
    rows: the accumulator identity."""
    M = np.matmul(W, Base)
    np.subtract(Base, M, out=M)
    np.subtract(Acc, M, out=M)
    return _norms(M, 2) / np.maximum(_norms(Base, 2), 1e-30)


def _row_norm_max_rows(A):
    """Largest agent inf-norm per (n, d) slab: its largest |entry|."""
    return np.abs(A).reshape(A.shape[:-2] + (-1,)).max(axis=-1)


def _raise_max(diag, i, vals):
    """diag[i] = max(diag[i], v) for each v in turn; a NaN v never wins."""
    diag[i] = np.fmax.reduce(vals, initial=diag[i])


def _raise_twin(diag, name, vals):
    """_raise_max of name_x and name_y by the halves of (b, 2) ``vals``."""
    for half, v in zip("xy", vals.T):
        _raise_max(diag, f"{name}_{half}", v)


class _BlockRecorder:
    """Trace rows and invariant maxima of one run of ``rule``, B rows at once.

    Row k is the run state before step k as a list of blocks: X|Y, G and
    the rule's twins, not its messages.  ``row`` is the first such list; it
    fixes the block shapes.  Twin 0 of a compressed rule is its reference
    (A|C, Xhat|Yhat) and twin 1 the accumulator meant to equal (I - W) times
    it (B|D, V|Z); alg2's Ex|Ey is twin 2.  The Lyapunov column is
    c + phi_w t plus the rule's terms: the gap weighted by ``aux`` under
    "consensus" (1.0 gives the consensus function, the scaled one else),
    the compression errors and the gap under "full", and those and ``aux``
    times the error-feedback sum under "ef".  A compressed rule checks the
    accumulators at each finite row, where row 0's twins are zero.  Steppers
    update their blocks in place, so at B = 1 a row is read before the next
    step and a scaled rule keeps a copy of the X it needs from it.
    """

    def __init__(self, rule, row, cost, W, eta, phi_w, aux, iters,
                 s_arr=None):
        n, d = row[1].shape
        self.B = _block_rows(sum(a.size for a in row) // (n * d), n, d)
        self.rule, self.nblk, self.cost, self.W = rule, len(row), cost, W
        self.eta, self.phi_w, self.aux = eta, phi_w, aux
        self.s_arr = s_arr
        # consensus_err, opt_gap, stationarity and lyapunov, row by row
        self.cols = np.zeros((4, iters + 1))
        self.diag = dict.fromkeys(rule.invariants, 0.0)
        # slot 0 carries the row before the block (its agent means, and a
        # scaled rule's X); rows go to slots 1..B.  At B = 1 rows are not
        # copied.
        self.means = np.empty((self.B + 1, 2, d))
        self.buf = ([np.empty((self.B + 1,) + a.shape) for a in row]
                    if self.B > 1 else None)
        self.rows = self.prev_x = None
        self.k0 = self.fill = 0

    def push(self, st):
        self.fill += 1
        if self.buf is None:
            self.rows = st[:self.nblk]
        else:
            for q, a in zip(self.buf, st):
                q[self.fill] = a

    def flush(self):
        """Record the pushed rows; returns the first non-finite row or None."""
        b, k0, W, diag, rule = self.fill, self.k0, self.W, self.diag, self.rule
        if self.buf is None:
            R = [a[None] for a in self.rows]
            Xp = None if self.prev_x is None else self.prev_x[None]
        else:
            R = [q[1:b + 1] for q in self.buf]
            Xp = self.buf[0][:b, 0]
        means, ct, g, s, ytr = _metrics_rows(self.cost, R[0], R[1])
        c, t = ct.T
        L = c + self.phi_w * t
        if rule.lyapunov == "consensus":
            L = L + self.aux * g
        else:  # the compression errors X-A|Y-C, and alg2's Ex|Ey
            D = np.subtract(R[0], R[2])
            ex, ey = _sums(np.square(D, out=D), 2).T
            L = L + ex + ey + g
            if rule.lyapunov == "ef":
                ex, ey = _sums(np.multiply(R[4], R[4], out=D), 2).T
                L = L + self.aux * (ex + ey)
        bad = np.flatnonzero(~np.isfinite(c + t + g + s))
        nok = int(bad[0]) if bad.size else b  # rows that pass the check
        keep = min(nok + 1, b)                # rows that enter the trace
        rows = slice(k0, k0 + keep)
        cons, gap, stat, lyap = self.cols
        cons[rows], gap[rows], stat[rows], lyap[rows] = (
            c[:keep], g[:keep], s[:keep], L[:keep])

        ok = slice(0, nok)
        _raise_max(diag, "mean_y_tracking", ytr[ok])
        if nok and rule.classes:
            _raise_twin(diag, "struct",
                        _struct_resid_rows(R[3][ok], R[2][ok], W))
        if nok and rule.scaled:
            sk = self.s_arr[k0:k0 + nok, None]
            _raise_twin(diag, "induction",
                        _row_norm_max_rows(R[0][ok] - R[2][ok]) / sk)

        # step k0 + j - 1 leads into row j: the mean-x recursion needs the
        # agent means of both rows, and a scaled rule's compression ratio
        # row j - 1's X and row j's Xhat
        self.means[1:b + 1] = means
        steps = slice(1 if k0 == 0 else 0, keep)
        if keep > steps.start:
            want = self.means[steps, 0] - self.eta * self.means[steps, 1]
            _raise_max(diag, "mean_x_recursion",
                       _norms(means[steps, 0] - want))
            if rule.scaled:
                _raise_max(diag, "compression_ratio",
                           _row_norm_max_rows(Xp[steps] - R[2][steps, 0])
                           / self.s_arr[k0 - 1 + steps.start:k0 - 1 + keep])
        if nok < b:
            return k0 + nok

        self.means[0] = self.means[b]
        if rule.scaled:
            if self.buf is None:
                self.prev_x = self.rows[0][0].copy()
            else:
                self.buf[0][0] = self.buf[0][b]
        self.rows = None
        self.k0 += b
        self.fill = 0
        return None


# Step functions: ``rule.step(rule, st, W, p, cost, comp, seed, s_arr)``
# returns the rule's ``step(k, st)``, which takes the run's state list ``st``
# (X|Y, G, the rule's twins, then its messages, ``st[-1]``) from row k to k+1.
# It updates the state blocks in place and ends in ``_track``, which takes
# gradients from ``cost`` (a ``costs.RunCosts``).  Its scratch is ``tmp``,
# one (2, n, d) block, and ``buf``, one slot per message: ``buf`` takes
# W @ Q, then, once that is spent, the step's other temporaries and the next
# messages' inputs.  Both are bound as default arguments, so the in-place
# operators act on them.  Only G and the message block are new arrays, which
# keeps a large-n run's live arrays near those of updating twin halves alone.

def _track(st, tmp, ey, eta, cost):
    """Every step's tracking tail: X|Y -= tmp, X -= eta * (the old Y), then
    Y += grad f(X) - (the old G); ``ey`` is (n, d) scratch."""
    XY, G = st[0], st[1]
    np.multiply(eta, XY[1], out=ey)
    XY -= tmp
    XY[0] -= ey
    st[1] = Gn = cost.grad(XY[0])
    XY[1] += Gn
    XY[1] -= G


def _alg1_step(rule, st, W, p, cost, comp, seed, s_arr):
    """alg1, and alg2 (``rule.feedback``)."""
    n, d = st[1].shape
    eta, gamma, varsigma = p.eta, p.gamma, p.varsigma
    use_ef = rule.feedback
    phi = np.array([p.phi_x, p.phi_y])[:, None, None]

    def step(k, st, tmp=np.empty((2, n, d)), buf=np.empty_like(st[-1])):
        XY, AC, BD, Q = st[0], st[2], st[3], st[-1]
        E = st[4] if use_ef else None  # alg2's Ex|Ey
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
        _track(st, tmp, buf[0], eta, cost)
        np.subtract(XY, AC, out=buf[:2])  # the next messages' inputs
        if use_ef:
            h = np.multiply(varsigma, E, out=buf[2:])
            h += XY
            h -= AC
        st[-1] = _compress_block_np(comp, buf, seed, k + 1, 0)

    return step


def _alg3_step(rule, st, W, p, cost, comp, seed, s_arr):
    n, d = st[1].shape
    eta, gamma = p.eta, p.gamma

    def step(k, st, tmp=np.empty((2, n, d)), buf=np.empty((2, n, d))):
        XY, _, Hat, VZ, Q = st
        mixQ = _mix(W, Q, buf)
        sk = s_arr[k]
        Hat += np.multiply(sk, Q, out=tmp)
        diff = np.subtract(Q, mixQ, out=tmp)
        diff *= sk
        VZ += diff
        np.multiply(gamma, VZ, out=tmp)
        _track(st, tmp, buf[0], eta, cost)
        cin = np.subtract(XY, Hat, out=tmp)  # the next messages' inputs
        cin /= s_arr[k + 1]
        st[-1] = _compress_block_np(comp, cin, seed, k + 1, 0)

    return step


def _dgt_step(rule, st, W, p, cost, comp, seed, s_arr):
    eta, gamma = p.eta, p.gamma

    def step(k, st, tmp=np.empty_like(st[0]), ey=np.empty_like(st[1])):
        XY = st[0]
        _mix(W, XY, tmp)
        np.subtract(XY, tmp, out=tmp)
        tmp *= gamma
        _track(st, tmp, ey, eta, cost)

    return step
