"""The compressor kernel in its plain numpy formulation, the bitwise reference
for ``cgtsim.compressors._compress_block``.

Norm-sign and one-bit are an ``np.where`` over the whole block, and uniform
quantization one expression.  The shipped kernel computes the same values
with bool arithmetic, a NaN-row mask and in-place updates; the tests require
equal bits, the sign of zero included.  The message streams are the
kernel's own ``_msg_base`` and ``_u01``.
"""

import numpy as np

from cgtsim.compressors import _msg_base, _u01


def compress_block(spec, Xin, seed, k, slot):
    m, n, d = Xin.shape
    kind = spec.kind
    if kind == "identity":
        return Xin.copy()
    if kind == "norm_sign":
        a = np.abs(Xin).max(axis=2, keepdims=True)
        half = 0.5 * a
        out = np.where(Xin >= 0.0, half, -half)
        out[~(a[:, :, 0] > 0.0)] = 0.0
        return out
    if kind == "uniform_quantize":
        return spec.delta * np.floor(Xin / spec.delta + 0.5)
    if kind == "one_bit":
        return np.where(Xin >= 0.0, 0.5, -0.5)
    slots = np.arange(slot, slot + m)
    if kind == "random_quantize":
        a = np.max(np.abs(Xin), axis=2, keepdims=True)
        safe = np.where(a > 0.0, a, 1.0)
        h = 2.0 * safe / (spec.levels - 1)
        t = (Xin + safe) / h
        lo = np.floor(t)
        bases = _msg_base(seed, k, n, slots)
        u = _u01(bases[:, :, None] + np.arange(d, dtype=np.uint64))
        lvl = lo + (u < (t - lo))
        return np.where(a > 0.0, lvl * h - safe, 0.0)
    X = Xin.reshape(m * n, d)
    rows = np.arange(m * n)
    ip = spec.keep_k
    if spec.sparsify_mode == "top":
        keep = np.argsort(-np.abs(X), axis=1, kind="stable")[:, :ip]
    else:
        bases = _msg_base(seed, k, n, slots).ravel()
        idx = np.tile(np.arange(d), (m * n, 1))
        for t in range(ip):
            u = _u01(bases + np.uint64(t))
            j = np.minimum(t + (u * (d - t)).astype(np.int64), d - 1)
            idx[rows, t], idx[rows, j] = idx[rows, j], idx[rows, t]
        keep = idx[:, :ip]
    rows = rows[:, None]
    out = np.zeros_like(X)
    out[rows, keep] = X[rows, keep] * (spec.d / ip if spec.rescale else 1.0)
    return out.reshape(Xin.shape)
