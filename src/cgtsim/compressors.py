"""Compression operators, their error-bound constants, and bit-cost models.

This module owns the operator, its class constants, its bit cost and the
verifier of its class bound; what a compressor config may say is ``config``'s.

Three operator classes are supported, distinguished by the bound their
compression error obeys:

* ``relative``        -- E||C(x)/r - x||^2 <= (1 - psi) ||x||^2
* ``global_absolute`` -- E||C(x) - x||_inf^2 <= C for every x
* ``local_absolute``  -- ||C(x) - x||_inf <= 1 - phi_c whenever ||x||_inf <= 1

Relative-class specs also carry the derived constant
C = 2 r^2 (1 - psi) + 2 (1 - r)^2 bounding E||C(x) - x||^2 / ||x||^2.

One block kernel, ``_compress_block``, applies every operator to an
(m, n, d) block: the run steppers call it on their message blocks, and
``compress`` and the verifier on what they are given, so runs and
certification use one operator.  Stack j of a block started at ``slot`` is
message slot slot + j, and row i of a stack is agent i.  Random kinds draw
from a counter-based splitmix64 stream keyed by (seed, iteration, agent,
slot), so the draws of one message depend on nothing else and runs are
bitwise reproducible.  Deterministic kinds ignore the keys.

Norm-sign and one-bit make no block-wide ``np.where``.  They rely on these
exact identities, so they give bitwise what the ``np.where`` formulas give
(``tests/kernel_oracles.py``), signs of zero included:

* ``np.subtract(x >= 0, 0.5)`` is +0.5 where x >= 0, -0.0 included, and
  -0.5 elsewhere, NaN included: one-bit, and norm-sign's sign.
* (-0.5) * a == -(0.5 * a) for every a, inf included, as negation is exact:
  norm-sign's +-a/2.  A row of zeros (a = 0) gives 0.5 * 0 = +0.0 with no
  mask; only a NaN row (a = NaN) needs the row mask that sets it to 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the keywords each kind reads; make_compressor passes no other to the spec
_KIND_OPTIONS = {
    "identity": (),
    "norm_sign": (),
    "uniform_quantize": ("delta",),
    "one_bit": (),
    "random_sparsify": ("keep_k", "sparsify_mode", "rescale"),
    "random_quantize": ("levels",),
}
KINDS = tuple(_KIND_OPTIONS)

RELATIVE = "relative"
GLOBAL_ABSOLUTE = "global_absolute"
LOCAL_ABSOLUTE = "local_absolute"
_INNER_DRAWS, _MEAN_TOL = 1000, 0.05  # verify_assumption's sampling rule
SCALAR_BITS = 64  # a full-precision real: runs send float64 values

class CompressorError(ValueError):
    pass


def derived_relative_cap(r: float, psi: float) -> float:
    """Absolute-error constant implied by a relative-class (r, psi) pair."""
    return 2.0 * r * r * (1.0 - psi) + 2.0 * (1.0 - r) ** 2


@dataclass(frozen=True)
class CompressorSpec:
    """One compression operator on ``d``-vectors.  Its class and constants
    are no arguments: they follow from the kind, d and the operator
    parameters (``_class_constants``)."""

    kind: str
    d: int
    # operator parameters
    delta: float = 2.0          # uniform_quantize grid step
    keep_k: int | None = None   # random_sparsify kept coordinates
    levels: int | None = None   # random_quantize grid size
    sparsify_mode: str = "top"  # "top" | "random"
    rescale: bool = False       # random_sparsify d/k rescaling
    # the class and its error-bound constants; a class keeps the defaults of
    # the constants it does not state
    assumption_class: str = field(init=False)
    r: float = field(init=False, default=1.0)
    psi: float = field(init=False, default=1.0)
    cap_c: float = field(init=False, default=0.0)
    phi_c: float = field(init=False, default=1.0)

    def __post_init__(self):
        if self.d < 1:
            raise CompressorError("dimension must be positive")
        for name, value in _class_constants(self).items():
            object.__setattr__(self, name, value)

    @property
    def is_deterministic(self) -> bool:
        return not (self.kind == "random_quantize"
                    or (self.kind == "random_sparsify"
                        and self.sparsify_mode == "random"))


def _class_constants(spec: CompressorSpec) -> dict:
    """The class whose bound the operator of ``spec`` meets, and the
    constants of that bound, from d and the operator parameters; the one
    place they are computed, one branch per kind.  A parameter outside its
    range is a CompressorError."""
    kind, d = spec.kind, spec.d
    if kind == "identity":
        r, psi = 1.0, 1.0
    elif kind == "norm_sign":
        r, psi = d / 2.0, 1.0 / d**2
    elif kind == "random_sparsify":
        if spec.keep_k is None or not 1 <= spec.keep_k <= d:
            raise CompressorError(f"keep_k={spec.keep_k} outside [1, {d}]")
        if spec.sparsify_mode not in ("top", "random"):
            raise CompressorError(
                f"bad sparsify_mode {spec.sparsify_mode!r}")
        r = d / spec.keep_k if spec.rescale else 1.0
        psi = spec.keep_k / d
    elif kind == "random_quantize":
        if spec.levels is None or spec.levels < 2 \
                or (spec.levels - 1) ** 2 <= d:
            raise CompressorError(
                f"random_quantize needs levels >= 2 and (levels-1)^2 > d for "
                f"a valid psi; got levels={spec.levels}, d={d}")
        r, psi = 1.0, 1.0 - d / (spec.levels - 1) ** 2
    elif kind == "uniform_quantize":
        if spec.delta <= 0:
            raise CompressorError("uniform_quantize needs delta > 0")
        return {"assumption_class": GLOBAL_ABSOLUTE,
                "cap_c": 0.25 * spec.delta * spec.delta}
    elif kind == "one_bit":
        return {"assumption_class": LOCAL_ABSOLUTE, "phi_c": 0.5}
    else:
        raise CompressorError(f"unknown compressor kind {kind!r}")
    return {"assumption_class": RELATIVE, "r": r, "psi": psi,
            "cap_c": derived_relative_cap(r, psi)}


def make_compressor(kind: str, d: int, **options) -> CompressorSpec:
    """The spec of a ``kind`` operator on ``d``-vectors.  Only the
    ``options`` that the kind reads (``_KIND_OPTIONS``) reach the spec; an
    unknown kind reaches it with none, and the spec refuses it.  An option
    left out takes ``CompressorSpec``'s default; a keyword that is no
    option of any kind is a TypeError."""
    unknown = options.keys() - {key for keys in _KIND_OPTIONS.values()
                                for key in keys}
    if unknown:
        raise TypeError(f"make_compressor() got an unexpected keyword "
                        f"argument {sorted(unknown)[0]!r}")
    return CompressorSpec(kind, d, **{
        key: options[key] for key in _KIND_OPTIONS.get(kind, ())
        if key in options})


# ---------------------------------------------------------------------------
# the counter-based stream and the block kernel

_U1 = np.uint64(0x9E3779B97F4A7C15)
_U2 = np.uint64(0xBF58476D1CE4E5B9)
_U3 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(30), np.uint64(27), np.uint64(31),
                          np.uint64(11))
_KITER = np.uint64(0xA076_1D64_78BD_642F)
_KAGENT = np.uint64(0xE703_7ED1_A0B4_28DB)
_KSLOT = np.uint64(0x8EBC_6AF0_9C88_C6E3)
_INV53 = 1.0 / 9007199254740992.0


def _mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = z + _U1
        z = (z ^ (z >> _S30)) * _U2
        z = (z ^ (z >> _S27)) * _U3
        return z ^ (z >> _S31)


def _u01(z: np.ndarray) -> np.ndarray:
    return (_mix64(z) >> _S11) * _INV53


def _msg_base(seed: int, k: int, n: int, slot) -> np.ndarray:
    """Stream bases of agents 1..n in message ``slot``: shape (n,) for one
    slot, (m, n) for an array of m slots."""
    agents = np.arange(1, n + 1, dtype=np.uint64)
    slots = np.asarray(slot, dtype=np.uint64)[..., None]
    with np.errstate(over="ignore"):
        z = (np.uint64(seed)
             ^ (np.uint64(k + 1) * _KITER)
             ^ (agents * _KAGENT)
             ^ ((slots + np.uint64(1)) * _KSLOT))
    return _mix64(z)


def _compress_block(spec, Xin, seed, k, slot):
    """Compress the (m, n, d) message block ``Xin``, whose first stack is
    message slot ``slot``, with the operator ``spec``."""
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
        bases = _msg_base(seed, k, n, slots)
        u = _u01(bases[:, :, None] + np.arange(d, dtype=np.uint64))
        lvl = lo + (u < (t - lo))
        return np.where(a > 0.0, lvl * h - safe, 0.0)
    X = Xin.reshape(m * n, d)  # sparsify: one row per (slot, agent)
    rows = np.arange(m * n)
    keep_k = spec.keep_k
    if spec.sparsify_mode == "top":
        keep = np.argsort(-np.abs(X), axis=1, kind="stable")[:, :keep_k]
    else:
        # the first keep_k steps of a Fisher-Yates shuffle, all rows at once
        bases = _msg_base(seed, k, n, slots).ravel()
        idx = np.tile(np.arange(d), (m * n, 1))
        for t in range(keep_k):
            u = _u01(bases + np.uint64(t))
            j = np.minimum(t + (u * (d - t)).astype(np.int64), d - 1)
            idx[rows, t], idx[rows, j] = idx[rows, j], idx[rows, t]
        keep = idx[:, :keep_k]
    rows = rows[:, None]
    out = np.zeros_like(X)
    out[rows, keep] = X[rows, keep] * (spec.d / keep_k if spec.rescale
                                       else 1.0)
    return out.reshape(Xin.shape)


def compress(spec: CompressorSpec, x: np.ndarray, *, seed: int = 0,
             k: int = 0, slot: int = 0) -> np.ndarray:
    """Apply the operator to one vector (agent 0), an (n, d) stack of agent
    rows or an (m, n, d) block of m such stacks, with the block kernel the
    runs use, keyed by ``seed``, ``k`` and ``slot``."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise CompressorError("compress input has non-finite entries")
    if x.ndim not in (1, 2, 3):
        raise CompressorError(
            "compress takes a vector, an (n, d) stack or an (m, n, d) block")
    q = _compress_block(
        spec, x.reshape((1,) * (3 - x.ndim) + x.shape),
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF), k, slot)
    return q.reshape(x.shape)


@dataclass(frozen=True)
class BitCostModel:
    """Payload accounting: bits_int per transmitted small integer, and
    ``SCALAR_BITS`` per full-precision real."""

    bits_int: int = 4

    def __post_init__(self):
        if self.bits_int < 1:
            raise CompressorError("bits_int must be >= 1")


def bit_cost(spec: CompressorSpec, model: BitCostModel) -> int:
    """Bits to transmit one compressed ``spec.d``-vector (payload only, no
    headers)."""
    kind, d = spec.kind, spec.d
    if kind == "norm_sign":
        return 2 * d + SCALAR_BITS
    if kind == "uniform_quantize":
        return d * model.bits_int
    if kind == "one_bit":
        return d
    if kind == "identity":
        return d * SCALAR_BITS
    if kind == "random_sparsify":
        # value plus index per kept coordinate
        return spec.keep_k * (SCALAR_BITS + max(1, math.ceil(math.log2(d))))
    if kind == "random_quantize":
        # per-entry level plus the shared scale scalar
        return d * max(1, math.ceil(math.log2(spec.levels))) + SCALAR_BITS
    raise CompressorError(f"unknown compressor kind {kind!r}")


@dataclass
class VerifyReport:
    spec: CompressorSpec
    trials: int
    max_observed_ratio: float
    bound: float
    passed: bool
    violations: list = field(default_factory=list)


def _probe_inputs(trials: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Standard normal probes plus adversarial rows: spike, constant, tiny."""
    xs = rng.standard_normal((trials, d))
    if trials >= 4:
        xs[0] = 0.0
        xs[0, 0] = 3.0                      # single spike
        xs[1] = 1.0                         # constant
        xs[2] = 1e-12 * rng.standard_normal(d)  # tiny norm
        xs[3, : d // 2 or 1] = 0.0          # half-sparse
    return xs


def verify_assumption(spec: CompressorSpec, trials: int,
                      rng: np.random.Generator) -> VerifyReport:
    """Empirically check the class bound on random plus adversarial
    ``spec.d``-vectors.

    Deterministic operators must satisfy the bound on every draw (tolerance
    1e-9 for rounding only); randomized ones are checked through the sample
    mean over ``_INNER_DRAWS`` draws against (1 - psi) * (1 + _MEAN_TOL).
    Random draws come from the counter stream the runs use: one seed drawn
    from ``rng`` per report, probe i at iteration key i, and its draws as
    the rows of one stack.
    """
    if trials < 100:
        raise CompressorError("need at least 100 trials")
    violations = []
    worst = 0.0
    deterministic = spec.is_deterministic
    sampled = spec.assumption_class == RELATIVE and not deterministic
    n_x = max(8, trials // 100) if sampled else trials
    xs = _probe_inputs(n_x, spec.d, rng)
    seed = 0 if deterministic else int(rng.integers(2**63))

    if spec.assumption_class == RELATIVE:
        bound = 1.0 - spec.psi
        slack = 1e-9 if deterministic else _MEAN_TOL
        for i, x in enumerate(xs):
            nx2 = float(x @ x)
            if nx2 == 0.0:
                continue
            if deterministic:
                err = compress(spec, x) / spec.r - x
                ratio = float(err @ err) / nx2
            else:
                errs = compress(spec, np.tile(x, (_INNER_DRAWS, 1)),
                                seed=seed, k=i) / spec.r - x
                ratio = float((errs * errs).sum()) / _INNER_DRAWS / nx2
            worst = max(worst, ratio)
            if ratio > bound * (1.0 + slack) + 1e-15:
                violations.append((x.copy(), ratio))
        return VerifyReport(spec, n_x, worst, bound, not violations, violations)

    # the absolute classes bound the error in the inf-norm
    if spec.assumption_class == GLOBAL_ABSOLUTE:
        xs[4:8] *= 100.0  # the bound is global: try large inputs too
        bound, power = spec.cap_c, 2
    else:  # local: inputs live in the unit ball
        xs /= np.maximum(np.abs(xs).max(axis=1, keepdims=True), 1.0)
        bound, power = 1.0 - spec.phi_c, 1
    for i, x in enumerate(xs):
        err = compress(spec, x, seed=seed, k=i) - x
        val = float(np.abs(err).max()) ** power
        worst = max(worst, val)
        if val > bound * (1.0 + 1e-9) + 1e-15:
            violations.append((x.copy(), val))
    return VerifyReport(spec, trials, worst, bound, not violations, violations)
