"""Compression operators, their error-bound constants, and bit-cost models.

This module owns the operator, its class constants, the bit ledger and the
verifier of its class bound; what a compressor config may say is ``config``'s.

Three operator classes are supported, distinguished by the bound their
compression error obeys:

* ``relative``        -- E||C(x)/r - x||^2 <= (1 - psi) ||x||^2
* ``global_absolute`` -- E||C(x) - x||_inf^2 <= C for every x
* ``local_absolute``  -- ||C(x) - x||_inf <= 1 - phi_c whenever ||x||_inf <= 1

Relative-class specs also carry the derived constant
C = 2 r^2 (1 - psi) + 2 (1 - r)^2 bounding E||C(x) - x||^2 / ||x||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

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
    delta: float = 0.0          # uniform_quantize grid step
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


def make_compressor(kind: str, d: int, *, delta: float = 2.0,
                    keep_k: int | None = None, levels: int | None = None,
                    sparsify_mode: str = "top",
                    rescale: bool = False) -> CompressorSpec:
    """The spec of a ``kind`` operator on ``d``-vectors.  Only the keywords
    that the kind reads (``_KIND_OPTIONS``) reach the spec; an unknown kind
    reaches it with none, and the spec refuses it.  keep_k and levels have
    no default: a kind that reads one needs it."""
    given = {"delta": delta, "keep_k": keep_k, "levels": levels,
             "sparsify_mode": sparsify_mode, "rescale": rescale}
    return CompressorSpec(kind, d, **{
        key: given[key] for key in _KIND_OPTIONS.get(kind, ())})


def compress(spec: CompressorSpec, x: np.ndarray, *, seed: int = 0,
             k: int = 0, slot: int = 0) -> np.ndarray:
    """Apply the operator to one vector, an (n, d) stack of agent rows or
    an (m, n, d) block of m such stacks.

    This is the block kernel the steppers run.  Random kinds draw from its
    counter-based stream: row i of a stack is agent i, and its draws are
    keyed by the run's ``seed``, the iteration ``k``, the agent i and the
    message ``slot`` (alg1/alg2 send x in slot 0 and y in slot 1, alg2 its
    error-feedback messages in slots 2 and 3; alg3 uses slots 0 and 1).
    Stack j of a block is message slot ``slot + j``.  A single vector is
    agent 0.  Deterministic kinds ignore the keys.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise CompressorError("compress input has non-finite entries")
    if x.ndim not in (1, 2, 3):
        raise CompressorError(
            "compress takes a vector, an (n, d) stack or an (m, n, d) block")
    q = _kernels._compress_block_np(
        spec, x.reshape((1,) * (3 - x.ndim) + x.shape),
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF), k, slot)
    return q.reshape(x.shape)


@dataclass(frozen=True)
class BitCostModel:
    """Payload accounting: bits_scalar per full-precision real, bits_int per
    transmitted small integer."""

    bits_scalar: int = 64
    bits_int: int = 4

    def __post_init__(self):
        if self.bits_scalar < 1 or self.bits_int < 1:
            raise CompressorError("bit widths must be >= 1")


def bit_cost(spec: CompressorSpec, model: BitCostModel) -> int:
    """Bits to transmit one compressed ``spec.d``-vector (payload only, no
    headers)."""
    kind, d = spec.kind, spec.d
    if kind == "norm_sign":
        return 2 * d + model.bits_scalar
    if kind == "uniform_quantize":
        return d * model.bits_int
    if kind == "one_bit":
        return d
    if kind == "identity":
        return d * model.bits_scalar
    if kind == "random_sparsify":
        # value plus index per kept coordinate
        return spec.keep_k * (model.bits_scalar + max(1, math.ceil(math.log2(d))))
    if kind == "random_quantize":
        # per-entry level plus the shared scale scalar
        return d * max(1, math.ceil(math.log2(spec.levels))) + model.bits_scalar
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
                      rng: np.random.Generator,
                      inner: int = 1000, tol: float = 0.05) -> VerifyReport:
    """Empirically check the class bound on random plus adversarial
    ``spec.d``-vectors.

    Deterministic operators must satisfy the bound on every draw (tolerance
    1e-9 for rounding only); randomized ones are checked through the sample
    mean over ``inner`` draws against (1 - psi) * (1 + tol).  Random draws
    come from the counter stream the runs use (see ``compress``): one seed
    drawn from ``rng`` per report, probe i at iteration key i, and its
    ``inner`` draws as the rows of one stack.
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
        slack = 1e-9 if deterministic else tol
        for i, x in enumerate(xs):
            nx2 = float(x @ x)
            if nx2 == 0.0:
                continue
            if deterministic:
                err = compress(spec, x) / spec.r - x
                ratio = float(err @ err) / nx2
            else:
                errs = compress(spec, np.tile(x, (inner, 1)), seed=seed,
                                k=i) / spec.r - x
                ratio = float((errs * errs).sum()) / inner / nx2
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
