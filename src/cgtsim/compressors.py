"""Compression operators, their error-bound constants, and bit-cost models.

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
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

KINDS = (
    "identity",
    "norm_sign",
    "uniform_quantize",
    "one_bit",
    "random_sparsify",
    "random_quantize",
)

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
    kind: str
    d: int
    assumption_class: str
    # operator parameters
    delta: float = 0.0          # uniform_quantize grid step
    keep_k: int = 0             # random_sparsify kept coordinates
    levels: int = 0             # random_quantize grid size
    sparsify_mode: str = "top"  # "top" | "random"
    rescale: bool = False       # random_sparsify d/k rescaling
    # error-bound constants
    r: float = 1.0
    psi: float = 1.0
    cap_c: float = 0.0
    phi_c: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CompressorError(f"unknown compressor kind {self.kind!r}")
        if self.d < 1:
            raise CompressorError("dimension must be positive")
        if self.assumption_class == RELATIVE:
            if self.r <= 0 or not 0.0 < self.psi <= 1.0:
                raise CompressorError(
                    f"relative class needs r > 0 and psi in (0, 1], got "
                    f"r={self.r}, psi={self.psi}")
            want = derived_relative_cap(self.r, self.psi)
            if not math.isclose(self.cap_c, want, rel_tol=1e-12, abs_tol=1e-12):
                raise CompressorError(
                    f"stored cap_c={self.cap_c} != 2r^2(1-psi)+2(1-r)^2={want}")
        elif self.assumption_class == GLOBAL_ABSOLUTE:
            if self.cap_c < 0:
                raise CompressorError("global absolute class needs cap_c >= 0")
        elif self.assumption_class == LOCAL_ABSOLUTE:
            if not 0.0 < self.phi_c <= 1.0:
                raise CompressorError("local absolute class needs phi_c in (0, 1]")
        else:
            raise CompressorError(
                f"unknown assumption class {self.assumption_class!r}")

    @property
    def is_deterministic(self) -> bool:
        return not (self.kind == "random_quantize"
                    or (self.kind == "random_sparsify"
                        and self.sparsify_mode == "random"))


def make_compressor(kind: str, d: int, *, delta: float = 2.0, keep_k: int = 0,
                    levels: int = 0, sparsify_mode: str = "top",
                    rescale: bool = False, r: float | None = None,
                    psi: float | None = None, cap_c: float | None = None,
                    phi_c: float | None = None) -> CompressorSpec:
    """Build a spec with the standard constants for each operator.

    Explicit ``r``/``psi`` (relative class), ``cap_c`` (global absolute) or
    ``phi_c`` (local absolute) override the defaults; the derived relative
    constant C is always recomputed from (r, psi).
    """
    if kind == "identity":
        rr, pp = 1.0, 1.0
        return CompressorSpec(kind, d, RELATIVE, r=rr, psi=pp,
                              cap_c=derived_relative_cap(rr, pp))
    if kind == "norm_sign":
        rr = d / 2.0 if r is None else r
        pp = 1.0 / d**2 if psi is None else psi
        return CompressorSpec(kind, d, RELATIVE, r=rr, psi=pp,
                              cap_c=derived_relative_cap(rr, pp))
    if kind == "random_sparsify":
        if not 1 <= keep_k <= d:
            raise CompressorError(f"keep_k={keep_k} outside [1, {d}]")
        if sparsify_mode not in ("top", "random"):
            raise CompressorError(f"bad sparsify_mode {sparsify_mode!r}")
        rr = (d / keep_k if rescale else 1.0) if r is None else r
        pp = keep_k / d if psi is None else psi
        return CompressorSpec(kind, d, RELATIVE, keep_k=keep_k,
                              sparsify_mode=sparsify_mode, rescale=rescale,
                              r=rr, psi=pp, cap_c=derived_relative_cap(rr, pp))
    if kind == "random_quantize":
        if levels < 2:
            raise CompressorError("random_quantize needs levels >= 2")
        if (levels - 1) ** 2 <= d and psi is None:
            raise CompressorError(
                f"random_quantize needs (levels-1)^2 > d for a valid psi; "
                f"got levels={levels}, d={d}")
        rr = 1.0 if r is None else r
        pp = 1.0 - d / (levels - 1) ** 2 if psi is None else psi
        return CompressorSpec(kind, d, RELATIVE, levels=levels, r=rr, psi=pp,
                              cap_c=derived_relative_cap(rr, pp))
    if kind == "uniform_quantize":
        if delta <= 0:
            raise CompressorError("uniform_quantize needs delta > 0")
        cc = 0.25 * delta * delta if cap_c is None else cap_c
        return CompressorSpec(kind, d, GLOBAL_ABSOLUTE, delta=delta, cap_c=cc)
    if kind == "one_bit":
        pc = 0.5 if phi_c is None else phi_c
        return CompressorSpec(kind, d, LOCAL_ABSOLUTE, phi_c=pc)
    raise CompressorError(f"unknown compressor kind {kind!r}")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _finite(v) -> bool:
    return _is_real(v) and math.isfinite(v)


# make_compressor's keywords, each with what a config value must be; the
# ranges that depend on the kind or on d are make_compressor's own checks
_CONFIG_OPTIONS = {
    "delta": ("a positive finite number", lambda v: _finite(v) and v > 0),
    "keep_k": ("a positive int", lambda v: _is_int(v) and v >= 1),
    "levels": ("an int >= 2", lambda v: _is_int(v) and v >= 2),
    "sparsify_mode": ('"top" or "random"', lambda v: v in ("top", "random")),
    "rescale": ("a bool", lambda v: isinstance(v, bool)),
    "r": ("a positive finite number", lambda v: _finite(v) and v > 0),
    "psi": ("a number in (0, 1]", lambda v: _finite(v) and 0 < v <= 1),
    "cap_c": ("a nonnegative finite number", lambda v: _finite(v) and v >= 0),
    "phi_c": ("a number in (0, 1]", lambda v: _finite(v) and 0 < v <= 1),
}

# the keywords make_compressor reads for each kind; it ignores the others
_KIND_OPTIONS = {
    "identity": (),
    "norm_sign": ("r", "psi"),
    "uniform_quantize": ("delta", "cap_c"),
    "one_bit": ("phi_c",),
    "random_sparsify": ("keep_k", "sparsify_mode", "rescale", "r", "psi"),
    "random_quantize": ("levels", "r", "psi"),
}


def spec_from_config(cfg: dict, d: int) -> CompressorSpec:
    """Parse a config mapping with keys kind/delta/keep_k/levels/
    sparsify_mode/rescale plus optional overrides r/psi/cap_c/phi_c.
    A key the kind does not read, and a value of the wrong type or range,
    is a CompressorError."""
    if not isinstance(cfg, dict):
        raise CompressorError(f"compressor config must be a mapping, not "
                              f"{cfg!r}")
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind is None:
        raise CompressorError("compressor config needs a 'kind' key")
    bad = set(cfg) - set(_CONFIG_OPTIONS)
    if bad:
        raise CompressorError(f"unknown compressor config keys: {sorted(bad)}")
    if kind not in KINDS:  # a tuple: an unhashable kind is just unknown
        raise CompressorError(f"unknown compressor kind {kind!r}")
    bad = set(cfg) - set(_KIND_OPTIONS[kind])
    if bad:
        raise CompressorError(f"compressor keys {sorted(bad)} do not apply "
                              f"to {kind}")
    for key, value in cfg.items():
        what, ok = _CONFIG_OPTIONS[key]
        if not ok(value):
            raise CompressorError(f"compressor {key!r} must be {what}, not "
                                  f"{value!r}")
    return make_compressor(kind, d, **cfg)


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
