"""Operator semantics, bound constants, bit costs, and empirical certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cgtsim import compressors, config
from cgtsim.compressors import (
    BitCostModel,
    CompressorError,
    CompressorSpec,
    bit_cost,
    compress,
    derived_relative_cap,
    make_compressor,
    verify_assumption,
)
from cgtsim.config import ConfigError, spec_from_config
from compressor_oracles import claiming, worst_case
from kernel_oracles import compress_block


def test_norm_sign_formula():
    spec = make_compressor("norm_sign", d=3)
    out = compress(spec, np.array([1.0, -2.0, 0.5]))
    # max magnitude 2, halved; sign(0.5) = +1
    assert np.array_equal(out, [1.0, -1.0, 1.0])
    assert np.array_equal(compress(spec, np.zeros(3)), np.zeros(3))
    # sign(0) is +1
    assert np.array_equal(compress(spec, np.array([0.0, -1.0, 0.0])),
                          [0.5, -0.5, 0.5])


@pytest.mark.parametrize("refused, message", [
    (lambda: make_compressor("identity", d=0), "dimension must be positive"),
    (lambda: make_compressor("random_sparsify", d=4, keep_k=2,
                             sparsify_mode="bottom"),
     "bad sparsify_mode 'bottom'"),
    (lambda: make_compressor("uniform_quantize", d=4, delta=0.0),
     "uniform_quantize needs delta > 0"),
    (lambda: compress(make_compressor("identity", d=4), np.zeros((1, 1, 1, 4))),
     "compress takes a vector"),
    (lambda: verify_assumption(make_compressor("identity", d=4), 99,
                               np.random.default_rng(0)),
     "need at least 100 trials"),
], ids=["d", "sparsify-mode", "delta", "compress-ndim", "trials"])
def test_refusals(refused, message):
    with pytest.raises(CompressorError, match=message):
        refused()


def test_uniform_quantize_formula():
    spec = make_compressor("uniform_quantize", d=2, delta=2.0)
    out = compress(spec, np.array([0.9, -1.1]))
    # 2 * floor((0.45, -0.55) + 0.5) = (0, -2); floor is toward -inf
    assert np.array_equal(out, [0.0, -2.0])


def test_one_bit_formula():
    spec = make_compressor("one_bit", d=3)
    out = compress(spec, np.array([0.3, -0.2, 0.0]))
    assert np.array_equal(out, [0.5, -0.5, 0.5])


def test_identity_constants():
    spec = make_compressor("identity", d=7)
    x = np.linspace(-1, 1, 7)
    assert np.array_equal(compress(spec, x), x)
    assert spec.r == 1.0 and spec.psi == 1.0 and spec.cap_c == 0.0


def test_relative_cap_identity():
    # every relative-class spec carries C = 2r^2(1-psi) + 2(1-r)^2
    for kind, kw in _EVERY_KIND:
        spec = make_compressor(kind, d=8, **kw)
        if spec.assumption_class == "relative":
            r, psi = spec.r, spec.psi
            assert spec.cap_c == pytest.approx(
                2 * r * r * (1 - psi) + 2 * (1 - r) ** 2), (kind, kw)
    # d=50 norm-sign default: r=25, psi=1/2500
    spec = make_compressor("norm_sign", d=50)
    assert spec.r == 25.0 and spec.psi == pytest.approx(4e-4)
    assert spec.cap_c == pytest.approx(2 * 625 * (1 - 4e-4) + 2 * 24**2)


def test_norm_sign_invariants():
    spec = make_compressor("norm_sign", d=8)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.standard_normal(8)
        out = compress(spec, x)
        a = np.max(np.abs(x))
        assert np.allclose(np.abs(out), a / 2)
        assert np.array_equal(np.sign(out), np.where(x >= 0, 1.0, -1.0))


def test_uniform_quantize_worst_case_bound():
    spec = make_compressor("uniform_quantize", d=10, delta=2.0)
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = rng.uniform(-50, 50, size=10)
        assert np.max(np.abs(compress(spec, x) - x)) <= 1.0 + 1e-12


def test_one_bit_unit_ball_bound():
    spec = make_compressor("one_bit", d=6)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1, 1, size=6)
        worst = max(worst, np.max(np.abs(compress(spec, x) - x)))
    assert worst <= 0.5 + 1e-12


def test_sparsify_top_keeps_largest():
    spec = make_compressor("random_sparsify", d=5, keep_k=2)
    out = compress(spec, np.array([3.0, -1.0, 0.5, -4.0, 2.0]))
    assert np.array_equal(out, [3.0, 0.0, 0.0, -4.0, 0.0])
    # rescaled variant multiplies kept entries by d/k and carries r = d/k
    spec2 = make_compressor("random_sparsify", d=5, keep_k=2, rescale=True)
    out2 = compress(spec2, np.array([3.0, -1.0, 0.5, -4.0, 2.0]))
    assert np.array_equal(out2, [7.5, 0.0, 0.0, -10.0, 0.0])
    assert spec2.r == 2.5 and spec2.psi == pytest.approx(0.4)


@pytest.mark.parametrize("kind", compressors.KINDS)
def test_spec_defaults_are_make_compressors(kind):
    # the options a kind needs and has no default for; every other option
    # takes the same default from the spec as from make_compressor
    req = {"random_sparsify": {"keep_k": 3},
           "random_quantize": {"levels": 9}}.get(kind, {})
    assert CompressorSpec(kind, 8, **req) == make_compressor(kind, 8, **req)


def test_deterministic_kinds_are_pure():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12)
    for kind, kw in [("norm_sign", {}), ("uniform_quantize", {"delta": 0.7}),
                     ("one_bit", {}), ("identity", {}),
                     ("random_sparsify", {"keep_k": 4})]:
        spec = make_compressor(kind, d=12, **kw)
        assert np.array_equal(compress(spec, x), compress(spec, x))


def test_random_quantize_unbiased_and_on_grid():
    spec = make_compressor("random_quantize", d=4, levels=9)
    x = np.array([0.3, -0.7, 1.0, 0.0])
    reps = 4000
    out = compress(spec, np.tile(x, (reps, 1)), seed=4)  # a draw per row
    lv = (out + 1.0) / (2.0 / 8)
    assert np.allclose(lv, np.round(lv), atol=1e-9)
    assert np.allclose(out.mean(axis=0), x, atol=0.02)


def _sparsify_rows_oracle(X, keep, rescale, seed, k, slot):
    """Random sparsify one row at a time: the first ``keep`` swaps of a
    Fisher-Yates shuffle, each from one scalar draw of the agent's stream."""
    n, d = X.shape
    bases = compressors._msg_base(np.uint64(seed), k, n, slot)
    out = np.zeros_like(X)
    for i in range(n):
        idx = np.arange(d)
        for t in range(keep):
            u = float(compressors._u01(bases[i:i + 1] + np.uint64(t))[0])
            j = min(t + int(u * (d - t)), d - 1)
            idx[t], idx[j] = idx[j], idx[t]
        out[i, idx[:keep]] = X[i, idx[:keep]] * rescale
    return out


def test_random_sparsify_matches_per_row_shuffle():
    rng = np.random.default_rng(12)
    cases = [(n, d, seed, slot) for n, d in ((1, 1), (3, 8), (20, 50))
             for seed, slot in ((0, 0), (7, 1), (2**63 + 5, 2),
                                (2**64 - 1, 3))]
    cases.append((1000, 8, 2**63 + 5, 1))
    for n, d, seed, slot in cases:
        X = rng.standard_normal((n, d))
        for keep in sorted({1, (d + 1) // 2, d}):
            for rescale in (False, True):
                spec = make_compressor("random_sparsify", d=d, keep_k=keep,
                                       sparsify_mode="random",
                                       rescale=rescale)
                want = _sparsify_rows_oracle(X, keep,
                                             d / keep if rescale else 1.0,
                                             seed, 5, slot)
                got = compress(spec, X, seed=seed, k=5, slot=slot)
                assert got.tobytes() == want.tobytes(), (n, d, seed, slot)


def test_bit_costs():
    model = BitCostModel()
    assert bit_cost(make_compressor("norm_sign", d=50), model) == 164
    assert bit_cost(make_compressor("uniform_quantize", d=50, delta=2.0), model) == 200
    assert bit_cost(make_compressor("one_bit", d=50), model) == 50
    assert bit_cost(make_compressor("identity", d=50), model) == 3200
    with pytest.raises(CompressorError):
        BitCostModel(bits_int=0)


# bits of one message, worked by hand from what each kind sends: a real is
# 64 bits, a kept index ceil(log2 d) bits (6 at d = 64 and at d = 50, 7 at
# d = 65), a random_quantize level ceil(log2 levels) bits (2 at 3 levels, 4
# at 9 and at 16, 5 at 17) and a uniform_quantize level bits_int bits
@pytest.mark.parametrize("kind, options, bits_int, d, bits", [
    ("identity", {}, 4, 64, 4096),
    ("identity", {}, 4, 50, 3200),
    ("norm_sign", {}, 4, 64, 192),        # 2 bits an entry, one scale
    ("norm_sign", {}, 4, 50, 164),
    ("one_bit", {}, 4, 64, 64),
    ("one_bit", {}, 4, 50, 50),
    ("uniform_quantize", {"delta": 2.0}, 4, 64, 256),
    ("uniform_quantize", {"delta": 2.0}, 9, 50, 450),
    ("random_sparsify", {"keep_k": 5}, 4, 64, 350),    # 5 (64 + 6)
    ("random_sparsify", {"keep_k": 5}, 4, 50, 350),
    ("random_sparsify", {"keep_k": 1}, 4, 65, 71),     # 1 (64 + 7)
    ("random_sparsify", {"keep_k": 2}, 4, 2, 130),     # 2 (64 + 1)
    ("random_quantize", {"levels": 3}, 4, 2, 68),      # 2 * 2 + 64
    ("random_quantize", {"levels": 9}, 4, 32, 192),    # 32 * 4 + 64
    ("random_quantize", {"levels": 9}, 4, 50, 264),
    ("random_quantize", {"levels": 16}, 4, 128, 576),
    ("random_quantize", {"levels": 16}, 4, 50, 264),
    ("random_quantize", {"levels": 17}, 4, 50, 314),   # 50 * 5 + 64
])
def test_bit_cost_of_every_kind_by_hand(kind, options, bits_int, d, bits):
    spec = make_compressor(kind, d=d, **options)
    assert bit_cost(spec, BitCostModel(bits_int=bits_int)) == bits


def test_random_quantize_has_no_two_level_spec():
    # (levels - 1)^2 > d, which psi needs, leaves 2 levels no d >= 1, so the
    # ledger never bills a 2-level message
    with pytest.raises(CompressorError, match="levels=2, d=1"):
        make_compressor("random_quantize", d=1, levels=2)


def test_verify_norm_sign_defaults():
    # r = d/2, psi = 1/d^2 certifies across dimensions
    for d in (2, 10, 50):
        spec = make_compressor("norm_sign", d=d)
        rng = np.random.default_rng(10 + d)
        rep = verify_assumption(spec, trials=1000, rng=rng)
        assert rep.passed, worst_case(rep)
        assert rep.max_observed_ratio <= (1 - spec.psi) * (1 + 1e-9)


def test_verify_uniform_quantizer():
    spec = make_compressor("uniform_quantize", d=20, delta=2.0)
    assert spec.cap_c == 1.0
    rep = verify_assumption(spec, trials=1000, rng=np.random.default_rng(5))
    assert rep.passed


def test_verify_one_bit():
    spec = make_compressor("one_bit", d=20)
    rep = verify_assumption(spec, trials=1000, rng=np.random.default_rng(6))
    assert rep.passed
    assert rep.max_observed_ratio <= 0.5 + 1e-12


def test_verify_sparsify_modes():
    spec = make_compressor("random_sparsify", d=20, keep_k=5)
    rep = verify_assumption(spec, trials=1000, rng=np.random.default_rng(7))
    assert rep.passed
    rnd = make_compressor("random_sparsify", d=20, keep_k=5, sparsify_mode="random")
    rep2 = verify_assumption(rnd, trials=1000, rng=np.random.default_rng(8))
    assert rep2.passed


def test_verify_flags_wrong_constants():
    for kind, kw, claim in [
            # psi far above what norm-sign delivers
            ("norm_sign", {}, {"r": 5.0, "psi": 0.9}),
            # no error at all, from operators that make one
            ("uniform_quantize", {"delta": 2.0}, {"cap_c": 0.0}),
            ("one_bit", {}, {"phi_c": 1.0})]:
        spec = claiming(make_compressor(kind, d=10, **kw), **claim)
        rep = verify_assumption(spec, trials=500,
                                rng=np.random.default_rng(9))
        assert not rep.passed, kind
        assert rep.violations


def test_config_parsing():
    spec = spec_from_config({"kind": "uniform_quantize", "delta": 2.0}, d=50)
    assert spec.cap_c == 1.0
    spec = spec_from_config({"kind": "norm_sign"}, d=50)
    assert spec.r == 25.0
    with pytest.raises(ConfigError):
        spec_from_config({"delta": 2.0}, d=10)
    with pytest.raises(ConfigError):
        spec_from_config({"kind": "norm_sign", "window": 3}, d=10)


@pytest.mark.parametrize("name", ["assumption_class", "r", "psi", "cap_c",
                                  "phi_c"])
def test_class_constants_cannot_be_passed(name):
    # the class and its constants follow from the operator alone
    with pytest.raises(TypeError):
        make_compressor("norm_sign", d=8, **{name: 1.0})
    with pytest.raises(TypeError):
        CompressorSpec("norm_sign", 8, **{name: 1.0})
    with pytest.raises(ConfigError, match="unknown compressor config"):
        spec_from_config({"kind": "norm_sign", name: 1.0}, d=8)


# a valid value other than CompressorSpec's default, for each config key
_OTHER_VALUE = {"delta": 0.5, "keep_k": 3, "levels": 9,
                "sparsify_mode": "random", "rescale": True}


def test_config_keys_per_kind_are_the_keywords_it_reads():
    # a key is accepted for a kind exactly when it changes that kind's spec
    assert set(compressors._KIND_OPTIONS) == set(compressors.KINDS)
    assert set(_OTHER_VALUE) == set(config._COMPRESSOR_OPTIONS)
    for kind in compressors.KINDS:
        base = {"random_sparsify": {"keep_k": 2},
                "random_quantize": {"levels": 17}}.get(kind, {})
        plain = make_compressor(kind, d=8, **base)
        for key, value in _OTHER_VALUE.items():
            cfg = {**base, key: value}
            spec = make_compressor(kind, d=8, **cfg)
            reads = key in compressors._KIND_OPTIONS[kind]
            assert (spec != plain) == reads, (kind, key)
            if reads:
                assert spec_from_config({"kind": kind, **cfg}, d=8) == spec
            else:
                with pytest.raises(ConfigError, match="do not apply"):
                    spec_from_config({"kind": kind, **cfg}, d=8)


# several grid steps and top-k sizes; any other operator key takes its
# _OTHER_VALUE
_PROBE_VALUES = {"delta": (0.1, 0.5, 3.0), "keep_k": (1, 2)}


@pytest.mark.parametrize("d", [1, 2, 7, 50])
def test_deterministic_kinds_meet_their_class_bounds(d):
    # at the default spec and with each operator key set to another value
    for kind in ("identity", "norm_sign", "uniform_quantize", "one_bit",
                 "random_sparsify"):
        base = {"keep_k": (d + 1) // 2} if kind == "random_sparsify" else {}
        cfgs = [base] + [
            {**base, key: value}
            for key in compressors._KIND_OPTIONS[kind]
            for value in _PROBE_VALUES.get(key, (_OTHER_VALUE[key],))]
        for cfg in cfgs:
            if cfg.get("keep_k", 1) > d:
                continue
            spec = make_compressor(kind, d=d, **cfg)
            if not spec.is_deterministic:
                continue
            rep = verify_assumption(spec, trials=200,
                                    rng=np.random.default_rng(d))
            assert rep.passed, (kind, cfg, worst_case(rep))


def test_invalid_specs_rejected():
    with pytest.raises(CompressorError):
        make_compressor("random_sparsify", d=5, keep_k=9)
    with pytest.raises(CompressorError):
        make_compressor("random_quantize", d=50, levels=5)
    with pytest.raises(CompressorError):  # (levels-1)^2 > d, but no grid
        make_compressor("random_quantize", d=4, levels=-9)
    with pytest.raises(CompressorError):
        make_compressor("wavelet", d=5)
    with pytest.raises(CompressorError):
        compress(make_compressor("identity", d=2), np.array([1.0, np.nan]))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_norm_sign_relative_bound_pointwise(d, seed):
    # every deterministic kind meets its class bound on each draw, through
    # the kernel the runs use: relative for norm-sign and top-k, global
    # absolute for the uniform quantizer, local absolute for one-bit
    x = np.random.default_rng(seed).standard_normal(d)
    if not np.any(x):
        return
    keep = 1 + seed % d
    for spec in (make_compressor("norm_sign", d=d),
                 make_compressor("random_sparsify", d=d, keep_k=keep),
                 make_compressor("random_sparsify", d=d, keep_k=keep,
                                 rescale=True)):
        err = compress(spec, x) / spec.r - x
        assert err @ err <= (1 - spec.psi) * (x @ x) * (1 + 1e-12), spec
    uq = make_compressor("uniform_quantize", d=d, delta=0.5 + seed % 3)
    big = 100.0 * x
    assert (np.max(np.abs(compress(uq, big) - big)) ** 2
            <= uq.cap_c * (1 + 1e-9))
    ob = make_compressor("one_bit", d=d)
    unit = x / np.max(np.abs(x))  # on the unit inf-sphere
    assert np.max(np.abs(compress(ob, unit) - unit)) <= 1 - ob.phi_c


def test_derived_cap_helper():
    assert derived_relative_cap(1.0, 1.0) == 0.0
    assert derived_relative_cap(1.0, 0.75) == pytest.approx(0.5)


_EVERY_KIND = [
    ("identity", {}),
    ("norm_sign", {}),
    ("uniform_quantize", {"delta": 0.7}),
    ("one_bit", {}),
    ("random_sparsify", {"keep_k": 3}),
    ("random_sparsify", {"keep_k": 3, "sparsify_mode": "random",
                         "rescale": True}),
    ("random_quantize", {"levels": 17}),
]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.integers(min_value=0, max_value=10**9),
    slot=st.integers(min_value=0, max_value=8),
    m=st.integers(min_value=1, max_value=4),
    data=st.integers(min_value=0, max_value=2**31),
)
def test_block_compression_equals_per_slot(seed, k, slot, m, data):
    # stack j of an (m, n, d) block is message slot ``slot + j``: its draws
    # are keyed by (seed, k, agent, slot + j), as if compressed on its own
    X = np.random.default_rng(data).standard_normal((m, 5, 8))
    X[0, 1] = 0.0  # an all-zero agent row
    for kind, kw in _EVERY_KIND:
        spec = make_compressor(kind, d=8, **kw)
        block = compress(spec, X, seed=seed, k=k, slot=slot)
        assert block.shape == X.shape
        for j in range(m):
            want = compress(spec, X[j], seed=seed, k=k, slot=slot + j)
            assert block[j].tobytes() == want.tobytes(), (kind, kw, j)


def test_norm_sign_and_uniform_kernels_on_zero_and_nonfinite_rows():
    # a diverging run hands the kernel non-finite inputs (compress refuses
    # them); there it must still give bitwise what the plain formulas give
    X = np.array([[[0.0, -0.0, 0.0], [1.0, -2.0, -0.0],
                   [np.nan, -1.0, 2.0], [np.inf, -1.0, -0.0],
                   [-np.inf, np.nan, -3.0]]])
    with np.errstate(all="ignore"):
        a = np.abs(X).max(axis=2, keepdims=True)
        half = 0.5 * a
        want = np.where(a > 0.0, np.where(X >= 0.0, half, -half), 0.0)
        got = compressors._compress_block(make_compressor("norm_sign", d=3),
                                          X, np.uint64(0), 0, 0)
        assert got.tobytes() == want.tobytes()
        want = 0.7 * np.floor(X / 0.7 + 0.5)
        got = compressors._compress_block(
            make_compressor("uniform_quantize", d=3, delta=0.7), X,
            np.uint64(0), 0, 0)
        assert got.tobytes() == want.tobytes()


# entries that a diverging run can hand the kernel, and whole agent rows of
# them: all-zero (of either sign), NaN and infinite rows
_ENTRIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])
_ROWS = st.sampled_from([None, 0.0, -0.0, np.nan, np.inf, -np.inf])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 5),
       d=st.integers(1, 9), seed=st.integers(0, 2**64 - 1),
       k=st.integers(0, 10**9), slot=st.integers(0, 8))
def test_compressor_kernel_equals_where_formulation(data, m, n, d, seed, k,
                                                    slot):
    # the kernel's bool arithmetic, NaN-row mask and in-place updates give
    # bitwise what the np.where formulation gives, signs of zero included
    X = data.draw(hnp.arrays(np.float64, (m, n, d), elements=_ENTRIES))
    for (j, i), row in zip(np.ndindex(m, n),
                           data.draw(st.lists(_ROWS, min_size=m * n,
                                              max_size=m * n))):
        if row is not None:
            X[j, i] = row
    keep = data.draw(st.integers(1, d))
    # a random_quantize spec needs (levels - 1)^2 > d
    specs = [make_compressor(kind, d=d, **kw) for kind, kw in [
        ("identity", {}), ("norm_sign", {}),
        ("uniform_quantize", {"delta": 0.7}), ("one_bit", {}),
        ("random_sparsify", {"keep_k": keep}),
        ("random_sparsify", {"keep_k": keep, "sparsify_mode": "random",
                             "rescale": True}),
        ("random_quantize", {"levels": data.draw(
            st.integers(2 + math.isqrt(d), 33))})]]
    useed = np.uint64(seed)
    for spec in specs:
        with np.errstate(all="ignore"):
            got = compressors._compress_block(spec, X, useed, k, slot)
            want = compress_block(spec, X, useed, k, slot)
        assert got.dtype == np.float64 and got.shape == X.shape
        assert got.tobytes() == want.tobytes(), spec
