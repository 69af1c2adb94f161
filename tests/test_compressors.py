"""Operator semantics, bound constants, bit costs, and empirical certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtsim import _kernels
from cgtsim.compressors import (
    BitCostModel,
    CompressorError,
    bit_cost,
    compress,
    derived_relative_cap,
    make_compressor,
    spec_from_config,
    verify_assumption,
)


def test_norm_sign_formula():
    spec = make_compressor("norm_sign", d=3)
    out = compress(spec, np.array([1.0, -2.0, 0.5]))
    # max magnitude 2, halved; sign(0.5) = +1
    assert np.array_equal(out, [1.0, -1.0, 1.0])
    assert np.array_equal(compress(spec, np.zeros(3)), np.zeros(3))
    # sign(0) is +1
    assert np.array_equal(compress(spec, np.array([0.0, -1.0, 0.0])),
                          [0.5, -0.5, 0.5])


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
    for r, psi in [(1.0, 0.5), (25.0, 1 / 2500), (2.0, 0.25)]:
        spec = make_compressor("norm_sign", d=4, r=r, psi=psi)
        assert spec.cap_c == pytest.approx(2 * r * r * (1 - psi) + 2 * (1 - r) ** 2)
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
    bases = _kernels._msg_base_np(np.uint64(seed), k, n, slot)
    out = np.zeros_like(X)
    for i in range(n):
        idx = np.arange(d)
        for t in range(keep):
            u = float(_kernels._u01_np(bases[i:i + 1] + np.uint64(t))[0])
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
                want = _sparsify_rows_oracle(X, keep, spec.kernel_params()[1],
                                             seed, 5, slot)
                got = compress(spec, X, seed=seed, k=5, slot=slot)
                assert got.tobytes() == want.tobytes(), (n, d, seed, slot)


def test_bit_costs():
    model = BitCostModel()
    assert bit_cost(make_compressor("norm_sign", d=50), model, 50) == 164
    assert bit_cost(make_compressor("uniform_quantize", d=50, delta=2.0), model, 50) == 200
    assert bit_cost(make_compressor("one_bit", d=50), model, 50) == 50
    assert bit_cost(make_compressor("identity", d=50), model, 50) == 3200
    with pytest.raises(CompressorError):
        BitCostModel(bits_scalar=0)


def test_verify_norm_sign_defaults():
    # r = d/2, psi = 1/d^2 certifies across dimensions
    for d in (2, 10, 50):
        spec = make_compressor("norm_sign", d=d)
        rng = np.random.default_rng(10 + d)
        rep = verify_assumption(spec, trials=1000, d=d, rng=rng)
        assert rep.passed, rep.worst_case()
        assert rep.max_observed_ratio <= (1 - spec.psi) * (1 + 1e-9)


def test_verify_uniform_quantizer():
    spec = make_compressor("uniform_quantize", d=20, delta=2.0)
    assert spec.cap_c == 1.0
    rep = verify_assumption(spec, trials=1000, d=20, rng=np.random.default_rng(5))
    assert rep.passed


def test_verify_one_bit():
    spec = make_compressor("one_bit", d=20)
    rep = verify_assumption(spec, trials=1000, d=20, rng=np.random.default_rng(6))
    assert rep.passed
    assert rep.max_observed_ratio <= 0.5 + 1e-12


def test_verify_sparsify_modes():
    spec = make_compressor("random_sparsify", d=20, keep_k=5)
    rep = verify_assumption(spec, trials=1000, d=20, rng=np.random.default_rng(7))
    assert rep.passed
    rnd = make_compressor("random_sparsify", d=20, keep_k=5, sparsify_mode="random")
    rep2 = verify_assumption(rnd, trials=1000, d=20,
                             rng=np.random.default_rng(8), inner=1000)
    assert rep2.passed


def test_verify_flags_wrong_constants():
    # claiming psi far above what norm-sign delivers must fail
    spec = make_compressor("norm_sign", d=10, r=5.0, psi=0.9)
    rep = verify_assumption(spec, trials=500, d=10, rng=np.random.default_rng(9))
    assert not rep.passed
    assert rep.violations


def test_config_parsing():
    spec = spec_from_config({"kind": "uniform_quantize", "delta": 2.0}, d=50)
    assert spec.cap_c == 1.0
    spec = spec_from_config({"kind": "norm_sign", "r": 10.0, "psi": 0.01}, d=50)
    assert spec.r == 10.0
    with pytest.raises(CompressorError):
        spec_from_config({"delta": 2.0}, d=10)
    with pytest.raises(CompressorError):
        spec_from_config({"kind": "norm_sign", "window": 3}, d=10)


def test_invalid_specs_rejected():
    with pytest.raises(CompressorError):
        make_compressor("random_sparsify", d=5, keep_k=9)
    with pytest.raises(CompressorError):
        make_compressor("random_quantize", d=50, levels=5)
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
        got = _kernels._compress_block_np(_kernels.K_NORM_SIGN, 0.0, 1.0, 0,
                                          X, np.uint64(0), 0, 0)
        assert got.tobytes() == want.tobytes()
        want = 0.7 * np.floor(X / 0.7 + 0.5)
        got = _kernels._compress_block_np(_kernels.K_UNIFORM, 0.7, 1.0, 0,
                                          X, np.uint64(0), 0, 0)
        assert got.tobytes() == want.tobytes()
