"""Network construction, spectral quantities, and contraction properties."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtsim.graph import (
    GraphError,
    Network,
    generate_network,
    is_strongly_connected,
    metropolis_weights,
    spectral_gap,
)
from graph_oracles import (
    contraction_factor,
    network_from_json,
    network_to_json,
)
from message_passing_oracle import _mix as oracle_mix

ROOT = Path(__file__).resolve().parents[1]


def _reachable_oracle(adj, start):
    """Independent DFS reachability used to cross-check BFS connectivity."""
    n = adj.shape[0]
    seen = set()
    stack = [start]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        for v in range(n):
            if adj[v, u] and v not in seen:
                stack.append(v)
    return seen


def _bfs_strongly_connected_oracle(adjacency):
    """Node-by-node BFS from node 0 on the graph and its transpose."""
    n = adjacency.shape[0]
    for adj in (adjacency, adjacency.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(adj[:, u])[0]:
                    if not seen[v]:
                        seen[v] = True
                        nxt.append(int(v))
            frontier = nxt
        if not seen.all():
            return False
    return True


def _metropolis_oracle(adjacency):
    """Metropolis-Hastings weights by a double loop over agents and neighbours."""
    n = adjacency.shape[0]
    sym = adjacency | adjacency.T
    deg = sym.sum(axis=1)
    W = np.zeros((n, n))
    for i in range(n):
        for j in np.nonzero(sym[i])[0]:
            if j != i:
                W[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def _spectral_gap_oracle(W, tol=1e-10, max_iters=10_000):
    """Power iteration on the Gram matrix of W - (1/n) 11^T, stopped on a
    relative change in the Rayleigh quotient: a lower bound on sigma."""
    n = W.shape[0]
    A = W - 1.0 / n
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        u = A @ v
        w = A.T @ u
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (A.T @ (A @ v_new)))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-30):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam, v = lam_new, v_new
    raise GraphError("oracle power iteration did not converge")


def _sigma_svd_oracle(W):
    """Largest singular value of W - (1/n) 11^T."""
    return float(np.linalg.svd(W - 1.0 / W.shape[0], compute_uv=False)[0])


def _ring(n):
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = adj[(idx + 1) % n, idx] = True
    return adj


def _random_graphs(rng, count, symmetric):
    """Random digraphs (or symmetric graphs) of 1 to 60 nodes over a spread
    of densities, both connected and not."""
    for _ in range(count):
        n = int(rng.integers(1, 61))
        density = float(rng.choice([0.01, 0.03, 0.08, 0.2, 0.5]))
        adj = rng.random((n, n)) < density
        np.fill_diagonal(adj, False)
        if symmetric:
            adj = np.triu(adj, 1)
            adj |= adj.T
        yield adj


def test_two_agent_complete_graph_lazified():
    net = generate_network(2, 1.0, seed=123)
    # Metropolis weights on K2 give the averaging matrix (sigma = 0), so the
    # generator must fall back to the lazy version with sigma = 1/2.
    assert np.allclose(net.W, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    assert net.sigma == pytest.approx(0.5, abs=1e-12)


def test_random_network_doubly_stochastic_and_connected():
    net = generate_network(20, 0.3, seed=7)
    # direct summation oracle
    assert np.max(np.abs(net.W.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(net.W.sum(axis=0) - 1.0)) <= 1e-12
    # reachability oracle, forward and reverse, on W's support
    support = net.W != 0.0
    assert _reachable_oracle(support, 0) == set(range(20))
    assert _reachable_oracle(support.T, 0) == set(range(20))
    # an undirected graph: j hears i exactly when i hears j
    assert np.array_equal(support, support.T)
    assert 0.0 < net.sigma < 1.0


def test_ring_sigma_matches_circulant_eigenvalues():
    net = generate_network(5, 0.5, seed=0, topology="ring")
    # brute-force oracle: eigenvalues of the 5x5 lazy-uniform circulant
    W = 0.5 * np.eye(5)
    for i in range(5):
        W[i, (i + 1) % 5] += 0.25
        W[i, (i - 1) % 5] += 0.25
    eigs = np.linalg.eigvalsh(W - np.ones((5, 5)) / 5)
    oracle = float(np.max(np.abs(eigs)))
    assert net.sigma == pytest.approx(oracle, abs=1e-14)
    # frozen closed form |1/2 + (1/2) cos(2 pi / 5)|
    assert net.sigma == pytest.approx(0.6545084971874737, abs=1e-14)
    assert net.sigma == pytest.approx(0.5 + 0.5 * math.cos(2 * math.pi / 5), abs=1e-12)


def test_spectral_gap_identity_and_averaging():
    assert spectral_gap(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    # round-off in the eigensolve leaves about 1e-16, not 0
    assert spectral_gap(np.ones((4, 4)) / 4) == pytest.approx(0.0, abs=1e-15)


def test_spectral_gap_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    adj = np.zeros((6, 6), dtype=bool)
    iu = np.triu_indices(6, k=1)
    adj[iu] = rng.random(len(iu[0])) < 0.6
    adj |= adj.T
    if not is_strongly_connected(adj):
        for i in range(6):
            adj[i, (i + 1) % 6] = adj[(i + 1) % 6, i] = True
    W = metropolis_weights(adj)
    A = W - np.ones((6, 6)) / 6
    oracle = float(np.sqrt(np.max(np.linalg.eigvalsh(A.T @ A))))
    assert spectral_gap(W) == pytest.approx(oracle, abs=1e-14)


def test_spectral_gap_rejects_an_asymmetric_w():
    # a doubly stochastic directed 3-cycle: eigvalsh would read one triangle
    # of it and return a wrong sigma
    W = np.roll(np.eye(3), 1, axis=1)
    with pytest.raises(GraphError, match="not symmetric"):
        spectral_gap(W)
    W = generate_network(6, 0.5, seed=3).W.copy()
    W[0, 1] = np.nextafter(W[0, 1], 1.0)
    with pytest.raises(GraphError, match="not symmetric"):
        spectral_gap(W)


@pytest.mark.parametrize("n", [300, 500, 1000])
def test_lazy_ring_builds_past_500_agents(n):
    net = generate_network(n, 0.5, 0, topology="ring")
    assert net.sigma == pytest.approx((1.0 + math.cos(2 * math.pi / n)) / 2,
                                      rel=0, abs=1e-14)


def test_contraction_factor_values_and_domain():
    assert contraction_factor(0.3, 0.5) == pytest.approx(0.85, abs=1e-15)
    # gamma -> 0 pushes delta -> 1
    assert contraction_factor(1e-9, 0.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(GraphError):
        contraction_factor(1.0, 0.0)
    with pytest.raises(GraphError):
        contraction_factor(0.5, 1.0)
    with pytest.raises(GraphError):
        contraction_factor(-0.1, 0.5)


def test_consensus_contraction_property():
    # || (I + gamma (W (x) I - I)) (w - wbar) || <= delta || w - wbar ||
    net = generate_network(8, 0.4, seed=11)
    d = 3
    n = net.n
    Wk = np.kron(net.W, np.eye(d))
    rng = np.random.default_rng(99)
    for gamma in (0.05, 0.3, 0.9):
        delta = contraction_factor(gamma, net.sigma)
        M = np.eye(n * d) + gamma * (Wk - np.eye(n * d))
        for _ in range(1000 // 3):
            w = rng.standard_normal(n * d)
            wbar = np.tile(w.reshape(n, d).mean(axis=0), n)
            dev = w - wbar
            assert np.linalg.norm(M @ dev) <= delta * np.linalg.norm(dev) + 1e-12


def test_projector_annihilates_mixing_residual():
    net = generate_network(10, 0.35, seed=5)
    n, d = net.n, 2
    H = np.kron(np.ones((n, n)) / n, np.eye(d))
    Wk = np.kron(net.W, np.eye(d))
    resid = np.max(np.abs(H @ (np.eye(n * d) - Wk)))
    assert resid <= 1e-12 * n


def test_same_seed_is_bit_identical():
    a = generate_network(12, 0.3, seed=42)
    b = generate_network(12, 0.3, seed=42)
    assert np.array_equal(a.W, b.W)
    assert a.sigma == b.sigma


def test_json_round_trip():
    net = generate_network(7, 0.5, seed=2)
    doc = json.loads(network_to_json(net))
    assert set(doc) == {"n", "W", "sigma"}
    back = network_from_json(network_to_json(net))
    assert np.array_equal(back.W, net.W)
    assert back.sigma == net.sigma


def _lazy_ring_w(n):
    """1/2 self weight and 1/4 to each ring neighbour, by hand."""
    P = np.roll(np.eye(n), 1, axis=1)
    return 0.5 * np.eye(n) + 0.25 * (P + P.T)


def _refused_networks():
    """One hand-built network per refusal of ``Network.validate``, in the
    order it checks them, with the message it must give."""
    ring = _lazy_ring_w(4)
    sigma = 0.5  # the lazy 4-ring's: (1 + cos(pi / 2)) / 2
    negative = ring.copy()
    negative[0, 1] = -0.25
    heavy_row = ring.copy()
    heavy_row[0, 0] += 0.1
    pair = np.full((2, 2), 0.5)
    two_pairs = np.block([[pair, np.zeros((2, 2))], [np.zeros((2, 2)), pair]])
    return [
        ("shape", Network(n=3, W=ring, sigma=sigma), "has shape"),
        ("negative", Network(n=4, W=negative, sigma=sigma),
         "negative entries"),
        ("row-sums", Network(n=4, W=heavy_row, sigma=sigma),
         "row sums of W are not 1"),
        # every row is (1, 0, 0): row sums 1, column sums 3, 0 and 0
        ("column-sums", Network(n=3, W=np.eye(3)[[0, 0, 0]], sigma=sigma),
         "column sums of W are not 1"),
        ("disconnected", Network(n=4, W=two_pairs, sigma=sigma),
         "not strongly connected"),
        ("sigma-one", Network(n=4, W=ring, sigma=1.0),
         r"sigma=1\.0 outside \(0, 1\)"),
        ("sigma-zero", Network(n=4, W=ring, sigma=0.0),
         r"sigma=0\.0 outside \(0, 1\)"),
    ]


@pytest.mark.parametrize("net, message",
                         [case[1:] for case in _refused_networks()],
                         ids=[case[0] for case in _refused_networks()])
def test_validate_refuses(net, message):
    with pytest.raises(GraphError, match=message):
        net.validate()


def test_validate_accepts_the_hand_built_ring():
    # the refused networks above are each one defect away from this one
    W = _lazy_ring_w(4)
    assert spectral_gap(W) == pytest.approx(0.5, rel=0, abs=1e-15)
    Network(n=4, W=W, sigma=0.5).validate()


def test_out_degrees_count_off_diagonal_support_per_column():
    # agent j sends to the agents i with W[i, j] != 0, itself excepted:
    # agent 0, which keeps no weight on itself, to 1 and 2; agents 1 and 2
    # to 0
    W = np.array([[0.0, 0.5, 0.5],
                  [0.5, 0.5, 0.0],
                  [0.5, 0.0, 0.5]])
    assert Network(n=3, W=W, sigma=0.5).out_degrees().tolist() == [2, 1, 1]


def test_mix_is_w_times_each_slab_bitwise():
    # a dense W, and the ring just above the gather threshold: 3 * 191
    # nonzeros > 191^2 / 64
    for net in (generate_network(20, 0.3, seed=5),
                generate_network(191, None, 0, "ring")):
        assert net._gather is None
        n = net.n
        rng = np.random.default_rng(8)
        Q = rng.standard_normal((3, n, 50))
        out = np.empty_like(Q)
        assert net.mix(Q, out) is out
        for j in range(3):
            assert np.array_equal(out[j], net.W @ Q[j])
            assert np.array_equal(net.mix(Q[j]), net.W @ Q[j])
        rows = rng.standard_normal((4, 2, n, 50))  # a recorder's row stack
        assert np.array_equal(net.mix(rows)[2, 1], net.W @ rows[2, 1])


@pytest.fixture(scope="module")
def sparse_net():
    # 2364 nonzeros <= 400^2 / 64, 2 to 14 of them a row
    net = generate_network(400, 0.012, seed=1)
    assert net._gather is not None
    return net


def _wide_range(rng, shape):
    """Normal draws scaled over 16 decades, so that summing a row's terms
    in another order moves its last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


def test_gather_threshold_is_a_sixty_fourth_fill():
    # nnz(W) <= n^2 / 64: the lazy ring (3n nonzeros) gathers from n = 192
    assert generate_network(192, None, 0, "ring")._gather is not None
    assert generate_network(191, None, 0, "ring")._gather is None
    assert generate_network(1000, 0.008, seed=1)._gather is not None


def test_gather_sums_each_row_in_column_order_bitwise(sparse_net):
    # agent i's sum runs over its nonzero columns in ascending order, the
    # self-loop in its place, as the message-passing oracle sums it
    W, n = sparse_net.W, sparse_net.n
    rng = np.random.default_rng(3)
    Q = _wide_range(rng, (2, n, 7))
    got = sparse_net.mix(Q)
    for j in range(2):
        for i in range(n):
            assert np.array_equal(got[j, i], oracle_mix(W, i, Q[j])), (j, i)
    assert np.array_equal(sparse_net.mix(Q[1]), got[1])


def test_gather_is_within_the_summation_bound_of_w_times_q(sparse_net):
    # both products sum at most k = max nonzeros per row terms, each in
    # its own order, so each is within gamma_k |W| |Q| of the exact sum
    W, n = sparse_net.W, sparse_net.n
    k = int(np.count_nonzero(W, axis=1).max())
    u = np.finfo(float).eps / 2
    gamma_k = k * u / (1 - k * u)
    rng = np.random.default_rng(4)
    for shape in ((4, n, 30), (3, 2, n, 30), (n, 30)):
        Q = _wide_range(rng, shape)
        out = np.empty_like(Q)
        assert sparse_net.mix(Q, out) is out
        want = np.matmul(W, Q)
        bound = 2 * gamma_k * np.matmul(np.abs(W), np.abs(Q))
        assert np.all(np.abs(out - want) <= bound), shape
        assert np.array_equal(sparse_net.mix(Q), out)


def test_gather_refuses_a_block_of_another_size(sparse_net):
    with pytest.raises(ValueError, match="400 agents"):
        sparse_net.mix(np.zeros((2, 399, 5)))


def test_sparse_run_csvs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # cgtsim run at one and two BLAS threads, in a subprocess each.  At
    # n = 400 the dense gemm splits across threads: before the gather, the
    # dgt, alg1 and alg2 CSVs differed.  Still differing in the sidecars:
    # sigma (eigvalsh of W) and, at some n, the last digit of struct_x and
    # struct_y (BLAS dots in the row norms).
    cell = {"params": {"eta": 0.8, "gamma": 0.3}, "force_params": True}
    comp = {"eta": 0.8, "gamma": 0.3, "phi_x": 0.3, "phi_y": 0.1}
    cells = [
        dict(cell, algo="dgt"),
        dict(cell, algo="alg1", compressor={"kind": "norm_sign"},
             params=comp),
        dict(cell, algo="alg2", compressor={"kind": "norm_sign"},
             params=dict(comp, varsigma=0.3)),
        dict(cell, algo="alg3",
             compressor={"kind": "uniform_quantize", "delta": 2.0},
             params={"eta": 0.4, "gamma": 0.6, "mu": 0.98}),
    ]
    config = tmp_path / "sparse.json"
    config.write_text(json.dumps({
        "scenario": "sparse", "iters": 20, "threshold": 1e-3,
        "network": {"n": 400, "edge_density": 0.012, "topology": "random"},
        "cost": {"kind": "logistic_log", "d": 10, "scale": 0.1,
                 "abs_m": True},
        "seeds": {"graph": 1, "cost": 2, "algo": 3}, "cells": cells}))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, (str(ROOT / "src"),
                                     os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "cgtsim.cli", "run",
                        str(config), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        digests.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                        for f in out.rglob("*.csv")})
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]


def test_input_validation():
    with pytest.raises(GraphError):
        generate_network(1, 0.5, seed=0)
    with pytest.raises(GraphError):
        generate_network(5, 0.0, seed=0)
    with pytest.raises(GraphError):
        generate_network(5, 1.5, seed=0)
    with pytest.raises(GraphError):
        generate_network(5, 0.5, seed=0, topology="torus")


def test_sparse_density_still_terminates():
    # density too small for reliable connectivity: cycle augmentation kicks in
    net = generate_network(30, 0.01, seed=9)
    assert is_strongly_connected(net.W != 0.0)
    net.validate()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=25),
    density=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generated_networks_always_valid(n, density, seed):
    net = generate_network(n, density, seed)
    net.validate()
    assert np.max(np.abs(net.W.sum(axis=0) - 1.0)) <= 1e-12
    assert 0.0 < net.sigma < 1.0


def test_connectivity_matches_node_by_node_bfs():
    rng = np.random.default_rng(2024)
    seen = {True: 0, False: 0}
    for symmetric in (True, False):
        for adj in _random_graphs(rng, 400, symmetric):
            want = _bfs_strongly_connected_oracle(adj)
            assert is_strongly_connected(adj) == want
            seen[want] += 1
    # two disjoint rings, and a directed ring missing its closing edge
    two = np.zeros((8, 8), dtype=bool)
    two[:4, :4] = _ring(4)
    two[4:, 4:] = _ring(4)
    chain = np.zeros((5, 5), dtype=bool)
    chain[np.arange(1, 5), np.arange(4)] = True
    for adj in (two, chain, chain | chain.T):
        assert is_strongly_connected(adj) == _bfs_strongly_connected_oracle(adj)
    assert not is_strongly_connected(two) and not is_strongly_connected(chain)
    assert seen[True] > 50 and seen[False] > 50


def test_metropolis_and_spectral_gap_match_loop_oracles():
    rng = np.random.default_rng(77)
    for adj in _random_graphs(rng, 150, symmetric=True):
        if adj.shape[0] < 2:
            continue
        W = metropolis_weights(adj)
        assert np.array_equal(W, _metropolis_oracle(adj))
        sigma = spectral_gap(W)
        assert sigma == pytest.approx(_sigma_svd_oracle(W), rel=0, abs=1e-14)
        # power iteration stops early, so it may only read low
        assert _spectral_gap_oracle(W) <= sigma + 4.4e-16
    for W in (np.eye(4), np.ones((4, 4)) / 4):
        sigma = spectral_gap(W)
        assert sigma == pytest.approx(_sigma_svd_oracle(W), rel=0, abs=1e-14)
        assert _spectral_gap_oracle(W) <= sigma + 4.4e-16


# 300 rows draw in blocks of 128, 128 and 44
@pytest.mark.parametrize("n,density", [(20, 0.3), (200, 0.04), (300, 0.03),
                                       (1000, 0.008)])
def test_generate_network_matches_loop_oracles(n, density):
    for seed in (1, 2, 3):
        net = generate_network(n, density, seed)
        # the generator's retry loop, deciding connectivity by the oracle
        for attempt in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
            upper = rng.random((n, n)) < density
            adj = np.triu(upper, 1)
            adj |= adj.T
            if _bfs_strongly_connected_oracle(adj):
                break
        else:
            adj |= _ring(n)
        assert np.array_equal(net.W != 0.0, adj | np.eye(n, dtype=bool))
        assert np.array_equal(net.out_degrees(), adj.sum(axis=0))
        W = _metropolis_oracle(adj)
        sigma = _sigma_svd_oracle(W)
        if not 1e-12 < sigma < 1.0 - 1e-14:
            W = 0.5 * (W + np.eye(n))
            sigma = _sigma_svd_oracle(W)
        assert np.array_equal(net.W, W)
        assert net.sigma == pytest.approx(sigma, rel=0, abs=1e-14)
