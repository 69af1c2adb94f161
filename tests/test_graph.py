"""Network construction, spectral quantities, and contraction properties."""

import json
import math

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
    """Power iteration that recomputes the Rayleigh quotient's product: four
    matrix-vector products per step."""
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
    # reachability oracle, forward and reverse
    assert _reachable_oracle(net.adjacency, 0) == set(range(20))
    assert _reachable_oracle(net.adjacency.T, 0) == set(range(20))
    # support constraint
    off = ~(net.adjacency | np.eye(20, dtype=bool))
    assert np.all(net.W[off] == 0.0)
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
    assert net.sigma == pytest.approx(oracle, abs=1e-10)
    # frozen closed form |1/2 + (1/2) cos(2 pi / 5)|
    assert net.sigma == pytest.approx(0.6545084971874737, abs=1e-10)
    assert net.sigma == pytest.approx(0.5 + 0.5 * math.cos(2 * math.pi / 5), abs=1e-12)


def test_spectral_gap_identity_and_averaging():
    assert spectral_gap(np.eye(4)) == pytest.approx(1.0, abs=1e-10)
    assert spectral_gap(np.ones((4, 4)) / 4) == 0.0


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
    assert spectral_gap(W) == pytest.approx(oracle, abs=1e-8)


def test_spectral_gap_error_reports_last_change():
    # a lazy ring converges slowly: three steps leave the quotient moving
    W = generate_network(40, 0.5, 0, topology="ring").W
    with pytest.raises(GraphError) as info:
        spectral_gap(W, max_iters=3)
    change = float(str(info.value).split("quotient ")[1].rstrip(")"))
    assert change > 0.0


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
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.W, b.W)
    assert a.sigma == b.sigma


def test_json_round_trip():
    net = generate_network(7, 0.5, seed=2)
    doc = json.loads(network_to_json(net))
    assert set(doc) == {"n", "edges", "W", "sigma"}
    back = network_from_json(network_to_json(net))
    assert np.array_equal(back.adjacency, net.adjacency)
    assert np.array_equal(back.W, net.W)
    assert back.sigma == net.sigma


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
    assert is_strongly_connected(net.adjacency)
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
        assert spectral_gap(W) == _spectral_gap_oracle(W)
    for W in (np.eye(4), np.ones((4, 4)) / 4):
        assert spectral_gap(W) == _spectral_gap_oracle(W)


@pytest.mark.parametrize("n,density", [(20, 0.3), (200, 0.04), (1000, 0.008)])
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
        assert np.array_equal(net.adjacency, adj)
        W = _metropolis_oracle(adj)
        sigma = _spectral_gap_oracle(W)
        if not 1e-12 < sigma < 1.0 - 1e-14:
            W = 0.5 * (W + np.eye(n))
            sigma = _spectral_gap_oracle(W)
        assert np.array_equal(net.W, W)
        assert net.sigma == sigma
