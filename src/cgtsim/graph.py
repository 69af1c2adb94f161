"""Communication networks with nonnegative doubly stochastic mixing weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Row/column sums of W must match 1 to this tolerance.
STOCHASTIC_TOL = 1e-12

_POWER_TOL = 1e-10
_POWER_MAX_ITERS = 10_000
_MAX_REGEN_ATTEMPTS = 100


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Network:
    """Strongly connected digraph plus its consensus weight matrix.

    ``adjacency[i, j]`` is True when agent i receives from agent j (self-loops
    are implied, not stored).  ``W`` is nonnegative with unit row and column
    sums, supported on the adjacency plus the diagonal.  ``sigma`` is the
    spectral norm of ``W - (1/n) 11^T``; the consensus step contracts
    disagreement by ``delta = 1 - gamma * (1 - sigma)``.
    """

    n: int
    adjacency: np.ndarray
    W: np.ndarray
    sigma: float

    def validate(self) -> None:
        n, W = self.n, self.W
        if W.shape != (n, n) or self.adjacency.shape != (n, n):
            raise GraphError("matrix shapes do not match n")
        if np.any(W < 0):
            raise GraphError("W has negative entries")
        if np.max(np.abs(W.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
            raise GraphError("row sums of W are not 1")
        if np.max(np.abs(W.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
            raise GraphError("column sums of W are not 1")
        off = ~(self.adjacency | np.eye(n, dtype=bool))
        if np.any(W[off] != 0.0):
            raise GraphError("W has weight outside the adjacency support")
        if not is_strongly_connected(self.adjacency):
            raise GraphError("digraph is not strongly connected")
        if n > 1 and not (0.0 < self.sigma < 1.0):
            raise GraphError(f"sigma={self.sigma} outside (0, 1)")

    def out_degrees(self) -> np.ndarray:
        """Number of receivers per agent, self excluded (column-wise count)."""
        return self.adjacency.sum(axis=0).astype(np.int64)

def is_strongly_connected(adjacency: np.ndarray) -> bool:
    """Reachability from node 0 on the graph and its transpose, one BFS level
    per step over a boolean frontier."""
    n = adjacency.shape[0]
    for adj in (adjacency, adjacency.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adj[:, frontier].any(axis=1) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def metropolis_weights(adjacency: np.ndarray) -> np.ndarray:
    """Metropolis-Hastings weights 1/(1+max(deg_i, deg_j)) on a symmetric graph."""
    n = adjacency.shape[0]
    sym = adjacency | adjacency.T
    deg = sym.sum(axis=1)
    i, j = np.nonzero(sym & ~np.eye(n, dtype=bool))
    W = np.zeros((n, n))
    W[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def spectral_gap(W: np.ndarray, tol: float = _POWER_TOL,
                 max_iters: int = _POWER_MAX_ITERS) -> float:
    """Spectral norm of W - (1/n) 11^T by power iteration on its Gram matrix."""
    n = W.shape[0]
    A = W - 1.0 / n
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = A.T @ (A @ v)
    lam, change = 0.0, math.inf
    for _ in range(max_iters):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = A.T @ (A @ v)  # the Rayleigh quotient's product is the next step's
        lam_new = float(v @ w)
        change = abs(lam_new - lam)
        if change <= tol * max(abs(lam_new), 1e-30):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise GraphError(
        f"power iteration did not converge in {max_iters} iterations "
        f"(last change in the Rayleigh quotient {change:.3e})")


def _ring_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = True
        adj[i, (i - 1) % n] = True
    return adj


def _ring_weights(n: int) -> np.ndarray:
    """Lazy uniform ring: 1/2 self weight, 1/4 to each neighbour."""
    W = 0.5 * np.eye(n)
    for i in range(n):
        W[i, (i + 1) % n] += 0.25
        W[i, (i - 1) % n] += 0.25
    return W


def generate_network(n: int, edge_density: float, seed: int,
                     topology: str = "random") -> Network:
    """Build a strongly connected network admitting doubly stochastic weights.

    Random topology: symmetric Erdos-Renyi draws, retried with derived seeds
    until connected; after the retry budget a bidirectional cycle is added so
    construction always terminates.  Degenerate spectra (sigma outside (0,1),
    e.g. complete graphs where W collapses to the averaging matrix) are
    repaired by lazification W <- (W + I)/2.
    """
    if n < 2:
        raise GraphError(f"need at least 2 agents, got {n}")
    if not 0.0 < edge_density <= 1.0:
        raise GraphError(f"edge_density={edge_density} outside (0, 1]")

    if topology == "ring":
        adj = _ring_adjacency(n)
        W = _ring_weights(n)
    elif topology == "random":
        adj = None
        for attempt in range(_MAX_REGEN_ATTEMPTS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
            upper = rng.random((n, n)) < edge_density
            cand = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, k=1)
            cand[iu] = upper[iu]
            cand |= cand.T
            if is_strongly_connected(cand):
                adj = cand
                break
        if adj is None:
            adj = cand | _ring_adjacency(n)
        W = metropolis_weights(adj)
    else:
        raise GraphError(f"unknown topology {topology!r}")

    sigma = spectral_gap(W)
    if n > 1 and not (1e-12 < sigma < 1.0 - 1e-14):
        W = 0.5 * (W + np.eye(n))
        sigma = spectral_gap(W)

    net = Network(n=n, adjacency=adj, W=W, sigma=sigma)
    net.validate()
    return net
