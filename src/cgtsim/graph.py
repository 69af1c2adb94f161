"""Communication networks with nonnegative doubly stochastic mixing weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Row/column sums of W must match 1 to this tolerance.
STOCHASTIC_TOL = 1e-12

_MAX_REGEN_ATTEMPTS = 100
# Rows of the edge draw made at once; bounds its float64 buffer at n = 1000.
_DRAW_ROWS = 128
# Network.mix gathers neighbours when nnz(W) <= n^2 / GATHER_FILL and runs
# the dense gemm otherwise; at 2 BLAS threads the two cross near 1.6% fill at
# n = 500 and 2% at n = 1000 (README "Conventions").
GATHER_FILL = 64


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Network:
    """A connected network, given by its consensus weight matrix alone.

    ``W`` is nonnegative with unit row and column sums, and its off-diagonal
    support is the communication graph: agent i receives from agent j
    exactly when ``W[i, j] != 0`` and i != j.  ``sigma`` is the spectral
    norm of ``W - (1/n) 11^T``; the consensus step contracts disagreement by
    ``delta = 1 - gamma * (1 - sigma)``.  ``mix`` is the one product with W.
    It is a dense gemm, or, when W has at most n^2/64 nonzeros, a gather of
    each agent's neighbours; the choice is made once, from W, when the
    network is built.
    """

    n: int
    W: np.ndarray
    sigma: float
    # (slots, inv) of the neighbour gather, or None for the dense gemm
    _gather: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_gather", _gather_plan(self.W))

    def validate(self) -> None:
        n, W = self.n, self.W
        if W.shape != (n, n):
            raise GraphError(f"W has shape {W.shape}, not ({n}, {n})")
        if np.any(W < 0):
            raise GraphError("W has negative entries")
        if np.max(np.abs(W.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
            raise GraphError("row sums of W are not 1")
        if np.max(np.abs(W.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
            raise GraphError("column sums of W are not 1")
        if not is_strongly_connected(W != 0.0):
            raise GraphError("digraph is not strongly connected")
        if n > 1 and not (0.0 < self.sigma < 1.0):
            raise GraphError(f"sigma={self.sigma} outside (0, 1)")

    def out_degrees(self) -> np.ndarray:
        """Number of receivers per agent, self excluded (column-wise count)."""
        return (np.count_nonzero(self.W, axis=0)
                - (np.diagonal(self.W) != 0.0)).astype(np.int64)

    def mix(self, Q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """W @ Q for one (n, d) array or a stack (..., n, d) of them, into
        ``out`` if given.

        Dense W: one gemm per (n, d) slab, as ``W @ Q[j]`` makes, so each
        slab mixes bitwise as it would alone, at a given BLAS thread count.
        Sparse W: row i of each slab is sum_j W[i, j] Q[j] over i's nonzero
        columns in ascending order, the self-loop in its place, one rounded
        product and one rounded sum per term, in element-wise numpy calls
        that use no BLAS; so it is the same at any thread count, and within
        a few ulp of the gemm."""
        if self._gather is None:
            return np.matmul(self.W, Q, out=out)
        slots, inv = self._gather
        if Q.shape[-2:-1] != inv.shape:
            raise ValueError(f"cannot mix an array of shape {Q.shape} with "
                             f"{len(inv)} agents")
        if out is None:
            out = np.empty(Q.shape)
        # rows in gather order, by degree: the rows that take part in slot t
        # are a prefix, and row inv[i] of acc is agent i's running sum.  Every
        # index is in range by construction; "clip" skips the buffered bounds
        # check of the default mode
        acc, part = np.empty((2,) + Q.shape[-2:])
        (cols, w), rest = slots[0], slots[1:]
        for j in np.ndindex(Q.shape[:-2]):
            q = Q[j]
            np.take(q, cols, axis=0, out=acc, mode="clip")
            acc *= w
            for c, wt in rest:
                p = part[:len(c)]
                np.take(q, c, axis=0, out=p, mode="clip")
                p *= wt
                acc[:len(c)] += p
            np.take(acc, inv, axis=0, out=out[j], mode="clip")
        return out


def _gather_plan(W: np.ndarray) -> tuple | None:
    """The neighbour gather of ``Network.mix``, or None when W has more than
    n^2/GATHER_FILL nonzeros.

    Rows are ordered by degree, highest first (``inv`` maps agent i to its
    place).  Slot t holds the t-th nonzero column, in ascending order, of
    every row whose degree exceeds t, in that order, and its weight as a
    column, ``(cols, w)``."""
    n = len(W)
    # row-major, so each row's columns ascend.  Scanning a bool mask of W
    # builds the plan in 1.6 ms, not 6, at n = 1000, but its 1 MB raised
    # sparse-n1000's peak RSS by 0.75 MB
    rows, cols = np.nonzero(W)
    if GATHER_FILL * rows.size > n * n:
        return None
    deg = np.bincount(rows, minlength=n)
    inv = np.empty(n, dtype=np.intp)
    inv[np.argsort(-deg, kind="stable")] = np.arange(n)
    slot = np.arange(rows.size) - (np.cumsum(deg) - deg)[rows]
    order = np.lexsort((inv[rows], slot))
    ends = np.cumsum(np.bincount(slot))
    slots = tuple((cols[k], W[rows[k], cols[k]][:, None])
                  for k in np.split(order, ends[:-1]))
    return slots, inv


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


def spectral_gap(W: np.ndarray) -> float:
    """Exact spectral norm of W - (1/n) 11^T for a symmetric, doubly
    stochastic W.  Its largest eigenvalue is the consensus eigenvalue 1;
    dropping it leaves the spectrum of W - (1/n) 11^T.  ``eigvalsh`` reads
    one triangle only, so an asymmetric W is refused rather than given a
    wrong sigma."""
    if not np.array_equal(W, W.T):
        raise GraphError("W is not symmetric")
    lam = np.linalg.eigvalsh(W)
    return float(max(-lam[0], lam[-2])) if len(lam) > 1 else 0.0


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


def generate_network(n: int, edge_density: float | None, seed: int,
                     topology: str = "random") -> Network:
    """Build a connected undirected network with symmetric, doubly stochastic
    weights.

    Random topology: symmetric Erdos-Renyi draws with edge probability
    ``edge_density``, retried with derived seeds until connected; after the
    retry budget a bidirectional cycle is added so construction always
    terminates.  The ring reads neither ``edge_density`` nor ``seed``.
    Degenerate spectra (sigma outside (0,1), e.g. complete graphs where W
    collapses to the averaging matrix) are repaired by lazification
    W <- (W + I)/2.
    """
    if n < 2:
        raise GraphError(f"need at least 2 agents, got {n}")

    if topology == "ring":
        W = _ring_weights(n)
    elif topology == "random":
        if edge_density is None or not 0.0 < edge_density <= 1.0:
            raise GraphError(f"edge_density={edge_density} outside (0, 1]")
        adj = None
        for attempt in range(_MAX_REGEN_ATTEMPTS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
            # the stream of one (n, n) draw, in row blocks
            cand = np.empty((n, n), dtype=bool)
            for i in range(0, n, _DRAW_ROWS):
                block = cand[i:i + _DRAW_ROWS]
                np.less(rng.random(block.shape), edge_density, out=block)
            cand = np.triu(cand, 1)
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

    net = Network(n=n, W=W, sigma=sigma)
    net.validate()
    return net
