"""Graph helpers for the tests: the consensus contraction factor and a JSON
round trip of a ``Network``."""

import json

import numpy as np

from cgtsim.graph import GraphError, Network


def contraction_factor(gamma: float, sigma: float) -> float:
    """Consensus contraction delta = 1 - gamma * (1 - sigma)."""
    if not 0.0 < gamma < 1.0:
        raise GraphError(f"gamma={gamma} outside (0, 1)")
    if not 0.0 <= sigma < 1.0:
        raise GraphError(f"sigma={sigma} outside [0, 1)")
    return 1.0 - gamma * (1.0 - sigma)


def network_to_json(net: Network) -> str:
    src, dst = np.nonzero(net.adjacency.T)  # adjacency[i,j]: j -> i
    edges = [[int(s), int(d)] for s, d in zip(src, dst)]
    doc = {
        "n": net.n,
        "edges": edges,
        "W": [float(v) for v in net.W.ravel()],
        "sigma": float(net.sigma),
    }
    return json.dumps(doc)


def network_from_json(text: str) -> Network:
    doc = json.loads(text)
    n = int(doc["n"])
    adj = np.zeros((n, n), dtype=bool)
    for s, d in doc["edges"]:
        adj[d, s] = True
    W = np.asarray(doc["W"], dtype=np.float64).reshape(n, n)
    net = Network(n=n, adjacency=adj, W=W, sigma=float(doc["sigma"]))
    net.validate()
    return net
