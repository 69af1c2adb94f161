"""Per-agent message-passing oracle for the steppers in ``cgtsim.algorithms``.

A second implementation of the four update rules, written from the agents'
side.  Agent i keeps its own vectors and updates them only from its own state
and from the terms W[i, j] * q_j of the messages q_j its neighbours j sent,
its self-loop included; it never reads another agent's state.  Gradients come
from ``cost_oracles.grad`` one agent at a time, and messages from
``compressors.compress`` keyed by the stepper's (seed, k, slot), with row i of
the stack being agent i's message.  The neighbour sums run in a Python loop,
so the oracle agrees with the steppers up to summation order.
"""

import numpy as np

from cgtsim.algorithms import RULES, scaling_sequence
from cgtsim.compressors import compress
from cost_oracles import grad
from run_recorder import final_fields

SLOTS = {"qx": 0, "qy": 1, "qhx": 2, "qhy": 3}

# the StackedState fields each rule ends with, besides x and y
FIELDS = {name: final_fields(rule)[2:] for name, rule in RULES.items()}


def _mix(W, i, msgs):
    """sum_j W[i, j] q_j over agent i's neighbours, self-loop included."""
    acc = np.zeros_like(msgs[i])
    for j in np.flatnonzero(W[i]):
        acc = acc + W[i, j] * msgs[j]
    return acc


def run_oracle(algo, iters, net, suite, p, comp, seed, x0):
    """(x_hist, y_hist, final) of a run that neither diverges nor exhausts
    its scaling; final maps the algorithm's StackedState fields to arrays."""
    W, d = net.W, suite.d
    ef = algo == "alg2"
    s_arr = scaling_sequence(p.s0, p.mu, iters)
    agents = [{"x": x0[i].copy()} for i in range(net.n)]

    def sent(name):
        return [s[name] for s in agents]

    def send(k, **inputs):
        """Each agent compresses its own input into its message ``name``."""
        for name, rows in inputs.items():
            qs = compress(comp, np.array(rows), seed=seed, k=k,
                          slot=SLOTS[name])
            for s, q in zip(agents, qs):
                s[name] = q

    def step_alg1(k):
        got = {m: sent(m) for m in SLOTS if m in FIELDS[algo]}
        for i, s in enumerate(agents):
            mqx, mqy = _mix(W, i, got["qx"]), _mix(W, i, got["qy"])
            if ef:
                hx, hy = s["qhx"], s["qhy"]
                mhx, mhy = _mix(W, i, got["qhx"]), _mix(W, i, got["qhy"])
            else:
                hx, hy, mhx, mhy = s["qx"], s["qy"], mqx, mqy
            xn = s["x"] - p.gamma * (s["b"] + hx - mhx) - p.eta * s["y"]
            gn = grad(suite, i, xn)
            yn = s["y"] - p.gamma * (s["dd"] + hy - mhy) + gn - s["g"]
            if ef:
                s["ex"] = p.varsigma * s["ex"] + s["x"] - s["a"] - s["qhx"]
                s["ey"] = p.varsigma * s["ey"] + s["y"] - s["c"] - s["qhy"]
            s["a"] = s["a"] + p.phi_x * s["qx"]
            s["b"] = s["b"] + p.phi_x * (s["qx"] - mqx)
            s["c"] = s["c"] + p.phi_y * s["qy"]
            s["dd"] = s["dd"] + p.phi_y * (s["qy"] - mqy)
            s.update(x=xn, y=yn, g=gn)
        send(k + 1, qx=[s["x"] - s["a"] for s in agents],
             qy=[s["y"] - s["c"] for s in agents])
        if ef:
            send(k + 1,
                 qhx=[p.varsigma * s["ex"] + s["x"] - s["a"] for s in agents],
                 qhy=[p.varsigma * s["ey"] + s["y"] - s["c"] for s in agents])

    def step_alg3(k):
        got = {m: sent(m) for m in ("qx", "qy")}
        sk, snext = s_arr[k], s_arr[k + 1]
        for i, s in enumerate(agents):
            mqx, mqy = _mix(W, i, got["qx"]), _mix(W, i, got["qy"])
            s["xhat"] = s["xhat"] + sk * s["qx"]
            s["v"] = s["v"] + sk * (s["qx"] - mqx)
            s["yhat"] = s["yhat"] + sk * s["qy"]
            s["z"] = s["z"] + sk * (s["qy"] - mqy)
            xn = s["x"] - p.gamma * s["v"] - p.eta * s["y"]
            gn = grad(suite, i, xn)
            s.update(x=xn, y=s["y"] - p.gamma * s["z"] + gn - s["g"], g=gn)
        send(k + 1, qx=[(s["x"] - s["xhat"]) / snext for s in agents],
             qy=[(s["y"] - s["yhat"]) / snext for s in agents])

    def step_dgt(k):
        xs, ys = sent("x"), sent("y")  # exact communication
        for i, s in enumerate(agents):
            xn = s["x"] - p.gamma * (s["x"] - _mix(W, i, xs)) - p.eta * s["y"]
            gn = grad(suite, i, xn)
            s.update(x=xn, y=s["y"] - p.gamma * (s["y"] - _mix(W, i, ys))
                     + gn - s["g"], g=gn)

    for i, s in enumerate(agents):
        s["g"] = grad(suite, i, s["x"])
        s["y"] = s["g"].copy()
        for name in FIELDS[algo]:
            if not name.startswith("q"):
                s[name] = np.zeros(d)
    if algo == "alg3":
        send(0, qx=[s["x"] / s_arr[0] for s in agents],
             qy=[s["y"] / s_arr[0] for s in agents])
    elif algo != "dgt":
        send(0, qx=sent("x"), qy=sent("y"))
        if ef:
            for s in agents:
                s["qhx"], s["qhy"] = s["qx"].copy(), s["qy"].copy()
    step = {"alg1": step_alg1, "alg2": step_alg1, "alg3": step_alg3,
            "dgt": step_dgt}[algo]
    xh, yh = [sent("x")], [sent("y")]
    for k in range(iters):
        step(k)
        xh.append(sent("x"))
        yh.append(sent("y"))
    final = {name: np.array(sent(name)) for name in ("x", "y") + FIELDS[algo]}
    return np.array(xh), np.array(yh), final
