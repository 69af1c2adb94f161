"""A fixed reference probe that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts by
tens of percent over minutes, as other tenants load it.  ``Probe.slowdown()``
runs the same numpy work on every call and returns its time over the time it
takes on an unloaded reference host.  The work comes in the three kinds
cgtsim's workloads spend their time on:

- ``calls``: many small-array numpy calls from a Python loop (per-call cost);
- ``matmul``: a dense (1000, 1000) @ (1000, 50) product (mixing with W);
- ``einsum``: contractions over an 8 MB (100, 100, 100) tensor (quadratic costs).

Each workload names its own mix of the three, so the probe slows down when
the workload's own kind of work does.  The probe imports nothing from
cgtsim, so a change to the program cannot move it.

The host's speed changes within seconds, so one probe before and one after a
whole repeat of a workload track it poorly.  ``Pace`` probes before every
stepper call of a repeat and once after it, and divides each stretch of the
repeat between two probes by the mean slowdown of those two; the probes' own
time is left out.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one probe takes on an unloaded reference host (2 vCPUs of an Intel
# Xeon at 2.0 GHz), and each kind's operations per second there.
REFERENCE_S = 0.2
RATES = {"calls": 100_000, "matmul": 400, "einsum": 1_500}


class Probe:
    def __init__(self, mix: dict):
        """``mix`` maps each kind of work to its share of the probe."""
        self.counts = {kind: round(share * REFERENCE_S * RATES[kind])
                       for kind, share in mix.items()}
        self.small = np.linspace(-1.0, 1.0, 20 * 50).reshape(20, 50)
        self.w = np.linspace(0.0, 1e-3, 1000 * 1000).reshape(1000, 1000)
        self.x = np.linspace(0.0, 1.0, 1000 * 50).reshape(1000, 50)
        self.t = np.linspace(0.0, 1.0, 100 * 100 * 100).reshape(100, 100, 100)
        self.y = np.linspace(0.0, 1.0, 100 * 100).reshape(100, 100)
        self.slowdown()                      # warm-up: page in, BLAS threads

    def slowdown(self) -> float:
        """Seconds the fixed work takes now, over ``REFERENCE_S``."""
        t0 = perf_counter()
        acc = 0.0
        for _ in range(self.counts.get("calls", 0)):
            b = self.small * 0.5 + self.small
            acc += float(np.abs(np.sign(b)).sum())
        for _ in range(self.counts.get("matmul", 0)):
            self.w @ self.x
        for _ in range(self.counts.get("einsum", 0)):
            np.einsum("nrd,nd->nr", self.t, self.y)
        return (perf_counter() - t0) / REFERENCE_S


class Pace:
    """The probes taken during one repeat, as (start, end, slowdown)."""

    def __init__(self, probe, start: float, slowdown: float):
        """``slowdown`` is the last probe's, taken just before ``start``."""
        self.probe = probe
        self.marks = [(start, start, slowdown)]

    def take(self) -> float:
        """Probes now; without a probe the slowdown is taken as 1."""
        t = perf_counter()
        slowdown = self.probe.slowdown() if self.probe else 1.0
        self.marks.append((t, perf_counter(), slowdown))
        return slowdown

    def seconds(self, a: float, b: float) -> float:
        """Time from ``a`` to ``b`` at the reference speed, probes left out."""
        total = 0.0
        for (_, lo, s0), (hi, _, s1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(a, lo), min(b, hi)
            if hi > lo:
                total += (hi - lo) * 2.0 / (s0 + s1)
        return total

    def raw(self, a: float, b: float) -> float:
        """Time from ``a`` to ``b`` as measured, probes left out."""
        total = 0.0
        for (_, lo, _), (hi, _, _) in zip(self.marks, self.marks[1:]):
            total += max(0.0, min(b, hi) - max(a, lo))
        return total
