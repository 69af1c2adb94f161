"""Runs with their states, for the tests that check states.

``run_recorded`` calls the public ``algorithms.run`` with two swaps in
``cgtsim._kernels``: a block recorder that also copies each X|Y row pushed
to it, and a ``run_rule`` that keeps the final state blocks it returns.
Neither changes the run, so the trace is the one ``run`` gives, and the
states are those the run recorded and ended with.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from cgtsim import _kernels
from cgtsim.algorithms import RunTrace, run


@dataclass
class StackedState:
    """Final per-agent vectors, stacked row-wise (agent i is row i)."""

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray = None
    b: np.ndarray = None
    c: np.ndarray = None
    dd: np.ndarray = None
    ex: np.ndarray = None
    ey: np.ndarray = None
    xhat: np.ndarray = None
    v: np.ndarray = None
    yhat: np.ndarray = None
    z: np.ndarray = None
    qx: np.ndarray = None
    qy: np.ndarray = None
    qhx: np.ndarray = None
    qhy: np.ndarray = None


def final_fields(rule) -> tuple:
    """The StackedState fields of ``rule``'s final state: x, y, the twins'
    halves and, if it compresses, the messages."""
    fields = ("x", "y") + tuple(f for pair in rule.twins for f in pair)
    return fields + rule.messages if rule.classes else fields


@dataclass
class RecordedTrace(RunTrace):
    """A RunTrace with the run's x and y at rows 0..k_done and its final
    state, one distinct array per field."""

    x_hist: np.ndarray = None
    y_hist: np.ndarray = None
    final_state: StackedState = None


class _HistoryRecorder(_kernels._BlockRecorder):
    """The block recorder, keeping a copy of each pushed X|Y row."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hist = []

    def push(self, st):
        self.hist.append(st[0].copy())
        super().push(st)


def run_recorded(*args, **kwargs) -> RecordedTrace:
    """``algorithms.run(*args, **kwargs)``, with its states."""
    got = []
    run_rule = _kernels.run_rule

    def keep(rule, *a, **kw):
        got[:] = rule, run_rule(rule, *a, **kw)
        return got[1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BlockRecorder", _HistoryRecorder)
        mp.setattr(_kernels, "run_rule", keep)
        tr = run(*args, **kwargs)
    rule, (_, k_done, rec, st) = got
    xy = np.array(rec.hist[:k_done + 1])
    # x, y, the twins' halves and the message slots: G is no field
    halves = (a for block in st[:1] + st[2:] for a in block)
    final = StackedState(**dict(zip(final_fields(rule), halves)))
    return RecordedTrace(**vars(tr), x_hist=xy[:, 0], y_hist=xy[:, 1],
                         final_state=final)
