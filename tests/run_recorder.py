"""Runs with their states, for the tests that check states.

``run_recorded`` calls the public ``algorithms.run`` with one swap in
``cgtsim.algorithms``: a block recorder that also copies the whole state list
pushed to it at each row.  The copies do not change the run, so the trace
is the one ``run`` gives.  The states are the copies of rows 0..k_done, and
the final state is the copy of row k_done.  The run's own state blocks, the
list the recorder is handed, are kept too, as the run left them.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from cgtsim import algorithms
from cgtsim.algorithms import RULES, RunTrace, run


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
    return fields if rule.exact else fields + rule.messages


def _stacked(rule, st) -> StackedState:
    """A state list (X|Y, G, the twins, the message block) as fields."""
    # x, y, the twins' halves and the message slots: G is no field
    halves = (a for block in st[:1] + st[2:] for a in block)
    return StackedState(**dict(zip(final_fields(rule), halves)))


@dataclass
class RecordedTrace(RunTrace):
    """A RunTrace with the run's x and y at rows 0..k_done and its final
    state, one distinct array per field; ``live_state`` holds the run's own
    arrays, past row k_done if a block ran on after a non-finite row.
    ``state_rows`` are the copies of the state lists of rows 0..k_done, and
    ``state_list`` is the run's own list."""

    x_hist: np.ndarray = None
    y_hist: np.ndarray = None
    final_state: StackedState = None
    live_state: StackedState = None
    state_rows: list = None
    state_list: list = None


class _StateRecorder(algorithms._BlockRecorder):
    """The block recorder, keeping a copy of each pushed state list and the
    list itself."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.states = []
        self.st = None

    def push(self, st):
        self.st = st
        self.states.append([a.copy() for a in st])
        super().push(st)


def run_recorded(*args, **kwargs) -> RecordedTrace:
    """``algorithms.run(*args, **kwargs)``, with its states."""
    recs = []

    def recorder(*a, **kw):
        recs.append(_StateRecorder(*a, **kw))
        return recs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_BlockRecorder", recorder)
        tr = run(*args, **kwargs)
    (rec,) = recs
    rule = RULES[tr.algo]
    rows = rec.states[:len(tr)]  # rows 0..k_done
    xy = np.array([st[0] for st in rows])
    return RecordedTrace(**vars(tr), x_hist=xy[:, 0], y_hist=xy[:, 1],
                         final_state=_stacked(rule, rows[-1]),
                         live_state=_stacked(rule, rec.st),
                         state_rows=rows, state_list=rec.st)
