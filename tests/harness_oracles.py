"""Harness helpers for the tests: the running minimum at one horizon, a
trace CSV reader and writer, and a file digest."""

import hashlib
from pathlib import Path

import numpy as np

from cgtsim.algorithms import RunTrace
from cgtsim.harness import CSV_HEADER, ConfigError


def upsilon(trace: RunTrace, T: int) -> float:
    """Running minimum of consensus error plus optimality gap up to T."""
    if len(trace) == 0:
        raise ConfigError("empty trace")
    if T >= len(trace):
        raise ConfigError(f"T={T} beyond trace length {len(trace)}")
    m = trace.consensus_err[: T + 1] + trace.opt_gap[: T + 1]
    return float(m.min())


def read_trace_csv(path) -> dict:
    rows = Path(path).read_text(encoding="utf-8").strip().split("\n")
    if rows[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    cols = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    return {name: cols[:, i] for i, name in enumerate(CSV_HEADER.split(","))}


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_trace_csv_rowwise(trace: RunTrace, path, bpi: int) -> None:
    """The trace CSV written cell by cell from numpy scalars, with ``bpi``
    bits a step: the byte-level reference for ``harness.write_trace_csv``."""
    def fmt(v):
        return repr(float(v))

    lines = [CSV_HEADER]
    for i in range(len(trace)):
        lines.append(",".join([
            str(i), fmt(trace.consensus_err[i]),
            fmt(trace.opt_gap[i]), fmt(trace.stationarity[i]),
            fmt(trace.lyapunov[i]), str(i * bpi)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
