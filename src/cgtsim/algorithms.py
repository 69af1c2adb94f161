"""Synchronous runs of the compressed trackers and the exact baseline.

All four methods share the same skeleton per tick: consume the stored
compressed messages for the auxiliary and x/y updates, evaluate fresh
gradients, then produce the next round of compressed messages.  Agents are
updated from the same snapshot, so results are independent of agent order.
Only compressed quantities enter mixing products: the update rules multiply W
exclusively against messages or against reference states reconstructed from
messages, never against raw neighbour states (the baseline excepted).
``run``, the one driver, builds, steps and records every run from its
rule's description in ``RULES``: one step function per rule and one block
recorder, none of which branches on the rule's name.  Gradients and trace
terms come from the run's ``costs.RunCosts``.

State blocks.  Each x/y twin of the update rules is one contiguous (2, n, d)
block, x in slot 0 and y in slot 1.  A run's state list is X|Y, G, the twins
the rule describes (A|C, B|D, and alg2's Ex|Ey; Xhat|Yhat, V|Z for alg3),
then a compressed rule's message block: all messages of one step as one
(m, n, d) block along a slot axis, one slot per message the rule names:
Qx, Qy (m = 2), then alg2's error-feedback Qhx, Qhy (m = 4).
A step makes one compressor-kernel call over that block, one
``Network.mix`` of it, one update per twin and the one tracking tail
(``_track``), written in place into the run's blocks.  The stacked product
still makes one gemm per slot and every elementwise update rounds as the
per-array update did, so traces and states are bitwise those of updating
each half of a twin on its own.  Nothing here reads W: ``Network.mix`` is
the steps' product with it, and ``Network.rmatmul`` the recorder's one-off.

The steppers only step.  The block recorder takes each row's state and,
every B rows, computes the trace rows and the invariant maxima for the whole
block at once, twin by twin: one reduction gives both agent means, one both
consensus and tracking errors, and one call each twin's Lyapunov sum,
accumulator identity or induction ratio.  Its batched products make the same
BLAS call per row and half, and its reductions sum in the same order, as
recording each half row by row, so the result is bitwise equal to per-step
recording.  B = clamp(1 MiB // bytes per recorded row, 1, 64) follows from
n*d and the number of (n, d) arrays a row records: X|Y, G and every twin,
so 3 for dgt, 7 for alg1 and alg3 and 9 for alg2.  At n=20, d=50 that is
43, 18 and 14; B is 1 once a row passes 512 KiB (n*d above about 22000 for
dgt and 9400 for alg1/alg3).  At B = 1 rows are recorded straight from the
state blocks, before the next step overwrites them.  A non-finite row ends
the run at that row, at the flush that finds it: the steps already taken
past it inside the block enter neither the trace nor the maxima, and no
step is taken twice.

The accumulator identity Acc = (I - W) Base (B|D against A|C, V|Z against
Xhat|Yhat) is checked by a fixed random projection (Freivalds 1977), not by
a product with W per row.  A run draws R, (2, n) with i.i.d. N(0, 1/2)
entries, from its seed, and takes R(I - W) = R - R @ W once; each half of a
row then records ||R Acc - R(I - W) Base|| / ||Base||.  Since E||R E||^2 =
||E||^2, the value keeps the scale of the full residual ||E|| / ||Base||,
E = Acc - (I - W) Base.  Every product and sum of the check is an
``np.einsum`` or a reduction with a fixed order, with no BLAS, so it reads
the same at any BLAS thread count.

Shared conventions:

* agent states are stacked row-wise, shape (n, d)
* metric arrays hold one record per iteration index 0..iters
* a run's ``diag`` maps each runtime invariant its rule lists (named and
  defined in ``DIAG_NAMES``) to its running maximum
* a run ends "ok", "nonfinite_state" (a non-finite row) or
  "scaling_exhausted" (the next scale s(k) would underflow)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (AnalysisError, ef_weight, lyapunov_weight,
                       mixing_constants, scaled_gap_weight)
from .compressors import (LOCAL_ABSOLUTE, RELATIVE, CompressorSpec,
                          _compress_block)
from .costs import CostSuite, RunCosts, _norms, _sums
from .graph import Network

DIAG_NAMES = (
    "mean_x_recursion",      # || mean X(k+1) - (mean X(k) - eta mean Y(k)) ||
    "mean_y_tracking",       # || mean Y - mean grad || / (1 + || mean grad ||)
    "struct_proj_x",         # ||R (Acc - (I - W) Base)|| / ||Base||, x side
    "struct_proj_y",         # the same, y side (R: _check_rows)
    "induction_x",           # max_i ||X_i(k) - Xhat_i(k-1)||_inf / s(k)
    "induction_y",
    "compression_ratio",     # max_i ||X_i(k) - Xhat_i(k)||_inf / s(k)
)


class AlgorithmError(ValueError):
    pass


@dataclass(frozen=True)
class AlgorithmParams:
    """Step sizes and gains: eta (gradient step), gamma (consensus gain),
    phi_x/phi_y (message mixing into the reference accumulators),
    varsigma (error-feedback retention), s0/mu (geometric message scaling)."""

    eta: float
    gamma: float
    phi_x: float = 1.0
    phi_y: float = 1.0
    varsigma: float = 0.0
    s0: float = 1.0
    mu: float = 0.98

    def validate(self, algo: str) -> None:
        reads = RULES[algo].params
        if self.eta <= 0 or self.gamma <= 0:
            raise AlgorithmError("eta and gamma must be positive")
        if self.gamma >= 1:
            raise AlgorithmError("gamma must stay below 1 for contraction")
        if "phi_x" in reads and (self.phi_x <= 0 or self.phi_y <= 0):
            raise AlgorithmError("phi_x and phi_y must be positive")
        if "varsigma" in reads and self.varsigma < 0:
            raise AlgorithmError("varsigma must be nonnegative")
        if "s0" in reads and self.s0 <= 0:
            raise AlgorithmError("s0 must be positive")
        if "mu" in reads and not 0.0 < self.mu < 1.0:
            raise AlgorithmError("mu must lie in (0, 1)")


@dataclass(frozen=True)
class Rule:
    """One update rule, described once: ``run`` drives ``step`` (its step
    function factory, below) over X|Y, G, ``twins`` and, if it compresses,
    its message block; the block recorder reads its Lyapunov terms and
    invariants, and the harness's bit ledger bills one message per slot."""

    name: str
    step: Callable
    classes: tuple      # compressor classes it is certified for
    messages: tuple     # the name of the message sent in each slot
    twins: tuple        # (2, n, d) blocks after X|Y and G, zero at first
    lyapunov: str       # "full", "ef" or "consensus" (sidecar names)
    params: tuple       # the AlgorithmParams fields it reads
    practical: AlgorithmParams  # aggressive operating point for
                                # qualitative experiments
    scaled: bool = False  # it sends (X - Xhat) / s(k), s(k) = s0 mu^k
    exact: bool = False   # it sends its states uncompressed; its classes
                          # are the identity compressor's

    @property
    def feedback(self) -> bool:
        """Whether it sends error-feedback messages besides Qx, Qy (alg2)."""
        return self.lyapunov == "ef"

    @property
    def invariants(self) -> tuple:
        """The runtime invariants (DIAG_NAMES) it checks: the mean recursions,
        the accumulator identities if it compresses, the rest if scaled."""
        return DIAG_NAMES[:2 + 2 * (not self.exact) + 3 * self.scaled]


_SCALE_FLOOR = 1e-300


# Step functions: ``rule.step(rule, st, mix, p, cost, comp, seed, s_arr)``
# returns the rule's ``step(k, st)``, which takes the run's state list ``st``
# from row k to k+1 (``mix`` is the run network's ``Network.mix``).  It
# updates the state blocks in place and ends in ``_track``, which takes
# gradients from ``cost`` (a ``costs.RunCosts``).  Its scratch is ``tmp``,
# like X|Y, and ``buf``, one slot per message: ``buf`` takes mix(Q), then,
# once that is spent, the step's other temporaries and the next messages'
# inputs.  Both are allocated like the state and bound as default
# arguments, so the in-place operators act on them.  Only G and the message
# block are new arrays, which keeps a large-n run's live arrays near those
# of updating twin halves alone.

def _track(st, tmp, ey, eta, cost):
    """Every step's tracking tail: X|Y -= tmp, X -= eta * (the old Y), then
    Y += grad f(X) - (the old G); ``ey`` is (n, d) scratch."""
    XY, G = st[0], st[1]
    np.multiply(eta, XY[1], out=ey)
    XY -= tmp
    XY[0] -= ey
    st[1] = Gn = cost.grad(XY[0])
    XY[1] += Gn
    XY[1] -= G


def _alg1_step(rule, st, mix, p, cost, comp, seed, s_arr):
    """alg1, and alg2 (``rule.feedback``)."""
    eta, gamma, varsigma = p.eta, p.gamma, p.varsigma
    use_ef = rule.feedback
    phi = np.array([p.phi_x, p.phi_y])[:, None, None]

    def step(k, st, tmp=np.empty_like(st[0]), buf=np.empty_like(st[-1])):
        XY, AC, BD, Q = st[0], st[2], st[3], st[-1]
        E = st[4] if use_ef else None  # alg2's Ex|Ey
        mixQ = mix(Q, buf)
        Qs, mixQs = (Q[2:], mixQ[2:]) if use_ef else (Q, mixQ)
        np.add(BD, Qs, out=tmp)  # the consensus terms, from the old B|D
        tmp -= mixQs
        tmp *= gamma
        if use_ef:  # from the old X|Y and A|C
            E *= varsigma
            E += XY
            E -= AC
            E -= Qs
        diff = np.subtract(Q[:2], mixQ[:2], out=buf[:2])
        diff *= phi
        BD += diff
        AC += np.multiply(phi, Q[:2], out=buf[:2])
        _track(st, tmp, buf[0], eta, cost)
        np.subtract(XY, AC, out=buf[:2])  # the next messages' inputs
        if use_ef:
            h = np.multiply(varsigma, E, out=buf[2:])
            h += XY
            h -= AC
        st[-1] = _compress_block(comp, buf, seed, k + 1, 0)

    return step


def _alg3_step(rule, st, mix, p, cost, comp, seed, s_arr):
    eta, gamma = p.eta, p.gamma

    def step(k, st, tmp=np.empty_like(st[0]), buf=np.empty_like(st[0])):
        XY, _, Hat, VZ, Q = st
        mixQ = mix(Q, buf)
        sk = s_arr[k]
        Hat += np.multiply(sk, Q, out=tmp)
        diff = np.subtract(Q, mixQ, out=tmp)
        diff *= sk
        VZ += diff
        np.multiply(gamma, VZ, out=tmp)
        _track(st, tmp, buf[0], eta, cost)
        cin = np.subtract(XY, Hat, out=tmp)  # the next messages' inputs
        cin /= s_arr[k + 1]
        st[-1] = _compress_block(comp, cin, seed, k + 1, 0)

    return step


def _dgt_step(rule, st, mix, p, cost, comp, seed, s_arr):
    eta, gamma = p.eta, p.gamma

    def step(k, st, tmp=np.empty_like(st[0]), ey=np.empty_like(st[1])):
        XY = st[0]
        mix(XY, tmp)
        np.subtract(XY, tmp, out=tmp)
        tmp *= gamma
        _track(st, tmp, ey, eta, cost)

    return step


_RELATIVE_TWINS = (("a", "c"), ("b", "dd"))

RULES = {rule.name: rule for rule in (
    Rule("alg1", _alg1_step, ("relative",), ("qx", "qy"),
         _RELATIVE_TWINS, "full", ("eta", "gamma", "phi_x", "phi_y"),
         AlgorithmParams(eta=0.8, gamma=0.3, phi_x=0.3, phi_y=0.1)),
    Rule("alg2", _alg1_step, ("relative",),
         ("qx", "qy", "qhx", "qhy"), _RELATIVE_TWINS + (("ex", "ey"),),
         "ef", ("eta", "gamma", "phi_x", "phi_y", "varsigma"),
         AlgorithmParams(eta=0.8, gamma=0.3, phi_x=0.3, phi_y=0.1,
                         varsigma=0.3)),
    Rule("alg3", _alg3_step, ("global_absolute", "local_absolute"),
         ("qx", "qy"), (("xhat", "yhat"), ("v", "z")), "consensus",
         ("eta", "gamma", "s0", "mu"),
         AlgorithmParams(eta=0.4, gamma=0.6), scaled=True),
    Rule("dgt", _dgt_step, ("relative",), ("x", "y"), (), "consensus",
         ("eta", "gamma"), AlgorithmParams(eta=0.8, gamma=0.3), exact=True),
)}


@dataclass
class RunTrace:
    """Dense per-iteration records, row k before step k, plus
    runtime-invariant maxima and the name of the Lyapunov function the
    ``lyapunov`` column records; the harness bills a row's bits."""

    algo: str
    consensus_err: np.ndarray
    opt_gap: np.ndarray
    stationarity: np.ndarray
    lyapunov: np.ndarray
    status: str
    failed_at: int | None
    diagnostics: dict
    lyapunov_name: str

    def __len__(self):
        return len(self.consensus_err)


def initial_point(n: int, d: int, seed: int) -> np.ndarray:
    """Shared deterministic start; depends only on (n, d, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1717]))
    return rng.standard_normal((n, d))


def scaling_sequence(s0: float, mu: float, iters: int) -> np.ndarray:
    """s(k) = s0 mu^k, accumulated in extended precision."""
    ks = np.arange(iters + 1, dtype=np.float64)
    vals = np.longdouble(s0) * np.longdouble(mu) ** ks
    return np.asarray(vals, dtype=np.float64)


# Bytes of row buffers one recorder may hold; B is this over the bytes of a
# recorded row, clamped to 1.._RECORD_MAX_ROWS (see the module docstring).
_RECORD_BUDGET = 1 << 20
_RECORD_MAX_ROWS = 64


def _block_rows(nrec, n, d):
    """Rows per recorded block for ``nrec`` recorded (n, d) arrays a row."""
    return max(1, min(_RECORD_MAX_ROWS, _RECORD_BUDGET // (nrec * n * d * 8)))


def _metrics_rows(cost, XY, G):
    """Trace terms of b rows of X|Y (b, 2, n, d) and G (b, n, d): the
    (b, 2, d) agent means of X and Y, the (b, 2) consensus and tracking
    errors, the gap and stationarity at the mean x (from the run's
    ``costs.RunCosts``) and the relative mean-y tracking residual."""
    n = XY.shape[2]
    means = np.add.reduce(XY, 2) / n
    gbar = np.add.reduce(G, 1) / n
    D = XY - means[:, :, None]
    ct = _sums(np.square(D, out=D), 2)
    gap, stat = cost.trace_terms(means[:, 0])
    ytrack = _norms(means[:, 1] - gbar) / (1.0 + _norms(gbar))
    return means, ct, gap, stat, ytrack


# Rows of the accumulator check's projection R
_CHECK_ROWS = 2


def _check_rows(seed, n):
    """R of a run's accumulator check: (2, n), i.i.d. N(0, 1/2) entries
    drawn from ``seed``, so that E||R E||^2 = ||E||^2 for any (n, d) E."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed & 0xFFFFFFFFFFFFFFFF, 0xACC]))
    return rng.standard_normal((_CHECK_ROWS, n)) / np.sqrt(_CHECK_ROWS)


def _struct_proj_rows(Acc, Base, R, S):
    """||R Acc - S Base|| / ||Base|| for each half of b (2, n, d) twin rows,
    S being R(I - W): the accumulator identity, projected by R.  Each
    entry of R Acc and S Base sums over the agents in ascending order, and
    each norm is a reduction over one half, so a half reads as it would
    alone."""
    P = np.einsum("pj,bhjd->bhpd", R, Acc)
    P -= np.einsum("pj,bhjd->bhpd", S, Base)
    num = np.sqrt(_sums(np.square(P, out=P), 2))
    den = np.sqrt(_sums(np.einsum("bhjd,bhjd->bhj", Base, Base), 2))
    return num / np.maximum(den, 1e-30)


def _row_norm_max_rows(A):
    """Largest agent inf-norm per (n, d) slab: its largest |entry|."""
    return np.abs(A).reshape(A.shape[:-2] + (-1,)).max(axis=-1)


def _raise_max(diag, i, vals):
    """diag[i] = max(diag[i], v) for each v in turn; a NaN v never wins."""
    diag[i] = np.fmax.reduce(vals, initial=diag[i])


def _raise_twin(diag, name, vals):
    """_raise_max of name_x and name_y by the halves of (b, 2) ``vals``."""
    for half, v in zip("xy", vals.T):
        _raise_max(diag, f"{name}_{half}", v)


class _BlockRecorder:
    """Trace rows and invariant maxima of one run of ``rule``, B rows at once.

    Row k is the run state before step k as a list of blocks: X|Y, G and
    the rule's twins, not its messages.  ``row`` is the first such list; it
    fixes the block shapes.  Twin 0 of a compressed rule is its reference
    (A|C, Xhat|Yhat) and twin 1 the accumulator meant to equal (I - W) times
    it (B|D, V|Z); alg2's Ex|Ey is twin 2.  The Lyapunov column is
    c + phi_w t plus the rule's terms: the gap weighted by ``aux`` under
    "consensus" (1.0 gives the consensus function, the scaled one else),
    the compression errors and the gap under "full", and those and ``aux``
    times the error-feedback sum under "ef".  A compressed rule checks the
    accumulators at each finite row, where row 0's twins are zero, by
    ``check`` = (R, R(I - W)).  Steppers
    update their blocks in place, so at B = 1 a row is read before the next
    step and a scaled rule keeps a copy of the X it needs from it.
    """

    def __init__(self, rule, row, cost, check, eta, phi_w, aux, iters,
                 s_arr=None):
        n, d = row[1].shape
        self.B = _block_rows(sum(a.size for a in row) // (n * d), n, d)
        self.rule, self.nblk, self.cost = rule, len(row), cost
        self.check = check
        self.eta, self.phi_w, self.aux = eta, phi_w, aux
        self.s_arr = s_arr
        # consensus_err, opt_gap, stationarity and lyapunov, row by row
        self.cols = np.zeros((4, iters + 1))
        self.diag = dict.fromkeys(rule.invariants, 0.0)
        # slot 0 carries the row before the block (its agent means, and a
        # scaled rule's X); rows go to slots 1..B.  At B = 1 rows are not
        # copied.
        self.means = np.empty((self.B + 1, 2, d), dtype=row[0].dtype)
        self.buf = ([np.empty((self.B + 1,) + a.shape, dtype=a.dtype)
                     for a in row]
                    if self.B > 1 else None)
        self.rows = self.prev_x = None
        self.k0 = self.fill = 0

    def push(self, st):
        self.fill += 1
        if self.buf is None:
            self.rows = st[:self.nblk]
        else:
            for q, a in zip(self.buf, st):
                q[self.fill] = a

    def flush(self):
        """Record the pushed rows; returns the first non-finite row or None."""
        b, k0, diag, rule = self.fill, self.k0, self.diag, self.rule
        if self.buf is None:
            R = [a[None] for a in self.rows]
            Xp = None if self.prev_x is None else self.prev_x[None]
        else:
            R = [q[1:b + 1] for q in self.buf]
            Xp = self.buf[0][:b, 0]
        means, ct, g, s, ytr = _metrics_rows(self.cost, R[0], R[1])
        c, t = ct.T
        L = c + self.phi_w * t
        if rule.lyapunov == "consensus":
            L = L + self.aux * g
        else:  # the compression errors X-A|Y-C, and alg2's Ex|Ey
            D = np.subtract(R[0], R[2])
            ex, ey = _sums(np.square(D, out=D), 2).T
            L = L + ex + ey + g
            if rule.lyapunov == "ef":
                ex, ey = _sums(np.multiply(R[4], R[4], out=D), 2).T
                L = L + self.aux * (ex + ey)
        bad = np.flatnonzero(~np.isfinite(c + t + g + s))
        nok = int(bad[0]) if bad.size else b  # rows that pass the check
        keep = min(nok + 1, b)                # rows that enter the trace
        rows = slice(k0, k0 + keep)
        cons, gap, stat, lyap = self.cols
        cons[rows], gap[rows], stat[rows], lyap[rows] = (
            c[:keep], g[:keep], s[:keep], L[:keep])

        ok = slice(0, nok)
        _raise_max(diag, "mean_y_tracking", ytr[ok])
        if nok and not rule.exact:
            _raise_twin(diag, "struct_proj",
                        _struct_proj_rows(R[3][ok], R[2][ok], *self.check))
        if nok and rule.scaled:
            sk = self.s_arr[k0:k0 + nok, None]
            _raise_twin(diag, "induction",
                        _row_norm_max_rows(R[0][ok] - R[2][ok]) / sk)

        # step k0 + j - 1 leads into row j: the mean-x recursion needs the
        # agent means of both rows, and a scaled rule's compression ratio
        # row j - 1's X and row j's Xhat
        self.means[1:b + 1] = means
        steps = slice(1 if k0 == 0 else 0, keep)
        if keep > steps.start:
            want = self.means[steps, 0] - self.eta * self.means[steps, 1]
            _raise_max(diag, "mean_x_recursion",
                       _norms(means[steps, 0] - want))
            if rule.scaled:
                _raise_max(diag, "compression_ratio",
                           _row_norm_max_rows(Xp[steps] - R[2][steps, 0])
                           / self.s_arr[k0 - 1 + steps.start:k0 - 1 + keep])
        if nok < b:
            return k0 + nok

        self.means[0] = self.means[b]
        if rule.scaled:
            if self.buf is None:
                self.prev_x = self.rows[0][0].copy()
            else:
                self.buf[0][0] = self.buf[0][b]
        self.rows = None
        self.k0 += b
        self.fill = 0
        return None


def run(algo: str, iters: int, net: Network, suite: CostSuite,
        params: AlgorithmParams, comp: CompressorSpec | None = None, *,
        seed: int = 0, x0: np.ndarray | None = None, f_star: float = 0.0,
        x_star: np.ndarray | None = None) -> RunTrace:
    """Execute one synchronous run and return its dense trace.

    The twins start at zero and a compressed rule's messages at X|Y
    compressed, over s(0) if scaled, and twice for alg2.  No state is
    returned.
    ``seed`` feeds the compressor randomness and the accumulator check's R
    (``_check_rows``; no trace value moves with R): agent i's message in
    slot s at iteration k is row i of ``compress(comp, inputs, seed=seed,
    k=k, slot=s)``.  ``comp`` is ignored by a rule that sends exact
    messages.
    ``f_star`` is the reference value the optimality gap is measured from and
    ``x_star`` the point it is attained at, if known; quadratic gaps are
    anchored there, or at the minimiser solved from the suite's Gram without
    it (see ``costs.RunCosts``).
    The rule and the compressor's class fix the Lyapunov function, which
    the trace names, and the run derives its weights: phi =
    ``lyapunov_weight(sigma, L_f)``; alg2's ``ef_weight`` at its phis and a
    relative compressor's (r, psi, C), 0 in another class, for phis outside
    (0, 1/r) or for C = 0; a scaled rule's gap weight, ``scaled_gap_weight``
    at its eta and gamma under a locally bounded compressor, else 1.
    """
    rule = RULES.get(algo) if isinstance(algo, str) else None
    if rule is None:
        raise AlgorithmError(f"unknown algorithm {algo!r}")
    if iters < 1:
        raise AlgorithmError("iters must be >= 1")
    if suite.n != net.n:
        raise AlgorithmError("network and cost suite disagree on n")
    params.validate(algo)
    if not rule.exact:
        if comp is None:
            raise AlgorithmError(f"{algo} needs a compressor spec")
        if comp.d != suite.d:
            raise AlgorithmError("compressor dimensioned for a different d")
    phi_w = lyapunov_weight(net.sigma, suite.L_f)
    aux, lyap_name = 1.0, rule.lyapunov
    if rule.feedback:
        # 0 where (r, psi, C) state no bound: outside the relative class and
        # for phis outside (0, 1/r); and for C = 0, whose feedback sum is 0
        try:
            aux = (ef_weight(*mixing_constants(
                params.phi_x, params.phi_y, comp.r, comp.psi), comp.cap_c)
                if comp.assumption_class == RELATIVE and comp.cap_c else 0.0)
        except AnalysisError:
            aux = 0.0
    elif rule.scaled and comp.assumption_class == LOCAL_ABSOLUTE:
        aux, lyap_name = scaled_gap_weight(params.eta, params.gamma,
                                           net.sigma, suite.L_f), "scaled"

    n, d = net.n, suite.d
    if x0 is None:
        x0 = initial_point(n, d, seed)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    if x0.shape != (n, d):
        raise AlgorithmError(f"x0 must have shape {(n, d)}")

    s_arr = (scaling_sequence(params.s0, params.mu, iters) if rule.scaled
             else None)
    useed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    cost = RunCosts(suite, x_star, f_star)
    G = cost.grad(x0)
    XY = np.stack([x0, G])
    st = [XY, G, *(np.zeros_like(XY) for _ in rule.twins)]
    if not rule.exact:
        Q = _compress_block(
            comp, XY / s_arr[0] if rule.scaled else XY, useed, 0, 0)
        st.append(np.concatenate([Q, Q]) if rule.feedback else Q)
    step = rule.step(rule, st, net.mix, params, cost, comp, useed, s_arr)
    # a scaled rule stops before the first step whose next scale underflows
    last, status = iters, "ok"
    if rule.scaled:
        below = np.flatnonzero(s_arr[1:] < _SCALE_FLOOR)
        if below.size:
            last, status = int(below[0]), "scaling_exhausted"
    check = None
    if not rule.exact:
        R = _check_rows(seed, n)
        check = R, R - net.rmatmul(R)
    rec = _BlockRecorder(rule, st[:2 + len(rule.twins)], cost, check,
                         params.eta, phi_w, aux, iters, s_arr)
    for k in range(last + 1):
        rec.push(st)
        if rec.fill == rec.B or k == last:
            # overflow in a diverging row is expected: the flush that finds
            # a non-finite row ends the run at that row
            with np.errstate(all="ignore"):
                bad = rec.flush()
            if bad is not None:
                status, last = "nonfinite_state", bad
                break
        if k < last:
            step(k, st)

    cons, gap, stat, lyap = (col[:last + 1].copy() for col in rec.cols)
    return RunTrace(
        algo=algo,
        consensus_err=cons,
        opt_gap=gap,
        stationarity=stat,
        lyapunov=lyap,
        status=status,
        failed_at=None if status == "ok" else last,
        diagnostics={name: float(v) for name, v in rec.diag.items()},
        lyapunov_name=lyap_name,
    )


def practical_params(algo: str) -> AlgorithmParams:
    """``RULES[algo].practical``."""
    rule = RULES.get(algo) if isinstance(algo, str) else None
    if rule is None:
        raise AlgorithmError(f"unknown algorithm {algo!r}")
    return rule.practical


def auto_s0(x0: np.ndarray, suite: CostSuite) -> float:
    """Scaling start covering the initial states: max agent norm of x and y."""
    from .costs import grad_all

    y0 = grad_all(suite, x0)
    nx = float(np.linalg.norm(x0, axis=1).max())
    ny = float(np.linalg.norm(y0, axis=1).max())
    return max(1.0, nx, ny)
