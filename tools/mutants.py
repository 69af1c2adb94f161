"""Plant each mutant of a table in a copy of a source tree, and run tier-1.

    python tools/mutants.py

Each row of ``MUTANTS`` names a file of the tree, an exact text that occurs
once in it, the text that replaces it, and what tier-1 should make of the
change: kill it (``survives`` is None), or let it survive for the reason
given, such as a mutant that cannot change any result.  For each row the
script copies the tree it sits in to a temporary directory, edits only that
copy, and runs tier-1 there with ``-x``, that copy's ``src`` first on the
path.  A
killed mutant costs a few seconds; a surviving one costs a full tier-1 run.

The script first checks that no row is stale: its old text occurs exactly
once in its file, and its new text differs from the old.  Tier-1 is then
run on an unmutated copy, so that a kill means the mutant and not the tree
failed, and then on each row.  The script prints one line per row and the
counts, and exits 0 when every row came out as listed, 1 when a row meant
to be killed survived, and 2 when a row is stale or tier-1 fails on the
unmutated copy.  A row listed as surviving that is killed is reported, so
its reason can be struck, but does not fail the run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# tier-1 with -x; a copy with a row planted no longer holds that row's old
# text, so the staleness test would kill every row
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         "--deselect", "tests/test_mutants.py::test_no_row_is_stale"]
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                               ".hypothesis", "out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    survives: str | None = None


_ALG, _GRAPH = "src/cgtsim/algorithms.py", "src/cgtsim/graph.py"
_AN, _COMP = "src/cgtsim/analysis.py", "src/cgtsim/compressors.py"
_HARNESS = "src/cgtsim/harness.py"

MUTANTS = [
    # the steppers
    Mutant("drop-phi-on-diff", _ALG,
           "        diff *= phi\n", ""),
    Mutant("drop-old-gradient", _ALG,
           "    XY[1] += Gn\n    XY[1] -= G\n", "    XY[1] += Gn\n"),
    Mutant("alg3-messages-scaled-by-s-k", _ALG,
           "cin /= s_arr[k + 1]", "cin /= s_arr[k]"),
    Mutant("alg3-hat-added-with-s-k-plus-1", _ALG,
           "Hat += np.multiply(sk, Q, out=tmp)",
           "Hat += np.multiply(s_arr[k + 1], Q, out=tmp)"),
    Mutant("alg2-drop-varsigma-on-e", _ALG,
           "            E *= varsigma\n", ""),
    # alg3's V|Z gains Q - WQ while Xhat|Yhat gains s(k) Q, so V|Z is no
    # longer (I - W) Xhat|Yhat
    Mutant("alg3-drop-sk-on-diff", _ALG,
           "        diff *= sk\n", ""),
    Mutant("dgt-drop-gamma", _ALG,
           "        tmp *= gamma\n        _track(st, tmp, ey, eta, cost)",
           "        _track(st, tmp, ey, eta, cost)"),
    Mutant("messages-keyed-by-k", _ALG,
           "_compress_block(comp, buf, seed, k + 1, 0)",
           "_compress_block(comp, buf, seed, k, 0)"),
    Mutant("eta-times-new-y", _ALG,
           "    np.multiply(eta, XY[1], out=ey)\n    XY -= tmp\n",
           "    XY -= tmp\n    np.multiply(eta, XY[1], out=ey)\n"),
    Mutant("mix-with-w-transposed", _GRAPH,
           "np.matmul(self.W, Q, out=out)", "np.matmul(self.W.T, Q, out=out)"),
    # the neighbour gather of a sparse W
    Mutant("gather-plan-from-w-transposed", _GRAPH,
           '"_gather", _gather_plan(self.W))',
           '"_gather", _gather_plan(self.W.T))'),
    Mutant("gather-drops-its-last-slot", _GRAPH,
           "slots[0], slots[1:]", "slots[0], slots[1:-1]"),
    Mutant("gather-skips-the-inverse-permutation", _GRAPH,
           'np.take(acc, inv, axis=0, out=out[j], mode="clip")',
           "out[j] = acc"),
    # the accumulator check: R @ W replaced by R, so it projects R Acc
    # alone; and R zero, so it reads 0 whatever the accumulators hold
    Mutant("struct-proj-rw-is-r", _ALG,
           "check = R, R - net.rmatmul(R)", "check = R, R - R"),
    Mutant("struct-proj-r-is-zero", _ALG,
           "/ np.sqrt(_CHECK_ROWS)", "* 0.0"),
    # the certified regions' terms
    Mutant("gamma-term-2-40000-to-4000", _AN,
           "one / (40000.0 * (1.0 + 1.0 / c2) * L * L)",
           "one / (4000.0 * (1.0 + 1.0 / c2) * L * L)"),
    Mutant("gamma-term-5-10-to-1", _AN,
           '"gamma_term_5": _div(c1, 10.0 * L',
           '"gamma_term_5": _div(c1, 1.0 * L'),
    Mutant("eta-term-3-80-to-8", _AN,
           "one * one / (80.0 * L) * math.sqrt",
           "one * one / (8.0 * L) * math.sqrt"),
    Mutant("eta-term-3-80-to-800", _AN,
           "one * one / (80.0 * L) * math.sqrt",
           "one * one / (800.0 * L) * math.sqrt"),
    Mutant("eta-term-4-9-to-90", _AN,
           '"eta_term_4": 9.0 / (40.0', '"eta_term_4": 90.0 / (40.0'),
    Mutant("theta3-0.07-to-0.7", _AN,
           "theta3 = min(0.07 * one * gamma,",
           "theta3 = min(0.7 * one * gamma,"),
    Mutant("xi10-sign-of-2c1-squared", _AN,
           "* C\n                + (1.0 - c1 - 2.0 * c1 * c1),\n"
           '        "xi11"',
           "* C\n                + (1.0 - c1 + 2.0 * c1 * c1),\n"
           '        "xi11"'),
    Mutant("breve-theta4-without-phi-eps1", _AN,
           '= b.eta / 4.0 - consts["phi"] * consts["eps1"]', "= b.eta / 4.0"),
    Mutant("scaled-local-xi9-20-to-16", _AN,
           "xi9 = 20.0 * n", "xi9 = 16.0 * n"),
    # a region's limits, strict in ParameterBounds.refusal and closed for dgt
    Mutant("gamma-limit-admits-its-bound", _AN,
           "g < self.gamma_max)", "g <= self.gamma_max)"),
    Mutant("eta-limit-admits-its-bound", _AN,
           "eta < eta_max)", "eta <= eta_max)"),
    Mutant("varsigma-limit-admits-its-bound", _AN,
           "vs < vs_max)", "vs <= vs_max)"),
    Mutant("dgt-limit-refuses-its-bound", _HARNESS,
           "params.eta <= 1.0 / L_f", "params.eta < 1.0 / L_f"),
    # the one copy of each default: a certified cell's region inputs
    # (harness.cell_region) and a rule's practical point (algorithms.RULES)
    Mutant("certified-phi-x-defaults-to-1-over-r", _HARNESS,
           'inputs.get("phi_x", 0.5 / comp.r)',
           'inputs.get("phi_x", 1.0 / comp.r)'),
    Mutant("certified-mu-defaults-to-0.99", _HARNESS,
           'inputs.get("mu", 0.995)', 'inputs.get("mu", 0.99)'),
    Mutant("alg2-practical-varsigma-0.3-to-0.2", _ALG,
           "varsigma=0.3)", "varsigma=0.2)"),
    # the bit ledger
    Mutant("sparsify-billed-without-index-bits", _COMP,
           "spec.keep_k * (SCALAR_BITS + max(1, math.ceil(math.log2(d))))",
           "spec.keep_k * SCALAR_BITS"),
    Mutant("quantize-billed-floor-log2-levels", _COMP,
           "math.ceil(math.log2(spec.levels))",
           "math.floor(math.log2(spec.levels))"),
    # the compressors
    Mutant("random-quantize-rounds-up-at-the-fraction", _COMP,
           "lvl = lo + (u < (t - lo))", "lvl = lo + (u <= (t - lo))",
           survives="equivalent: it differs only when a uniform draw equals "
                    "the fraction exactly"),
]


def stale_rows(tree: Path) -> list:
    """One line per row of ``MUTANTS`` that cannot be planted in ``tree``:
    its file is missing, its old text does not occur exactly once there,
    or its new text is its old; and one per name used twice."""
    out, seen = [], set()
    for m in MUTANTS:
        if m.name in seen:
            out.append(f"{m.name}: the name is used twice")
        seen.add(m.name)
        path = tree / m.path
        if not path.is_file():
            out.append(f"{m.name}: {m.path} is not there")
            continue
        count = path.read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.name}: its old text occurs {count} times in "
                       f"{m.path}")
        if m.new == m.old:
            out.append(f"{m.name}: its new text is its old text")
    return out


def killed(tree: Path, m: Mutant | None) -> bool:
    """Whether tier-1 fails on a copy of ``tree`` with ``m`` planted (with
    none if ``m`` is None).  A run that pytest cannot finish, exit code
    other than 0 and 1, is a RuntimeError."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_SKIP)
        if m is not None:
            path = copy / m.path
            path.write_text(path.read_text(encoding="utf-8").replace(
                m.old, m.new), encoding="utf-8")
        path_var = os.pathsep.join(filter(None, (
            str(copy / "src"), os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=path_var)
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"tier-1 exited {proc.returncode} on "
                           f"{m.name if m else 'the unmutated tree'}")
    return proc.returncode == 1


def main() -> int:
    stale = stale_rows(ROOT)
    for line in stale:
        print(f"stale: {line}")
    if stale:
        print(f"{len(MUTANTS)} rows, {len(stale)} stale")
        return 2
    start, counts, escaped = time.perf_counter(), {}, []
    if killed(ROOT, None):
        print("tier-1 fails on the unmutated tree, so no row can be judged")
        return 2
    for m in MUTANTS:
        t0 = time.perf_counter()
        outcome = "killed" if killed(ROOT, m) else "survived"
        if outcome == "survived" and m.survives is None:
            escaped.append(m.name)
            note = "meant to be killed"
        elif outcome == "killed" and m.survives is not None:
            note = "listed as surviving: strike its reason"
        else:
            note = m.survives or ""
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{m.name}: {outcome} in {time.perf_counter() - t0:.1f} s"
              + (f" ({note})" if note else ""), flush=True)
    print(f"{sum(counts.values())} mutants: {counts.get('killed', 0)} killed, "
          f"{counts.get('survived', 0)} survived, {len(escaped)} of them "
          f"meant to be killed; {time.perf_counter() - start:.0f} s")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
