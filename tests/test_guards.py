"""Retired code must not come back: one table of guards over the source.

Each guard has a name, a pattern, the paths it covers (relative to the
repository root) and why the pattern is banned there.  A path that is not
there fails its guard, so renaming or moving a file cannot switch a guard
off.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# name -> (pattern, paths, why)
GUARDS = {
    "rule-codes": (
        r'\bK_[A-Z_]+|LYAP_|STATUS_|KIND_CODES|kind_code|kernel_params'
        r'|"reserved"',
        ("src",),
        "each update rule is described once (algorithms.RULES); the integer "
        "codes that once spread it over several modules must not come back"),
    "norm-option": (
        r"p_norm|ip_norm|p_norm_constants",
        ("src",),
        "the absolute classes are stated in the inf-norm, where the default "
        "constants hold; a norm knob would let a spec break its own bound"),
    "test-only-run-state": (
        r"record_states|StackedState|final_state|x_hist|y_hist|s_values"
        r"|\bXh\b|\bYh\b",
        ("src",),
        "a run returns only what its callers read: the state history and "
        "final state that only tests read are recorded by "
        "tests/run_recorder.py"),
    "algo-name-branch": (
        r"\balgo\b *(==|!=|in \()",
        ("src",),
        "a rule's defaults and its certified region come from RULES and the "
        "compressor class (harness.cell_region), never from the rule's name"),
    "second-descent-or-seed-variable": (
        r"_descend_one|CGT_SEED",
        ("src",),
        "the reference solve has one descent loop (costs._descend), and "
        "--seed is the one seed override: no environment variable re-seeds "
        "a run"),
    "second-cell-record-or-pass": (
        r"\b(CellResult|ExperimentResult|all_regions|_refuse"
        r"|MESSAGES_PER_AGENT)\b",
        ("src",),
        "harness.resolve resolves each cell in one pass, every region and "
        "refusal included, and a cell's report row is its only record; the "
        "bit ledger counts a rule's messages as len(rule.messages)"),
    "second-run-driver-or-twin-count": (
        r"\brun_rule\b|\.recorded\b",
        ("src",),
        "algorithms.run is the one run driver, over exactly the state its "
        "rule describes: a trace row records X|Y, G and every twin, so no "
        "rule counts the twins it records"),
    "retired-run-settings": (
        r"\blyap_phi\b|\bbits_per_iter\b|\bbits_scalar\b|\blyap_aux\b"
        r"|slack_coefficient",
        ("src",),
        "a run derives its Lyapunov function and weights from its rule, "
        "params, instance and compressor class, and bills no bits (the "
        "harness does); a real is always billed compressors.SCALAR_BITS; and "
        "a certified sidecar's bounds already hold the slack coefficient "
        "(breve_theta8): none of these is a setting or a second copy"),
    "caught-type-error": (
        r"except \(TypeError|except TypeError",
        ("src/cgtsim/harness.py", "src/cgtsim/config.py"),
        "only the package's own errors are config errors: a TypeError caught "
        "while a config is parsed would turn a program bug into exit 2"),
}


def _sources(path: Path) -> list:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


@pytest.mark.parametrize("pattern, paths, why", GUARDS.values(), ids=GUARDS)
def test_guard(pattern, paths, why):
    regex = re.compile(pattern)
    hits = []
    for rel in paths:
        path = ROOT / rel
        assert path.exists(), f"guarded path {rel} is not there ({why})"
        files = _sources(path)
        assert files, f"guarded path {rel} holds no Python source"
        for file in files:
            for n, line in enumerate(
                    file.read_text(encoding="utf-8").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{file.relative_to(ROOT)}:{n}: {line}")
    assert not hits, why + "\n" + "\n".join(hits)
