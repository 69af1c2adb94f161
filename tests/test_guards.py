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
    "second-cell-spelling": (
        r'"--force"|single-run|fields\(CellConfig\)',
        ("src",),
        "a document gives its cells only as a cells list, and a cell is "
        "forced only by its own force_params: neither a top-level cell nor a "
        "run flag that forces every cell states a setting a second time"),
    "retired-kernels-module": (
        r"\b_kernels\b|\bkern\.|_np\b",
        ("src",),
        "each decision sits in the module that owns it: a compressor kind's "
        "kernel branch and its counter stream in compressors, each rule's "
        "step function and the block recorder in algorithms, the batched row "
        "helpers in costs; no backend module or numba-era _np name splits "
        "them again"),
    "classes-as-exactness": (
        r"(\b(not|if|elif|while|and|or)\b *|\bbool\( *)[\w.\[\]\"']+"
        r"\.classes\b(?! *[\[(.])|\.classes\b *(and|or|if|else)\b",
        ("src",),
        "Rule.exact says which rule sends exact messages, and Rule.classes "
        "only which compressor classes certify a rule: read as a truth "
        "value, classes would bill, resolve and pick as the report baseline "
        "a compressed rule with no certificate as if it were dgt"),
    "second-graph-representation": (
        r"\.adjacency\b|\b_mix\b",
        ("src",),
        "W is the network: its off-diagonal support is the communication "
        "graph, so no second adjacency matrix states it again, and "
        "Network.mix is the one product with W"),
    "w-product-outside-network": (
        r"\.W\b|np\.matmul\(W",
        ("src/cgtsim/algorithms.py", "src/cgtsim/harness.py"),
        "W is the network and Network.mix its one product: the steppers and "
        "the recorder mix through it and read no W, so a sparse or "
        "circulant product can branch inside mix alone"),
    "region-limits-outside-analysis": (
        r"eta_terms_relative|\.s0 =",
        ("src/cgtsim/harness.py", "src/cgtsim/cli.py"),
        "a certified region owns what it admits and its whole operating "
        "point: ParameterBounds.refusal takes its limits, and the calculator "
        "puts s0 on the region it returns, so no caller re-derives a limit "
        "from the region's constants or writes onto the region"),
    "retired-infeasible-parameters": (
        r"InfeasibleParameters",
        ("src",),
        "a region that cannot be built is an AnalysisError whose message "
        "names its binding constraint; no subclass restates that message"),
    "scipy-in-src": (
        r"\bscipy\b",
        ("src",),
        "importing scipy.sparse adds 21.7 MB of resident memory, more than "
        "the benchmark's peak_rss_mb bound, and Network.mix's neighbour "
        "gather is the sparse product"),
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
