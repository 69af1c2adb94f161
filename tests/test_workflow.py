"""The CI workflow and the benchmark's tracer name only what is there.

``.github/workflows/tier1.yml`` runs tier-1 and the benchmark's checks.  A
file, perfbench workload or ``cgtsim`` subcommand that one of its steps
names but that is gone would fail only the workflow, which tier-1 does not
run; here it fails tier-1.  So does a ``cgtsim`` function that a traced
benchmark run wraps (``perfbench/run.py``'s SPANS and COUNTED) but that is
gone from the module it is wrapped in.
"""

import argparse
import importlib.util
import re
import sys
from pathlib import Path

import pytest
import yaml

from cgtsim import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# a relative path with a directory and an extension, such as
# tests/test_graph.py; $RUNNER_TEMP/... is not one
_FILE = re.compile(r"(?<![\w$./-])((?:[\w.-]+/)+[\w-]+\.\w+)")
# a workload given to --workload, or the items of a shell loop over them
_WORKLOAD_ARG = re.compile(r"--workload[ =]\"?([\w-]+)")
_WORKLOAD_LOOP = re.compile(r"\bfor workload in ([^;\n]+)")
_SUBCOMMAND = re.compile(r"\bcgtsim\s+([a-z][\w-]*)")


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_module("workloads").WORKLOADS
SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
STEPS = [step for job in yaml.safe_load(
             WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
         for step in job["steps"] if "run" in step]


def _workloads(script: str) -> list:
    named = _WORKLOAD_ARG.findall(script)
    for items in _WORKLOAD_LOOP.findall(script):
        named += items.split()
    return named


def test_patterns_find_what_a_step_names():
    script = ('for workload in paper-n20 quad-n100; do\n'
              '  python perfbench/run.py --workload "$workload"\n'
              'done\n'
              'python perfbench/run.py --workload sparse-n1000\n'
              'cgtsim bounds "$RUNNER_TEMP/cfg.json" > /dev/null\n'
              'cgtsim "$cmd" tests/data/x.json\n')
    assert _FILE.findall(script) == ["perfbench/run.py", "perfbench/run.py",
                                     "tests/data/x.json"]
    assert sorted(_workloads(script)) == ["paper-n20", "quad-n100",
                                          "sparse-n1000"]
    assert _SUBCOMMAND.findall(script) == ["bounds"]


def test_the_workflow_checks_every_workload():
    scripts = "\n".join(step["run"] for step in STEPS)
    assert _FILE.findall(scripts)
    assert set(_workloads(scripts)) == set(WORKLOADS)


@pytest.mark.parametrize("step", STEPS, ids=[step["name"] for step in STEPS])
def test_step_names_only_what_is_there(step):
    script = step["run"]
    for rel in _FILE.findall(script):
        assert (ROOT / rel).is_file(), f"no file {rel}"
    for workload in _workloads(script):
        assert workload in WORKLOADS, f"no perfbench workload {workload!r}"
    for command in _SUBCOMMAND.findall(script):
        assert command in SUBCOMMANDS, f"no cgtsim subcommand {command!r}"


def test_traced_benchmark_wraps_only_what_is_there(monkeypatch):
    # run.py imports no cgtsim when loaded (it does so in main), so each
    # name resolves in the package under test; loading it puts perfbench/
    # on sys.path, which the monkeypatch undoes
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = _perfbench_module("run")
    wrapped = [(owner, attr) for owner, attr, *_ in bench.SPANS]
    wrapped += bench.COUNTED
    assert len(wrapped) > len(bench.COUNTED)
    for owner, attr in wrapped:
        module = importlib.import_module(f"cgtsim.{owner}")
        assert callable(getattr(module, attr, None)), (
            f"cgtsim.{owner}.{attr} is gone; a traced run would report its "
            "layer as missing")
