"""The CI workflows and the benchmark's tracer name only what is there.

Every workflow under ``.github/workflows/`` is checked: ``tier1.yml`` runs
tier-1 and the benchmark's checks, ``mutants.yml`` the mutation harness.  A
file, perfbench workload or ``cgtsim`` subcommand that one of their steps
names, or a file that a path filter names, but that is gone would fail only
the workflow, which tier-1 does not run; here it fails tier-1.  So does a
file that a row of ``tools/mutants.py`` edits but that no mutants workflow's
path filter names, and a ``cgtsim`` function that a traced benchmark run
wraps (``perfbench/run.py``'s SPANS and COUNTED) but that is gone from the
module it is wrapped in.
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
WORKFLOWS = {path.name: yaml.safe_load(path.read_text(encoding="utf-8"))
             for path in sorted(ROOT.glob(".github/workflows/*.y*ml"))}

# a relative path with a directory and an extension, such as
# tests/test_graph.py; $RUNNER_TEMP/... is not one
_FILE = re.compile(r"(?<![\w$./-])((?:[\w.-]+/)+[\w-]+\.\w+)")
# a workload given to --workload, or the items of a shell loop over them
_WORKLOAD_ARG = re.compile(r"--workload[ =]\"?([\w-]+)")
_WORKLOAD_LOOP = re.compile(r"\bfor workload in ([^;\n]+)")
_SUBCOMMAND = re.compile(r"\bcgtsim\s+([a-z][\w-]*)")


def _module(rel):
    """The Python file at ``rel`` in the repository, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        rel.replace("/", "_").removesuffix(".py"), ROOT / rel)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _module("perfbench/workloads.py").WORKLOADS
SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
STEPS = {f"{name}: {step['name']}": step
         for name, doc in WORKFLOWS.items() for job in doc["jobs"].values()
         for step in job["steps"] if "run" in step}


def _path_filters(doc) -> dict:
    """Each event of a workflow with the paths that filter it."""
    events = doc.get("on", doc.get(True))  # YAML 1.1 reads on: as True
    return {event: spec["paths"] for event, spec in events.items()
            if isinstance(spec, dict) and "paths" in spec}


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
    assert {"tier1.yml", "mutants.yml"} <= set(WORKFLOWS)
    scripts = "\n".join(step["run"] for step in STEPS.values())
    assert _FILE.findall(scripts)
    assert set(_workloads(scripts)) == set(WORKLOADS)


@pytest.mark.parametrize("step", STEPS)
def test_step_names_only_what_is_there(step):
    script = STEPS[step]["run"]
    for rel in _FILE.findall(script):
        assert (ROOT / rel).is_file(), f"no file {rel}"
    for workload in _workloads(script):
        assert workload in WORKLOADS, f"no perfbench workload {workload!r}"
    for command in _SUBCOMMAND.findall(script):
        assert command in SUBCOMMANDS, f"no cgtsim subcommand {command!r}"


@pytest.mark.parametrize("name", WORKFLOWS)
def test_path_filters_name_only_what_is_there(name):
    for event, paths in _path_filters(WORKFLOWS[name]).items():
        for pattern in paths:
            assert any(ROOT.glob(pattern)), (
                f"{name} {event}: no file matches {pattern}")


def test_the_mutation_harness_runs_when_a_file_it_edits_changes():
    rows = _module("tools/mutants.py").MUTANTS
    edited = {m.path for m in rows} | {"tools/mutants.py"}
    runners = [name for name, doc in WORKFLOWS.items()
               if any("python tools/mutants.py" in step.get("run", "")
                      for job in doc["jobs"].values()
                      for step in job["steps"])]
    assert runners, "no workflow runs tools/mutants.py"
    for name in runners:
        filters = _path_filters(WORKFLOWS[name])
        assert set(filters) == {"push", "pull_request"}, name
        for event, paths in filters.items():
            assert edited <= set(paths), (name, event,
                                          sorted(edited - set(paths)))


def test_traced_benchmark_wraps_only_what_is_there(monkeypatch):
    # run.py imports no cgtsim when loaded (it does so in main), so each
    # name resolves in the package under test; loading it puts perfbench/
    # on sys.path, which the monkeypatch undoes
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = _module("perfbench/run.py")
    wrapped = [(owner, attr) for owner, attr, *_ in bench.SPANS]
    wrapped += bench.COUNTED
    assert len(wrapped) > len(bench.COUNTED)
    for owner, attr in wrapped:
        module = importlib.import_module(f"cgtsim.{owner}")
        assert callable(getattr(module, attr, None)), (
            f"cgtsim.{owner}.{attr} is gone; a traced run would report its "
            "layer as missing")
