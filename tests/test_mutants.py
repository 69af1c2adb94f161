"""tools/mutants.py: every row of its table can still be planted.

Running the mutants takes minutes, a full tier-1 run for each survivor; so
tier-1 checks only that each row's old text occurs exactly once in its file
and differs from its new text, which a change to the source can break.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_no_row_is_stale():
    assert mutants.stale_rows(ROOT) == []


def test_a_stale_row_is_named(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("a = 1\na = 1\nb = 2\n")
    rows = [mutants.Mutant("twice", "src/m.py", "a = 1", "a = 2"),
            mutants.Mutant("once", "src/m.py", "b = 2", "b = 3"),
            mutants.Mutant("same", "src/m.py", "b = 2", "b = 2"),
            mutants.Mutant("gone", "src/n.py", "b = 2", "b = 3")]
    saved, mutants.MUTANTS = mutants.MUTANTS, rows
    try:
        assert mutants.stale_rows(tmp_path) == [
            "twice: its old text occurs 2 times in src/m.py",
            "same: its new text is its old text",
            "gone: src/n.py is not there"]
    finally:
        mutants.MUTANTS = saved
