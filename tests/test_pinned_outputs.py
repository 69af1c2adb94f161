"""tools/pinned_outputs.py: its comparison of two trees' outputs.

Writing the outputs runs every pinned workload, which takes about half a
minute a tree; only the comparison is tested here, on small directories.
"""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "pinned_outputs", ROOT / "tools" / "pinned_outputs.py")
pinned_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pinned_outputs)


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_comparison_names_exactly_the_file_that_differs(tmp_path):
    files = {"run_a_0/s__dgt_exact.csv": "k,bits\n0,0\n",
             "run_a_0/s__report.json": "{}\n", "bounds_a_0.json": "{}\n"}
    old = _tree(tmp_path / "old", files)
    new = _tree(tmp_path / "new", dict(files, **{
        "run_a_0/s__dgt_exact.csv": "k,bits\n0,1\n"}))
    assert pinned_outputs.differing_files(old, old) == []
    assert pinned_outputs.differing_files(old, new) == [
        "differs: run_a_0/s__dgt_exact.csv"]
    (new / "bounds_a_0.json").unlink()
    (new / "extra.json").write_text("{}\n")
    assert pinned_outputs.differing_files(old, new) == [
        "only in old: bounds_a_0.json", "only in new: extra.json",
        "differs: run_a_0/s__dgt_exact.csv"]


def test_comparison_names_the_stdout_lines_that_differ():
    old = "$ cgtsim run a\n  dgt_exact ok k=5\nexit 0\n"
    new = "$ cgtsim run a\n  dgt_exact ok k=6\nexit 0\n"
    assert pinned_outputs.differing_lines(old, old) == []
    assert pinned_outputs.differing_lines(old, new) == [
        "-  dgt_exact ok k=5", "+  dgt_exact ok k=6"]


def test_exit_code_says_whether_anything_differs(tmp_path, monkeypatch,
                                                capsys):
    # each tree "writes" one file holding its directory's name
    def written(tree, out):
        _tree(out, {"a.json": tree.name})
        return subprocess.CompletedProcess([], 0, stdout="exit 0\n")

    monkeypatch.setattr(pinned_outputs, "_run_tree", written)
    for name in ("one", "two"):
        (tmp_path / name / "src" / "cgtsim").mkdir(parents=True)
    one, two = str(tmp_path / "one"), str(tmp_path / "two")
    assert pinned_outputs.main([one, one]) == 0
    assert pinned_outputs.main([one, two]) == 1
    assert "differs: a.json" in capsys.readouterr().out
    assert pinned_outputs.main([one, str(tmp_path)]) == 2
