"""Compare the pinned outputs of two source trees, file by file.

    python tools/pinned_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  For each one, a subprocess at
one BLAS thread, with that tree's ``src`` first on the path, writes the
pinned outputs into a temporary directory:

* every file of ``cgtsim run --gnuplot`` on each workload config of the
  tree's own ``perfbench/workloads.py`` at seeds 0 and 7, and the output of
  ``cgtsim bounds`` on each of those configs;
* every file of ``cgtsim replicate-section5 --mode both --gnuplot``.

With the three workloads of this repository that is 94 files.  The configs
are read from each tree as they are, so a tree is compared on what its own
benchmark runs.  Paths on stdout are relative, so the two trees' stdout
compare line by line.  The script prints each file whose SHA-256 differs or
that only one tree wrote, and each stdout line that differs; it exits 0 when
nothing differs, 1 when something does and 2 when a tree cannot be run.
Reruns are byte-identical only at one BLAS thread count (README
"Conventions"), hence the one thread.
"""

from __future__ import annotations

import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

SEEDS = (0, 7)


def write_outputs(tree: Path, out: Path) -> None:
    """Write the pinned outputs of ``tree`` under ``out``, the working
    directory, and print each command's stdout after a line naming it."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import cgtsim
    from cgtsim import cli, harness
    from workloads import WORKLOADS, make_config

    if Path(cgtsim.__file__).resolve().parent != (tree / "src" / "cgtsim"
                                                  ).resolve():
        raise ImportError(f"cgtsim resolved to {cgtsim.__file__}, not "
                          f"{tree / 'src'}")
    os.chdir(out)

    def main(*argv, to=None):
        """cli.main(argv), its stdout written to the file ``to`` if given."""
        print("$ cgtsim " + " ".join(argv))
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(list(argv))
        if to is None:
            print(buf.getvalue(), end="")
        else:
            Path(to).write_text(buf.getvalue(), encoding="utf-8")
        print(f"exit {rc}")

    for workload in WORKLOADS:
        for seed in SEEDS:
            name = f"{workload}_{seed}"
            cfg = Path(f"{name}.config.json")
            cfg.write_text(json.dumps(make_config(workload, seed, harness)),
                           encoding="utf-8")
            main("run", str(cfg), "--out", f"run_{name}", "--gnuplot")
            main("bounds", str(cfg), to=f"bounds_{name}.json")
            cfg.unlink()
    main("replicate-section5", "--mode", "both", "--gnuplot", "--out",
         "replicate")


def digests(root: Path) -> dict:
    """SHA-256 of every file under ``root``, by its relative path."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def differing_files(old: Path, new: Path) -> list:
    """One line per file under ``old`` or ``new`` that is not under both
    with the same SHA-256."""
    a, b = digests(old), digests(new)
    out = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            out.append(f"only in old: {name}")
        elif name not in a:
            out.append(f"only in new: {name}")
        elif a[name] != b[name]:
            out.append(f"differs: {name}")
    return out


def differing_lines(old: str, new: str) -> list:
    """The lines of ``old`` and ``new`` that are not in both, as a diff:
    ``-`` for old's, ``+`` for new's."""
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(),
                                lineterm="", n=0)
    return [line for line in diff
            if line[:1] in "+-" and line[:3] not in ("+++", "---")]


def _run_tree(tree: Path, out: Path) -> subprocess.CompletedProcess:
    """``write_outputs`` for ``tree`` in its own process, its stdout
    captured and its stderr passed through."""
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--write", str(tree),
         str(out)], env=env, cwd=out, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--write":
        write_outputs(Path(argv[1]).resolve(), Path(argv[2]).resolve())
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    for tree in (old, new):
        if not (tree / "src" / "cgtsim").is_dir():
            print(f"{tree}: no src/cgtsim", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        stdout = []
        for tree, side in ((old, "old"), (new, "new")):
            proc = _run_tree(tree, Path(tmp) / side)
            if proc.returncode != 0:
                print(f"{tree}: writing its outputs failed (exit "
                      f"{proc.returncode})", file=sys.stderr)
                return 2
            stdout.append(proc.stdout)
        files = differing_files(Path(tmp) / "old", Path(tmp) / "new")
        count = len(digests(Path(tmp) / "new"))
    lines = differing_lines(*stdout)
    for line in files + lines:
        print(line)
    print(f"{count} files written by new; {len(files)} differ; "
          f"{len(lines)} stdout lines differ")
    return 1 if files or lines else 0


if __name__ == "__main__":
    sys.exit(main())
