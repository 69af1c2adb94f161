"""Layer benchmark for cgtsim.

Runs one workload in this process through the user's path,
``cli.main(["run", <generated config>, "--out", <dir>])``, repeatedly for
``--seconds`` seconds, checks every cell's output, and prints each metric
by name with its unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload paper-n20 --seed 0 --seconds 36 --trace 0

``--workload all`` runs every workload with and without tracing, each in a
process of its own, and prints all their output.

``--trace 0`` measures the end-to-end metrics with no instrumentation but a
timer around the stepper call.  The host's speed drifts, so a probe of fixed
work (``hostspeed.py``) runs before each stepper call and after each repeat,
and each stretch between two probes is divided by their mean slowdown:
``wall_s``, ``setup_s`` and ``agent_steps_per_s`` are given at the reference
host's speed, with the probes' own time left out.  The unscaled medians are
printed too.  ``--trace 1`` alternates plain and traced
repeats; spans wrap the calls ``cli`` and ``harness`` make into the
package's modules and give the per-layer metrics.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, PINNED, UPSILON_ATOL,  # noqa: E402
                       UPSILON_RTOL, WORKLOADS, derive_seeds, make_config)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SHARE = 0.1   # of each repeat's time, spent on extra set-up-only passes
MIN_REPEATS = 3
REPLAY_SECONDS = 0.4

UNITS = {
    "wall_s": "s", "setup_s": "s", "agent_steps_per_s": "agent-iter/s",
    "peak_rss_mb": "MB",
    "graph.generate_network_s": "s", "costs.generate_suite_s": "s",
    "costs.solve_reference_s": "s", "costs.reference_evals": "count",
    "costs.grad_all_us": "us", "costs.mean_eval_us": "us",
    "compressors.self_s": "s",
    "analysis.bounds_s": "s", "analysis.bounds_calls": "count",
    "algorithms.run_s": "s", "algorithms.iters": "count",
    "algorithms.iter_us.alg1": "us", "algorithms.iter_us.alg2": "us",
    "algorithms.iter_us.alg3": "us", "algorithms.iter_us.dgt": "us",
    "harness.write_trace_csv_s": "s", "harness.output_bytes": "bytes",
    "harness.self_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Counts that must repeat exactly between repeats of the same code and seed.
EXACT = ("algorithms.iters", "costs.reference_evals",
         "analysis.bounds_calls", "harness.output_bytes")


def _run_note(args, trace):
    return args[0], len(trace) - 1      # algorithm, iterations completed


STEPPER = ("harness", "run", "algorithms.run", _run_note)
_ANALYSIS = ("bounds_relative", "bounds_error_feedback", "bounds_scaled_local",
             "bounds_absolute_global", "eta_terms_relative",
             "mixing_constants", "ef_weight", "lyapunov_weight")
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "harness.run_experiment"),
    ("harness", "write_trace_csv", "harness.write_trace_csv"),
    ("harness", "generate_network", "graph.generate_network"),
    ("harness", "generate_suite", "costs.generate_suite"),
    ("harness", "solve_reference", "costs.solve_reference"),
    ("costs", "grad_all", "costs.grad_all"),
    ("harness", "spec_from_config", "compressors.spec_from_config"),
    ("harness", "bit_cost", "compressors.bit_cost"),
    ("harness", "initial_point", "algorithms.initial_point"),
    ("harness", "auto_s0", "algorithms.auto_s0"),
    ("harness", "practical_params", "algorithms.practical_params"),
    STEPPER,
] + [("analysis", fn, f"analysis.{fn}") for fn in _ANALYSIS]
COUNTED = [("costs", "mean_value"), ("costs", "mean_grad")]


class SetupReached(Exception):
    """Raised in place of the first stepper call of a set-up-only pass."""


def limit_threads() -> int:
    """Cap native thread pools at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_package():
    src = ROOT / "src"
    if not (src / "cgtsim" / "__init__.py").is_file():
        raise ImportError(f"no cgtsim package under {src}")
    sys.path.insert(0, str(src))
    import cgtsim
    from cgtsim import cli, harness

    if Path(cgtsim.__file__).resolve().parent != (src / "cgtsim").resolve():
        raise ImportError(f"cgtsim resolved to {cgtsim.__file__}, not {src}")
    return cgtsim, cli, harness


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Bench:
    """One workload in this process: its generated config, the output checks
    of every cell, and the failure counts."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.cgtsim, self.cli, self.harness = import_package()
        self.workload, self.seed, self.work = workload, seed, work
        self.doc = make_config(workload, seed, self.harness)
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.doc, indent=2),
                                 encoding="utf-8")
        self.n = int(self.doc["network"]["n"])
        self.labels = [self.harness.CellConfig(**c).resolved_label()
                       for c in self.doc["cells"]]
        self.pinned = PINNED[workload] if seed == DEFAULT_SEED else None
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {}
        self.rows = {}
        self._k = 0

    def _argv(self):
        outdir = self.work / f"out{self._k}"
        self._k += 1
        return ["run", str(self.cfg_path), "--out", str(outdir)], outdir

    def setup_once(self):
        """Time from entry to the first stepper call, stopping there."""
        argv, outdir = self._argv()
        mark = []

        def stop(*args, **kwargs):
            mark.append(perf_counter())
            raise SetupReached

        saved = getattr(self.harness, "run", None)
        if saved is None:   # the tracer reports the missing stepper name
            return None
        self.harness.run = stop
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                self.cli.main(argv)
        except SetupReached:
            pass
        finally:
            self.harness.run = saved
            shutil.rmtree(outdir, ignore_errors=True)
        if not mark:
            self.problems.append("set-up pass never reached the stepper")
            return None
        return mark[0] - t0

    def repeat(self, tracer: Tracer, probe=None, slowdown=1.0) -> dict:
        """One full ``cgtsim run``; checks its cells and measures it.  With a
        host-speed probe, it probes before each stepper call and at the end,
        and also gives its times at the reference speed; ``slowdown`` is the
        last probe's before this repeat."""
        from hostspeed import Pace

        argv, outdir = self._argv()
        tracer.reset()
        stepper = getattr(self.harness, "run", None)
        t0 = perf_counter()
        pace = Pace(probe, t0, slowdown)
        if probe is not None and stepper is not None:
            def paced(*args, **kwargs):
                pace.take()
                return stepper(*args, **kwargs)
            self.harness.run = paced
        try:
            with redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception:  # a program bug fails every cell of this repeat
            traceback.print_exc()
            rc = "traceback"
        finally:
            if stepper is not None:
                self.harness.run = stepper
        t1 = perf_counter()
        last = pace.take()
        self._check(outdir, rc)
        out_bytes = sum(p.stat().st_size for p in outdir.glob("*")) \
            if outdir.is_dir() else 0
        shutil.rmtree(outdir, ignore_errors=True)
        runs = tracer.named("algorithms.run")
        steps = sum(self.n * s[4][1] for s in runs if s[4])
        run_s = sum(pace.seconds(s[1], s[2]) for s in runs)
        raw_run_s = sum(s[2] - s[1] for s in runs)
        return {"wall": pace.seconds(t0, t1), "raw_wall": pace.raw(t0, t1),
                "out_bytes": out_bytes, "slowdown": last,
                "setup": pace.seconds(t0, runs[0][1]) if runs else None,
                "raw_setup": pace.raw(t0, runs[0][1]) if runs else None,
                "steps_per_s": steps / run_s if run_s > 0 else None,
                "raw_steps_per_s":
                    steps / raw_run_s if raw_run_s > 0 else None}

    def _check(self, outdir: Path, rc):
        rows = []
        report = outdir / f"{self.doc['scenario']}__report.json"
        if rc == 0 and report.is_file():
            rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
        by_label = {r["label"]: r for r in rows}
        for label in self.labels:
            self.attempted += 1
            row = by_label.get(label)
            problem = self._cell_problem(outdir, label, row, rc)
            if problem:
                self.failed += 1
                self.problems.append(f"{label}: {problem}")
            else:
                self.rows[label] = row

    def _cell_problem(self, outdir, label, row, rc):
        if rc != 0:
            return f"exit code {rc}"
        if row is None:
            return "no report row"
        if row["status"] != "ok":
            return f"status {row['status']}"
        if self.pinned is not None:
            want = self.pinned.get(label)
            if want is None:
                return "no pinned values for this cell"
            iters, bits, ups = want
            if (row["iters"], row["bits"]) != (iters, bits):
                return (f"iters/bits {row['iters']}/{row['bits']} differ "
                        f"from pinned {iters}/{bits}")
            if abs(row["upsilon_final"] - ups) > max(UPSILON_RTOL * abs(ups),
                                                     UPSILON_ATOL):
                return (f"upsilon_final {row['upsilon_final']!r} differs "
                        f"from pinned {ups!r}")
        csv = outdir / f"{self.doc['scenario']}__{label}.csv"
        if not csv.is_file():
            return "no trace CSV"
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        if self.digests.setdefault(label, digest) != digest:
            return "trace CSV differs from the first repeat in this process"
        return None

    def replays(self) -> dict:
        """Public cost functions replayed at the workload's shape."""
        from cgtsim import algorithms, costs

        cost = self.doc["cost"]
        kwargs = {k: v for k, v in cost.items() if k not in ("kind", "d")}
        suite = costs.generate_suite(cost["kind"], self.n, int(cost["d"]),
                                     int(self.doc["seeds"]["cost"]), **kwargs)
        x = algorithms.initial_point(self.n, suite.d,
                                     int(self.doc["seeds"]["algo"]))
        return {"costs.grad_all_us": replay_us(costs.grad_all, suite, x),
                "costs.mean_eval_us": replay_us(costs.mean_value, suite,
                                                x.mean(axis=0))}

    # -- provenance -----------------------------------------------------

    def working_set_bytes(self) -> int:
        n, d = self.n, int(self.doc["cost"]["d"])
        cost = self.doc["cost"]
        if cost["kind"] == "quadratic_pl":
            r = int(cost.get("rows", d))
            cost_bytes = 8 * (n * r * d + n * r)
        else:
            cost_bytes = 8 * (n * d + 3 * n)
        return 8 * n * n + cost_bytes + 8 * 12 * n * d \
            + 8 * 4 * (int(self.doc["iters"]) + 1)

    def provenance(self, nproc: int) -> dict:
        kernels = getattr(self.cgtsim, "_kernels", None)
        backend = getattr(kernels, "active_backend", None)
        import numpy as np

        return {
            "workload": self.workload, "seed": self.seed,
            "derived_seeds": derive_seeds(self.workload, self.seed),
            "pinned_checks": self.pinned is not None,
            "implementation": {
                "kernels_active_backend": backend() if callable(backend)
                else "unknown (no _kernels.active_backend)",
                "numba_importable":
                    importlib.util.find_spec("numba") is not None,
            },
            "python": platform.python_version(), "numpy": np.__version__,
            "cgtsim": getattr(self.cgtsim, "__version__", None),
            "git_commit": git_commit(ROOT),
            "nproc": nproc,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "working_set_bytes": self.working_set_bytes(),
            "working_set_basis": "computed from array sizes: W, the cost "
                                 "arrays, 12 (n, d) stepper state arrays and "
                                 "4 trace columns; temporaries excluded",
            "llc_bytes": llc_bytes(),
            "llc_source": "sysfs cpu0 cache level 3",
        }


def layer_metrics(tr: Tracer, out_bytes: int):
    """Per-layer metrics of one traced repeat, and span self times."""
    selfs = tr.self_times()
    runs = tr.named("algorithms.run")
    out = {
        "graph.generate_network_s": tr.total("graph.generate_network"),
        "costs.generate_suite_s": tr.total("costs.generate_suite"),
        "costs.solve_reference_s": tr.total("costs.solve_reference"),
        "costs.reference_evals": sum(
            s[6] - s[5] for s in tr.named("costs.solve_reference")),
        "compressors.self_s": sum(
            v for k, v in selfs.items() if k.startswith("compressors.")),
        "analysis.bounds_s": sum(
            s[2] - s[1] for s in tr.top_level("analysis")),
        "analysis.bounds_calls": len(tr.top_level("analysis")),
        "algorithms.run_s": sum(s[2] - s[1] for s in runs),
        "algorithms.iters": sum(s[4][1] for s in runs if s[4]),
        "harness.write_trace_csv_s": tr.total("harness.write_trace_csv"),
        "harness.output_bytes": out_bytes,
        "harness.self_s": selfs.get("harness.run_experiment", 0.0),
        "cli.self_s": selfs.get("cli.main", 0.0),
    }
    for algo in ("alg1", "alg2", "alg3", "dgt"):
        mine = [s for s in runs if s[4] and s[4][0] == algo]
        iters = sum(s[4][1] for s in mine)
        out[f"algorithms.iter_us.{algo}"] = (
            1e6 * sum(s[2] - s[1] for s in mine) / iters if iters else None)
    # A layer with a wrapped name that no longer resolves is missing.
    missing = {name.split(".", 1)[0] for name in tr.missing}
    for key in out:
        if key.split(".", 1)[0] in missing:
            out[key] = None
    return out, selfs


def replay_us(fn, *args) -> float:
    """Median microseconds per call over batches of ~40 ms."""
    calls, t = 1, 0.0
    while t < 0.04:
        calls *= 2
        t0 = perf_counter()
        for _ in range(calls):
            fn(*args)
        t = perf_counter() - t0
    times, end = [], perf_counter() + REPLAY_SECONDS
    while perf_counter() < end or len(times) < 5:
        t0 = perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def git_commit(root: Path):
    """HEAD's commit read from .git files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def llc_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for idx in sorted(base.glob("index*")):
        try:
            if (idx / "level").read_text().strip() != "3":
                continue
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        return int(size[:-1]) * units[size[-1]] if size[-1] in units \
            else int(size)
    return None


def measure(bench: Bench, seconds: float, trace: bool):
    """Repeat the workload until ``seconds`` are spent; returns metrics.
    Repeats stop early enough that the last one ends inside the budget."""
    from hostspeed import Probe   # loads numpy: after limit_threads

    start = perf_counter()
    bench.setup_once()                       # warm-up: imports, first calls
    setups = []
    # Untraced runs probe the host's speed between stretches of each repeat.
    probe = None if trace else Probe(WORKLOADS[bench.workload][2])
    slowdown = probe.slowdown() if probe else 1.0

    plain = Tracer("cgtsim", [STEPPER])
    full = Tracer("cgtsim", SPANS, COUNTED)
    plain_samples, traced, exact, rounds = [], [], {}, []
    while True:
        t0 = perf_counter()
        with plain:
            sample = bench.repeat(plain, probe, slowdown)
        plain_samples.append(sample)
        setups.append(sample["setup"])
        slowdown = sample["slowdown"]
        # Short set-ups get more samples, spread over the run; each is
        # scaled by the mean of the probes on either side of the batch.
        extra, spent = [], 0.0
        while (not trace and sample["setup"] is not None and
               spent + sample["raw_setup"] <= SETUP_SHARE * sample["raw_wall"]):
            t1 = perf_counter()
            extra.append(bench.setup_once())
            spent += perf_counter() - t1
        if extra:
            after = probe.slowdown()
            setups += [s * 2.0 / (slowdown + after) for s in extra
                       if s is not None]
            slowdown = after
        if trace:
            with full:
                sample = bench.repeat(full)
                layers, selfs = layer_metrics(full, sample["out_bytes"])
            traced.append((sample, layers, selfs))
            for key in EXACT:
                exact.setdefault(key, set()).add(layers[key])
        rounds.append(perf_counter() - t0)
        if (len(rounds) >= MIN_REPEATS - trace and
                perf_counter() - start + median(rounds) > seconds):
            break

    metrics = {}
    if not trace:
        metrics = {
            "wall_s": median(s["wall"] for s in plain_samples),
            "setup_s": median(setups),
            "agent_steps_per_s": median(s["steps_per_s"]
                                        for s in plain_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        slow = [s["slowdown"] for s in plain_samples]
        print(f"host slowdown against the reference speed after each repeat: "
              f"median {median(slow):.3f}, range {min(slow):.3f}-"
              f"{max(slow):.3f} over {len(slow)} repeats; unscaled medians: "
              f"wall_s {median(s['raw_wall'] for s in plain_samples):.4f} s, "
              f"setup_s {median(s['raw_setup'] for s in plain_samples):.4f} "
              f"s, agent_steps_per_s "
              f"{median(s['raw_steps_per_s'] for s in plain_samples):.1f}")
        return metrics, [], plain.missing

    for key in traced[0][1]:
        metrics[key] = median(t[1][key] for t in traced)
    for key, seen in exact.items():
        metrics[key] = next(iter(seen))
        if len(seen) != 1:
            bench.problems.append(f"count {key} varies between repeats: "
                                  f"{sorted(seen, key=str)}")
    metrics.update(bench.replays())
    # Each traced repeat runs right after a plain one; pairing them keeps
    # the machine's slow drift in speed out of the ratio.
    metrics["trace.overhead_frac"] = median(
        t[0]["wall"] / p["wall"] for t, p in zip(traced, plain_samples)) - 1.0
    accounting = account(traced, bench)
    return metrics, accounting, list(dict.fromkeys(plain.missing
                                                   + full.missing))


def account(traced, bench: Bench) -> list:
    """Median layer self times plus the unwrapped remainder, per repeat
    checked to sum to the traced wall time."""
    rows = {}
    for sample, _, selfs in traced:
        per_layer = {}
        for name, t in selfs.items():
            if t < -1e-9:
                bench.problems.append(f"negative self time for {name}")
            layer = name.split(".", 1)[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + t
        per_layer["unwrapped"] = sample["wall"] - sum(selfs.values())
        if per_layer["unwrapped"] < -1e-9:
            bench.problems.append("layer self times exceed the wall time")
        for layer, t in per_layer.items():
            rows.setdefault(layer, []).append(t)
    wall = median(s["wall"] for s, _, _ in traced)
    return [(layer, median(ts), median(ts) / wall) for layer, ts in
            sorted(rows.items(), key=lambda kv: -median(kv[1]))]


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one process per run."""
    rc = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {workload} --trace {trace}", flush=True)
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", trace])
            rc = rc or done.returncode
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    nproc = limit_threads()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            bench = Bench(args.workload, args.seed, work)
        except ImportError as exc:
            print(f"perfbench: cannot import the program: {exc}",
                  file=sys.stderr)
            return 2
        metrics, accounting, missing = measure(bench, args.seconds,
                                               bool(args.trace))
        prov = bench.provenance(nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("provenance " + json.dumps(prov, sort_keys=True))
    for label, row in bench.rows.items():
        print(f"cell {label}: iters={row['iters']} bits={row['bits']} "
              f"upsilon_final={row['upsilon_final']!r}")
    for problem in bench.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for layer, t, share in accounting:
        print(f"self time {layer:12s} {t:10.5f} s  {100 * share:6.2f}% of "
              "traced wall")
    if missing:
        print(f"missing layers (reported as null): {', '.join(missing)}")
    print(f"failed_frac = {bench.failed / max(bench.attempted, 1):.4f} ratio "
          f"({bench.failed} of {bench.attempted} cells)")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {UNITS[key]}")
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
