"""densecap benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick              # every workload, reduced size
    python3 perfbench/run.py --self-test          # names match BENCHMARK.json

Run from anywhere; the program under test is src/densecap in the
directory that holds this one.  All inputs are generated from --seed.
Load is a closed loop: one command or library call at a time.  Within
--seconds the benchmark alternates two passes over the workload's
operations: with --trace 0 a pass in fresh processes (wall_s, peak RSS)
and a pass in this warm process (compute_s); with --trace 1 an untraced
and a traced warm pass.  Each time is the sum over operations of the
operation's median.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_FIRST = 3  # set-up samples before the timed passes; one more follows each pass pair

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "compute_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "err_max": "bits",
}
PER_LAYER = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "qstate.validate.calls": "count",
    "qstate.validate.s": "s",
    "qstate.entropy.calls": "count",
    "qstate.entropy.s": "s",
    "qstate.partial_trace.calls": "count",
    "qstate.partial_trace.s": "s",
    "qstate.gamma.s": "s",
    "linalg.eig.calls": "count",
    "linalg.eig.s": "s",
    "linalg.svd.calls": "count",
    "linalg.eig.per_sweep_point": "calls/point",
    "linalg.eig.per_iter": "calls/iter",
    "encodings.build.calls": "count",
    "encodings.build.s": "s",
    "sampling.s": "s",
    "capacity.closed_form.calls": "count",
    "capacity.closed_form.s": "s",
    "capacity.optimize_prior.calls": "count",
    "capacity.optimize_prior.s": "s",
    "capacity.optimize_prior.iters": "count",
    "capacity.optimize_prior.s_per_iter": "s",
    "capacity.relative_entropy.calls": "count",
    "capacity.relative_entropy.s": "s",
    "capacity.converged_frac": "fraction",
    "entanglement.convex_roof.calls": "count",
    "entanglement.convex_roof.s": "s",
    "entanglement.convex_roof.s_per_restart": "s",
    "entanglement.converged_frac": "fraction",
    "entanglement.oracle.s": "s",
    "protosim.run.calls": "count",
    "protosim.run.s": "s",
    "protosim.trials_per_s": "1/s",
    "protosim.peak_alloc_mb": "MB",
    "trace.overhead_s": "s",
    "err_raw": "bits",
}


class Harness:
    """Runs one workload's operations and keeps every observation."""

    def __init__(self, workload, env: dict, work: str) -> None:
        self.ops = workload.ops
        self.err_floor = workload.err_floor
        self.env = env
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.err = 0.0
        self.peak_rss_mb = 0.0
        self.first_stdout: dict[str, str] = {}
        self.launcher = None

    def _record(self, op, rc: int, out: str, how: str) -> None:
        self.attempted += 1
        ok = rc == 0
        try:
            reported, err = op.check(out)
            ok = ok and reported is True
            self.err = max(self.err, err)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            ok = False
            self.problems.append(f"{op.name} ({how}, exit {rc}): {type(exc).__name__}: {exc}")
        first = self.first_stdout.setdefault(op.name, out)
        if out != first:
            self.problems.append(f"{op.name} ({how}): stdout differs from its first run")
        self.failed += not ok

    def fresh(self, op) -> float:
        if op.library:
            argv = [sys.executable, str(HERE / "prior_opt.py"), *op.argv]
        else:
            argv = [sys.executable, "-m", "densecap.cli", *op.argv]
        if self.launcher is None:
            self.launcher = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
                                             stdout=subprocess.PIPE, text=True, cwd=ROOT)
        out_path = os.path.join(self.work, "stdout")
        request = {"argv": argv, "env": self.env, "cwd": str(ROOT), "stdout": out_path}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        with open(out_path) as fh:
            out = fh.read()
        self.peak_rss_mb = max(self.peak_rss_mb, reply["maxrss_kb"] / 1024.0)
        self._record(op, reply["returncode"], out, "fresh process")
        return reply["elapsed"]

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.stdout.close()
            self.launcher.wait()
            self.launcher = None

    def warm(self, op) -> float:
        if op.library:
            import prior_opt

            main = prior_opt.main
        else:
            main = sys.modules["densecap.cli"].main
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation
            rc = 1
            self.problems.append(f"{op.name} (warm): raised {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        self._record(op, rc, buf.getvalue(), "warm process")
        return elapsed


def _median_sum(times: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in times.values())


def _alternate(seconds: float, *steps) -> None:
    """Run rounds of `steps` until the longest round so far would no
    longer fit in `seconds`; always at least one round."""
    start = perf_counter()
    longest = 0.0
    while True:
        round_start = perf_counter()
        for step in steps:
            step()
        longest = max(longest, perf_counter() - round_start)
        if perf_counter() - start + longest > seconds:
            return


def setup_sample(env: dict) -> float:
    """Seconds from a fresh interpreter's start of import densecap.cli to its return."""
    code = "import time; t = time.perf_counter(); import densecap.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, check=True)
    return float(out.stdout)


def _layer_metrics(passes: list[dict], points: int, overhead: float, err: float) -> dict:
    first = passes[0]

    def median(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {name: first.get(name, 0.0) for name in PER_LAYER if name.endswith((".calls", ".iters"))}
    values.update({name: median(name) for name in PER_LAYER if name.endswith((".s", "self_s"))})
    values["linalg.eig.per_sweep_point"] = ratio(first.get("sweep.eig", 0.0), points)
    values["linalg.eig.per_iter"] = ratio(first.get("linalg.eig.in_optimizer", 0.0),
                                          first.get("capacity.optimize_prior.iters", 0.0))
    values["capacity.optimize_prior.s_per_iter"] = ratio(median("capacity.optimize_prior.s"),
                                                         first.get("capacity.optimize_prior.iters", 0.0))
    values["capacity.converged_frac"] = ratio(first.get("capacity.optimize_prior.converged", 0.0),
                                              first.get("capacity.optimize_prior.calls", 0.0))
    values["entanglement.convex_roof.s_per_restart"] = ratio(median("entanglement.convex_roof.s"),
                                                             first.get("entanglement.convex_roof.restarts", 0.0))
    values["entanglement.converged_frac"] = ratio(first.get("entanglement.convex_roof.converged", 0.0),
                                                  first.get("entanglement.convex_roof.calls", 0.0))
    values["protosim.trials_per_s"] = ratio(first.get("protosim.run.trials", 0.0), median("protosim.run.s"))
    values["protosim.peak_alloc_mb"] = max(p.get("protosim.run.peak_bytes", 0.0) for p in passes) / 2**20
    values["trace.overhead_s"] = overhead
    values["err_raw"] = err
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> tuple[dict, dict]:
    """Returns (result JSON, details) for one workload."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    workload = WORKLOADS[name](np.random.default_rng(seed), work, quick)
    harness = Harness(workload, env, work)
    try:
        # let lazy imports and first-call set-up finish before timing
        warm_dir = os.path.join(work, "warm-up")
        os.mkdir(warm_dir)
        warm_up = Harness(WORKLOADS[name](np.random.default_rng(seed), warm_dir, True), env, warm_dir)
        for op in warm_up.ops:
            warm_up.warm(op)

        first, second = ("untraced", "traced") if trace else ("fresh", "warm")
        times = {key: {op.name: [] for op in workload.ops} for key in (first, second)}
        setup: list[float] = []
        layer_passes: list[dict] = []

        def plain(key: str, run):
            def one_pass():
                for op in workload.ops:
                    times[key][op.name].append(run(op))

            return one_pass

        def traced_pass():
            tracer = spans.Tracer()
            summary: dict[str, float] = {}
            tracer.install()
            try:
                for op in workload.ops:
                    times["traced"][op.name].append(harness.warm(op))
                    for key, value in spans.summarize(tracer.take()).items():
                        summary[key] = summary.get(key, 0.0) + value
                        if key == "linalg.eig.calls" and "points" in op.units:
                            summary["sweep.eig"] = summary.get("sweep.eig", 0.0) + value
            finally:
                tracer.uninstall()
            layer_passes.append(summary)

        if trace:
            _alternate(seconds, plain("untraced", harness.warm), traced_pass)
        else:
            setup.extend(setup_sample(env) for _ in range(SETUP_FIRST))
            _alternate(seconds, plain("fresh", harness.fresh), plain("warm", harness.warm),
                       lambda: setup.append(setup_sample(env)))
    finally:
        harness.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    if trace:
        exact = [{k: v for k, v in p.items() if not k.endswith((".s", "self_s", "peak_bytes"))} for p in layer_passes]
        if any(e != exact[0] for e in exact[1:]):
            harness.problems.append("exact per-layer counts differ between traced passes")
        points = sum(op.units.get("points", 0) for op in workload.ops)
        overhead = _median_sum(times["traced"]) - _median_sum(times["untraced"])
        values = _layer_metrics(layer_passes, points, overhead, harness.err)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": _median_sum(times["fresh"]),
            "compute_s": _median_sum(times["warm"]),
            "peak_rss_mb": harness.peak_rss_mb,
            "ok_frac": (harness.attempted - harness.failed) / harness.attempted,
            "err_max": max(harness.err, harness.err_floor),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {
        "correct": not harness.problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "passes": len(next(iter(times[first].values()))),
        "setup_s": [round(t, 4) for t in setup],
        "op_s": {k: {n: [round(x, 4) for x in v] for n, v in t.items() if v} for k, t in times.items()},
        "err_raw": harness.err,
        "problems": harness.problems,
    }
    return result, details


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def facts() -> dict:
    """Machine and build facts recorded with every result (not gated)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DENSECAP_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_settings": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def self_test() -> int:
    """Run every workload in quick mode, traced and untraced, and check the
    result schema against BENCHMARK.json.  Timings are never gated."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"workloads {[w['name'] for w in spec['workloads']]} != {list(WORKLOADS)}")
    for trace, key, table in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            problems.append(f"{key} in BENCHMARK.json differs from the metrics the benchmark prints")
        for name in WORKLOADS:
            result, details = run_workload(name, 0, 0.0, bool(trace), quick=True)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if {k: v["unit"] for k, v in result["metrics"].items()} != declared:
                problems.append(f"{name} --trace {trace}: metric names or units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} --trace {trace}: {details['problems']}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} --trace {trace}: a metric is not finite")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, one pass")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "densecap" / "__init__.py").is_file():
        print(f"error: no densecap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import densecap.cli

    if not Path(densecap.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported densecap from {densecap.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()

    seconds = 0.0 if args.quick else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"facts": facts()}), flush=True)
    results = {}
    for name in names:
        result, details = run_workload(name, args.seed, seconds, bool(args.trace), args.quick)
        print(json.dumps({"details": details}), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
