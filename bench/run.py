"""creasegeom benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
line of stdout is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics.  Lines before it, each
starting with ``#``, print every metric by name and unit, the latency tail
and the failed-op fraction, and the run environment.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One client, no extra threads: numpy's OpenBLAS is built with MAX_THREADS=64
# and would otherwise start one thread per core when it is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 15
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_s.p50": "s",
    "peak_rss_mb": "MB",
}

SUITES = ("tube-balance", "crease-law", "mudguard", "gore",
          "twist-independence", "strip-curvature", "mohr")

PER_LAYER = {
    "surfaces.gen.self_s": "s",
    "surfaces.gen.calls": "count",
    "surfaces.gen.vertices": "count",
    "surfaces.gen.peak_traced_mb": "MB",
    "trimesh.validate.self_s": "s",
    "trimesh.validate.calls": "count",
    "trimesh.validate.peak_traced_mb": "MB",
    "trimesh.topology.self_s": "s",
    "trimesh.topology.calls": "count",
    "trimesh.export_obj.self_s": "s",
    "trimesh.export_obj.bytes": "B",
    "trimesh.load_obj.self_s": "s",
    "trimesh.load_obj.bytes": "B",
    "trimesh.load_obj.peak_traced_mb": "MB",
    "oracle.angle_defect.self_s": "s",
    "oracle.angle_defect.triangles": "count",
    "oracle.angle_defect.peak_traced_mb": "MB",
    "oracle.gauss_map.self_s": "s",
    "oracle.gauss_map.cells": "count",
    "oracle.gauss_map.converged_frac": "ratio",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.evaluations": "count",
    "curvature.self_s": "s",
    "curvature.calls": "count",
    "creases.self_s": "s",
    "creases.calls": "count",
    "verify.self_s": "s",
    **{f"verify.{suite}.s": "s" for suite in SUITES},
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def prepare() -> None:
    """Pin thread counts and make `src/` of this checkout importable."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "creasegeom" / "__init__.py").is_file():
        sys.exit(f"error: no creasegeom sources under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import creasegeom

    if Path(creasegeom.__file__).resolve().parent != SRC / "creasegeom":
        sys.exit(f"error: imported creasegeom from {creasegeom.__file__}, not {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    in an exported source tree, which has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    task_dir = Path("/proc/self/task")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_in_process": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: imports and input preparation, then
    'ready'.  Mirrors what main() does before its first op."""
    prepare()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Lower quartile of the wall times from spawning a fresh interpreter to
    its 'ready' line.  Start-up noise only ever adds time, so the lower
    quartile is steadier than the median and, unlike the minimum, is not
    set by one lucky probe.  One unmeasured probe first warms the file cache
    and, where allowed, writes the checkout's .pyc files."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes + 1):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True) as child:
            line = child.stdout.readline().strip()
            ready = perf_counter() - t0
            child.stdout.read()
            child.wait(timeout=120)
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(ready)
    return statistics.quantiles(times[1:], n=4)[0]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops of one workload in a scratch directory and counts failures.

    An op fails when it raises, when a command exits non-zero, or when
    its outputs fail the workload's check.
    """

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0

    def op(self, spec: dict, tracer=None):
        """Run and check one op; return (seconds, outputs, ok)."""
        for path in self.work.iterdir():
            path.unlink()
        self.attempted += 1
        out, problems = None, []
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            out = self.workload.run_op(spec, self.work)
        except Exception as exc:  # a failed op must not stop the run
            problems = [f"raised {exc!r}"]
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if not problems:
            try:
                problems = self.workload.check(spec, out)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"# failed op {spec}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, out, not problems


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def latency_tail(latencies: list[float]):
    """(percentile, value, samples beyond, samples) for the highest
    percentile above the median with at least TAIL_MIN_BEYOND samples
    beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return p, percentile(ordered, p), beyond, n
    return None


def measure(workload, seconds: float, work: Path) -> tuple[dict, Runner, dict]:
    """Untraced closed loop: one warm-up op, then ops until `seconds` pass."""
    runner = Runner(workload, work)
    specs = workload.specs
    runner.op(specs[0])  # warm-up, untimed
    latencies, failed_latencies = [], []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        elapsed, _, ok = runner.op(specs[i % len(specs)])
        i += 1
        (latencies if ok else failed_latencies).append(elapsed)
    wall = perf_counter() - start
    metrics = {
        "ops_per_s": len(latencies) / wall,
        # a run whose every op failed still reports a latency; correct=false
        "latency_s.p50": statistics.median(latencies or failed_latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"timed_ops": i, "wall_s": wall, "tail": latency_tail(latencies)}
    return metrics, runner, notes


def measure_traced(workload, seconds: float, work: Path) -> tuple[dict, Runner, dict]:
    """Traced loop: each input runs untraced, then with layer spans; the
    first `workload.cycle` inputs also run once more under tracemalloc for
    the peak-memory figures.  Per-layer values are means per traced op."""
    from tracing import Tracer

    runner = Runner(workload, work)
    specs = workload.specs
    runner.op(specs[0])  # warm-up, untimed
    timing = Tracer()
    memory = Tracer(memory=True)
    overheads, gaps, plain_s, traced_s, output_bytes = [], [], [], [], 0
    traced = 0
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        spec = specs[i % len(specs)]
        plain, _, ok_plain = runner.op(spec)
        before = sum(timing.self_s.values())
        with_spans, out, ok_traced = runner.op(spec, timing)
        spanned = sum(timing.self_s.values()) - before
        traced += 1
        if out is not None:
            output_bytes += sum(p.stat().st_size for p in out["cli_files"] if p.exists())
        if ok_plain and ok_traced:
            overheads.append(with_spans - plain)
            gaps.append(spanned - plain)
            plain_s.append(plain)
            traced_s.append(with_spans)
        if i < workload.cycle:
            runner.op(spec, memory)
        i += 1

    def per_op(value: float) -> float:
        return value / traced

    m: dict[str, float] = {}
    for layer in ("surfaces.gen", "trimesh.validate", "trimesh.topology",
                  "trimesh.export_obj", "trimesh.load_obj", "oracle.angle_defect",
                  "oracle.gauss_map", "quadrature.integrate", "curvature", "creases",
                  "cli"):
        m[f"{layer}.self_s"] = per_op(timing.self_s.get(layer, 0.0))
        if f"{layer}.calls" in PER_LAYER:
            m[f"{layer}.calls"] = per_op(timing.calls.get(layer, 0))
        if f"{layer}.peak_traced_mb" in PER_LAYER:
            m[f"{layer}.peak_traced_mb"] = memory.peak_mb.get(layer, 0.0)
    for key in ("surfaces.gen.vertices", "trimesh.export_obj.bytes",
                "trimesh.load_obj.bytes", "oracle.angle_defect.triangles",
                "oracle.gauss_map.cells", "quadrature.integrate.evaluations"):
        m[key] = per_op(timing.counts.get(key, 0.0))
    gauss_calls = timing.calls.get("oracle.gauss_map", 0)
    m["oracle.gauss_map.converged_frac"] = (
        timing.counts.get("oracle.gauss_map.converged", 0.0) / gauss_calls
        if gauss_calls else 0.0
    )
    m["verify.self_s"] = per_op(sum(
        s for layer, s in timing.self_s.items()
        if layer == "verify" or layer.startswith("verify.")
    ))
    for suite in SUITES:
        m[f"verify.{suite}.s"] = per_op(timing.inclusive_s.get(f"verify.{suite}", 0.0))
    m["cli.output_bytes"] = per_op(output_bytes)
    m["trace.self_sum_s"] = per_op(sum(timing.self_s.values()))
    m["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    notes = {"traced_ops": traced, "wall_s": perf_counter() - start,
             "not_traced": sorted(timing.missing),
             "untraced_p50_s": statistics.median(plain_s) if plain_s else None,
             "traced_p50_s": statistics.median(traced_s) if traced_s else None,
             # self times of one traced op minus the untraced run of the
             # same input just before it; median over those pairs
             "self_sum_minus_untraced_s": statistics.median(gaps) if gaps else None}
    return m, runner, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "mesh-roundtrip", "param-study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(metrics: dict, units: dict, runner: Runner) -> str:
    return json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    prepare()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.trace:
            metrics, runner, notes = measure_traced(workload, args.seconds, work)
            units = PER_LAYER
        else:
            setup_s = measure_setup(args.workload, args.seed)
            metrics, runner, notes = measure(workload, args.seconds, work)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    tail = notes.pop("tail", None)
    if not args.trace:
        if tail is None:
            print(f"# latency_s.tail: none; {notes['timed_ops']} timed ops leave fewer "
                  f"than {TAIL_MIN_BEYOND} samples beyond p{TAIL_PERCENTILES[-1]:g}")
        else:
            p, value, beyond, n = tail
            print(f"# latency_s.tail = {value:.6g} s (p{p:g}, {beyond} of {n} "
                  "samples beyond)")
        print("# warm-up op excluded from setup_s and from the latencies")
    else:
        gap, overhead = notes["self_sum_minus_untraced_s"], metrics["trace.overhead_s"]
        if gap is not None:
            print(f"# layer self times minus untraced latency = {gap:.6g} s, "
                  f"trace.overhead_s = {overhead:.6g} s: "
                  f"{'within' if abs(gap) <= overhead else 'NOT within'} the overhead")
    print(f"# failed_ops_frac = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops)")
    print("# " + json.dumps(notes))
    print(result_line(metrics, units, runner))
    return 0


if __name__ == "__main__":
    sys.exit(main())
