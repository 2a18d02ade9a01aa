"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted output is counted as a failed op, that the seed alone
decides the inputs, and that the benchmark refuses to run without the
program's sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.prepare()
import workloads  # noqa: E402  (needs the path set up by run.prepare)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "verify-all": lambda seed: workloads.VerifyAll(seed, suite="tube-balance",
                                                    expected_checks=20),
    "mesh-roundtrip": lambda seed: workloads.MeshRoundtrip(seed, target_vertices=2000),
    "param-study": lambda seed: workloads.ParamStudy(seed, steps=50, gauss_res=128),
}


def _corrupt(out: dict) -> None:
    """Damage the last file the op's CLI wrote, the way a wrong answer would."""
    path = out["cli_files"][-1]
    if path.suffix == ".csv":
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        return
    data = json.loads(path.read_text())
    if "reports" in data:
        data["reports"][0]["passed"] = False
    else:
        data["total_defect"] += 1.0
        data["interior_defect_density"] = data.get("interior_defect_density", 0.0) * 2 + 1
        for crease in data["creases"].values():
            crease["rate"] += 1.0
        for key in data.get("closed_forms", {}):
            data["closed_forms"][key] += 1.0
    path.write_text(json.dumps(data))


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def test_units_match_benchmark_json() -> None:
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    check(declared == run.END_TO_END, f"end_to_end {declared} != run.py {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    check(declared == run.PER_LAYER, "per_layer in BENCHMARK.json differs from run.py")
    check([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS),
          "workload names differ")


def test_metrics_emitted(work: Path) -> None:
    for name, make in TINY.items():
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            workload = make(1)
            if trace:
                metrics, runner, notes = run.measure_traced(workload, 0.3, work)
                check(not notes["not_traced"], f"names not traced: {notes['not_traced']}")
            else:
                metrics, runner, _ = run.measure(workload, 0.3, work)
                metrics["setup_s"] = 0.1  # measured by the subprocess run below
            line = json.loads(run.result_line(metrics, units, runner))
            check(runner.failed == 0, f"{name} trace={trace}: {runner.failed} ops failed")
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(line)}")
            check({k: v["unit"] for k, v in line["metrics"].items()} == units,
                  f"{name} trace={trace}: metrics or units differ")
    traced_suite = "verify.tube-balance.s"
    workload = TINY["verify-all"](1)
    metrics, _, _ = run.measure_traced(workload, 0.3, work)
    check(metrics[traced_suite] > 0, f"{traced_suite} was not traced")
    check(metrics["creases.calls"] > 0, "creases calls were not traced")


def test_corruption_counted(work: Path) -> None:
    for name, make in TINY.items():
        workload = make(1)
        honest = workload.run_op

        def corrupted(spec, work_dir, honest=honest):
            out = honest(spec, work_dir)
            _corrupt(out)
            return out

        workload.run_op = corrupted
        _, runner, _ = run.measure(workload, 0.3, work)
        check(runner.attempted >= 2 and runner.failed == runner.attempted,
              f"{name}: {runner.failed} of {runner.attempted} corrupted ops counted")
        check(not json.loads(run.result_line(
            {k: 1.0 for k in run.END_TO_END}, run.END_TO_END, runner))["correct"],
            f"{name}: corrupted run reported correct")


def test_seeds_decide_inputs() -> None:
    for name in ("mesh-roundtrip", "param-study"):
        make = workloads.WORKLOADS[name]
        check(make(1).specs == make(1).specs, f"{name}: one seed gave two input lists")
        check(make(1).specs != make(2).specs, f"{name}: two seeds gave one input list")


def test_command_line(work: Path) -> None:
    argv = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload",
            "param-study", "--seed", "3", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(line["correct"] and line["failed"] == 0, f"run.py result {line}")
    check({k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END,
          "run.py end-to-end metrics differ")
    check(all(v["value"] > 0 for v in line["metrics"].values()), "a metric reads 0")
    # without src/ the benchmark must refuse to run and print no result
    bare = work / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(argv[:1] + ["bench/run.py"] + argv[2:], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"run.py without sources exited {proc.returncode}, printed {proc.stdout!r}")


def main() -> int:
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        test_units_match_benchmark_json()
        test_seeds_decide_inputs()
        ops = work / "ops"
        ops.mkdir()
        test_metrics_emitted(ops)
        test_corruption_counted(ops)
        test_command_line(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
