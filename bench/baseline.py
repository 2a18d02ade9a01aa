"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 10 --out bench/BASELINE.json

For each workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed with tracing off, then once with tracing on (the first seed).  For every
end-to-end metric it prints the median and the spread, which is the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median, next to a third of the metric's
bound.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One run.py process: (result line, env line, notes line)."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    env = next(json.loads(line[6:]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env, json.loads(lines[-2][2:])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, from --first-seed on")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    steady = True
    for name in names:
        results = []
        for seed in seeds:
            result, env, _ = run_once(name, seed, spec["run_seconds"], 0)
            results.append(result)
            summary["env"] = env
        entry: dict = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"{name:15s} {metric:15s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f})"
                  f"{'' if ok else '  WIDE'}", flush=True)
        traced, _, entry["traced_notes"] = run_once(name, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {metric: {"value": m["value"], "unit": m["unit"]}
                              for metric, m in traced["metrics"].items()}
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        print(f"{name:15s} failed ops {entry['failed']} of {entry['attempted']}", flush=True)
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
