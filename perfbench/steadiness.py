"""Run each workload once per seed and record its run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workloads build timeline]
        [--out perfbench/baseline.json]

For every end-to-end metric it reports the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound in ``BENCHMARK.json``.
Runs are sequential, one process each, as the benchmark is meant to be
run.  With ``--out`` the table is written as JSON (the committed
baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> "tuple[dict, float]":
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def summarize(values: "list[float]", bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third": spread < bound / 3,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    table = {}
    for workload in args.workloads:
        values: "dict[str, list[float]]" = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(spec, workload, seed)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed: {result}")
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        table[workload] = {
            "run_wall_s": summarize(walls, float("inf")),
            **{name: summarize(v, bounds[name]) for name, v in values.items()},
        }
        print(f"{workload}: wall median {statistics.median(walls):.1f} s")
        for name in bounds:
            row = table[workload][name]
            flag = "" if row["within_third"] else "  <-- above bound/3"
            print(f"  {name:12s} median {row['median']:.6g}  "
                  f"spread {row['spread']:.3f} (bound {row['bound']}){flag}"
                  f"  [{' '.join(f'{v:.4g}' for v in row['values'])}]")
    if args.out:
        record = {
            "seeds": seeds, "run_seconds": spec["run_seconds"],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "workloads": table,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
