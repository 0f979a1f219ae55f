"""Benchmark self-test at toy scale.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that every workload runs in both modes and prints every metric
named in ``BENCHMARK.json`` with its unit; that a corrupted expected
body and a corrupted oracle cell each count as failures and make the
run exit 1; and that a copy holding only ``BENCHMARK.json`` and the
benchmark's own files exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(spec: dict, workload: str, trace: int, *extra: str,
          cwd: Path = ROOT) -> "tuple[int, list[str]]":
    command = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--toy", *extra,
    ]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.strip().splitlines()


def check(condition: bool, message: str, problems: "list[str]") -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: "list[str]" = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench(spec, workload, trace)
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            named = all(
                metrics.get(m["name"], {}).get("unit") == m["unit"]
                and isinstance(metrics[m["name"]]["value"], (int, float))
                for m in spec[key]
            )
            check(code == 0 and result.get("correct") and named
                  and result.get("failed") == 0,
                  f"{workload} --trace {trace}: correct, every {key} "
                  "metric printed with its unit", problems)

    for workload, tamper in (("serve_hot", "body"), ("build", "cell"),
                             ("timeline", "cell")):
        code, lines = bench(spec, workload, 0, "--tamper", tamper)
        result = json.loads(lines[-1]) if lines else {}
        check(code == 1 and result.get("correct") is False
              and result.get("failed", 0) > 0,
              f"{workload} with a corrupted {tamper}: counted as failed, "
              "exit 1", problems)

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(spec, "build", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the library: non-zero exit, no result", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
