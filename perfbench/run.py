"""SCube end-to-end benchmark: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones plus the tracing overhead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
same result, tagged with the source digest, git sha, ``nproc`` and the
Python and NumPy versions, is appended to
``.perfbench_out/records.jsonl``.  The exit code is 1 when a
correctness gate fails and 2 when the library cannot be found.

``--toy`` shrinks every input (the self-test) and ``--tamper body|cell``
corrupts one expected body or oracle cell, which must count as a failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

HASH_SEED = "0"
WORKLOADS = ("build", "boards", "serve_hot", "timeline")

#: Modules whose import is the set-up of the ``build``/``boards`` runs.
LIBRARY_MODULES = (
    "repro.etl.stream", "repro.cube.builder", "repro.cube.incremental",
    "repro.store", "repro.serve.http", "repro.core.pipeline",
    "repro.report.xlsx",
)

END_TO_END_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "p95_ms": "ms", "ops_per_s": "1/s",
    "open_ms": "ms", "disk_mb": "MB", "peak_rss_mb": "MB",
}

#: Per-layer metric -> span name whose self time it sums.
LAYER_SPANS = {
    "etl.csv_s": "etl.csv",
    "etl.final_table_s": "etl.final_table",
    "itemsets.encode_s": "itemsets.encode",
    "itemsets.covers_s": "itemsets.covers",
    "itemsets.mine_s": "itemsets.mine",
    "itemsets.unit_counts_s": "itemsets.unit_counts",
    "itemsets.closure_diff_s": "itemsets.closure_diff",
    "indexes.eval_s": "indexes.eval",
    "graph.project_s": "graph.project",
    "graph.cluster_s": "graph.cluster",
    "cube.fill_self_s": "cube.fill",
    "cube.update_s": "cube.update",
    "store.dump_s": "store.dump",
    "store.compact_s": "store.compact",
    "store.open_s": "store.open",
    "serve.query_s": "serve.query",
    "serve.payload_s": "serve.payload",
    "serve.json_s": "serve.json",
    "serve.request_s": "serve.request",
    "serve.refresh_s": "serve.refresh",
    "report.workbook_s": "report.workbook",
}
#: Per-layer counts recorded at the span boundaries, with their units.
LAYER_COUNTS = {"itemsets.itemsets": "count",
                "itemsets.unit_counts_rows": "count",
                "indexes.cells": "count", "graph.edges": "count",
                "cube.cells": "count", "store.bytes_written": "B",
                "store.compactions": "count"}
#: Per-layer values a workload reports itself.
LAYER_OWN = {"cube.carried_frac": "ratio", "store.chain_len_max": "count",
             "serve.cache_hit_ratio": "ratio", "serve.bytes_out": "B",
             "report.bytes": "B"}
TRACE_UNITS = {"trace.overhead_frac": "ratio", "trace.spans": "count"}


def layer_units() -> "dict[str, str]":
    units = {name: "s" for name in LAYER_SPANS}
    units.update(LAYER_COUNTS)
    units.update(LAYER_OWN)
    units.update(TRACE_UNITS)
    return units


def measure_imports(reps: int = 5) -> "list[float]":
    """CPU seconds to import the library, each from a clean module table."""
    samples = []
    for _ in range(reps):
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        gc.collect()
        start = time.process_time()
        for name in LIBRARY_MODULES:
            importlib.import_module(name)
        samples.append(time.process_time() - start)
    return samples


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(outcome) -> "dict[str, float]":
    latencies = outcome.phases[-1].latencies
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "open_ms": statistics.median(outcome.open_ms),
        "disk_mb": outcome.disk_bytes / 1e6,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome) -> "dict[str, float]":
    """Per-operation layer numbers from the traced (last) phase."""
    untraced, traced = outcome.phases
    tracer = traced.tracer
    n_ops = len(traced.latencies)
    self_times = tracer.self_times()
    out = {name: self_times.get(span, 0.0) / n_ops
           for name, span in LAYER_SPANS.items()}
    out.update({name: tracer.counts.get(name, 0) / n_ops
                for name in LAYER_COUNTS})
    cells = tracer.counts.get("cube.update_cells", 0)
    out["cube.carried_frac"] = (
        tracer.counts.get("cube.carried_cells", 0) / cells if cells else 0.0
    )
    for name in LAYER_OWN:
        out.setdefault(name, 0.0)
    out.update(outcome.layer)
    plain = statistics.fmean(untraced.latencies)
    out["trace.overhead_frac"] = statistics.fmean(traced.latencies) / plain - 1
    out["trace.spans"] = len(tracer.spans) / n_ops
    return out


def source_digest() -> str:
    """SHA-256 over the library's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--tamper", choices=("body", "cell"))
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing changes dict and set layouts, which moved the
        # set-up times between two modes from one process to the next.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SRC))
    import_s = measure_imports()

    import numpy
    import workloads

    sizes = workloads.TOY if args.toy else workloads.FULL
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    digest = source_digest()
    oracle_cache = OUT / "oracle" / f"{digest}-{'toy' if args.toy else 'full'}"
    run = workloads.Run(args.seconds, bool(args.trace), work, oracle_cache,
                        tamper=args.tamper)
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](run, sizes, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not outcome.setup_s:
        outcome.setup_s = import_s

    walls = outcome.phases[-1].walls
    outcome.info["wall_p50_ms"] = round(statistics.median(walls) * 1e3, 3)
    attempted = sum(len(p.latencies) for p in outcome.phases)
    failed = sum(p.failed for p in outcome.phases)
    correct = failed == 0 and not outcome.gate_failures
    if args.trace:
        values = per_layer(outcome)
        units = layer_units()
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        outcome.phases[-1].tracer.write(spans_path)
    else:
        values = end_to_end(outcome)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    for problem in outcome.gate_failures:
        print(f"GATE FAILED: {problem}")
    samples = len(outcome.phases[-1].latencies)
    print(f"{args.workload} seed={args.seed} samples={samples} "
          f"attempted={attempted} failed={failed} info={outcome.info}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
        "git_sha": git_sha(), "source_digest": digest,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "samples": samples, "info": outcome.info,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    with (OUT / "records.jsonl").open("a") as f:
        f.write(json.dumps(record, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
