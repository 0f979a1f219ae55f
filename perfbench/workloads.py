"""The four benchmark workloads.

Each workload function takes a :class:`Run` (time budget, tracing,
scratch directory), the input :class:`Sizes` and the seed, generates
its inputs from the seed, drives the library's public functions with
their defaults, checks the outputs outside every timed region and
returns a :class:`Outcome`.  Why each workload exists is recorded in
``metadata.json`` next to this file.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode

import numpy as np

import repro.etl.stream as stream
import repro.store.snapshot as snapshot
import repro.store.timeline as timeline
from repro.core.pipeline import SCubePipeline
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.incremental import TemporalCubeEngine
from repro.cube.naive import NaiveCubeBuilder
from repro.data.italy import ItalyConfig, generate_italy
from repro.data.synthetic import random_final_table, write_random_final_table_csv
from repro.itemsets.transactions import encode_table
from repro.serve import payloads
from repro.serve.cache import DEFAULT_CACHE_SIZE
from repro.serve.http import make_app, wsgi_get
from repro.serve.service import CubeService
from repro.store.manifest import SnapshotManifest

from spans import Tracer, dir_bytes, install_layer_spans


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TOY`` the self-test."""

    build_rows: int
    build_units: int
    italy_companies: int
    timeline_rows: int
    timeline_dates: int


FULL = Sizes(build_rows=120_000, build_units=60, italy_companies=10_000,
             timeline_rows=40_000, timeline_dates=50)
TOY = Sizes(build_rows=3_000, build_units=12, italy_companies=400,
            timeline_rows=4_000, timeline_dates=6)

#: The E17/E20 finalTable shape and cube limits (``max_ca_items=3``).
BUILD_ATTRS = dict(sa_attributes={"g": 2, "a": 4, "b": 3},
                   ca_attributes={"r": 5, "s": 4},
                   multi_valued_ca={"mv": 4})
BUILD_LIMITS = dict(min_population=60, min_minority=15,
                    max_sa_items=2, max_ca_items=3)
#: The E19 closed-mode timeline limits.
TIMELINE_LIMITS = dict(min_population=40, min_minority=10,
                       max_sa_items=2, max_ca_items=2)
SETUP_REPS = 5
#: Cold opens per build or pipeline run (on build, one of them inside
#: the build) and, on timeline, of the final timeline after each series.
OPEN_REPS = 3
TIMELINE_OPEN_REPS = 5
#: Untraced runs publish the date series at least this many times, and
#: more while run_seconds allows, with TIMELINE_SETUPS first-date set-ups
#: before each.
TIMELINE_SERIES = 2
TIMELINE_SETUPS = 3

#: Every timing is CPU time of this process.  The benchmark's host shares
#: its CPUs with other tenants, and the kernel books the time they take
#: (steal) outside a task's CPU time, which wall time would count; on a
#: quiet host the two clocks agree.  The load is single-threaded and the
#: library's defaults start no worker processes, so this process's CPU
#: time is the whole cost of an operation.
clock = time.process_time


# ----------------------------------------------------------------------
# Timing scaffolding
# ----------------------------------------------------------------------

class Phase:
    """One measured phase: latencies of its operations, failures, spans.

    ``latencies`` are CPU seconds (:data:`clock`); ``walls`` are the same
    operations' wall seconds, which are only reported, and which budget
    the phase.
    """

    def __init__(self, seconds: float, min_ops: int,
                 tracer: "Tracer | None"):
        self.seconds = seconds
        self.min_ops = min_ops
        self.tracer = tracer
        self.latencies: "list[float]" = []
        self.walls: "list[float]" = []
        self.failed = 0
        self.spent = 0.0
        self.started: "float | None" = None
        self._ids = itertools.count(1)

    def __enter__(self) -> "Phase":
        """Start (or resume) measuring; ``spent`` sums the wall time inside."""
        if self.tracer is not None:
            install_layer_spans(self.tracer)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.spent += time.perf_counter() - self.started
        self.started = None
        if self.tracer is not None:
            self.tracer.restore()

    def keep_going(self, batch: int = 1) -> bool:
        """``batch`` more operations fit the phase's (wall) time budget."""
        done = len(self.walls)
        if done < self.min_ops:
            return True
        elapsed = self.spent
        if self.started is not None:
            elapsed += time.perf_counter() - self.started
        return elapsed + batch * sum(self.walls) / done <= self.seconds

    @contextmanager
    def op(self, name: str, collect: bool = False):
        """Time one operation (a root span when traced).

        ``collect`` runs a full garbage collection first, so that a
        sequential operation starts from the same collector state.
        """
        if collect:
            gc.collect()
        request_id = next(self._ids)
        wall, start = time.perf_counter(), clock()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name, request_id=request_id):
                yield
        self.latencies.append(clock() - start)
        self.walls.append(time.perf_counter() - wall)

    def fail(self) -> None:
        self.failed += 1


class Run:
    """Budget and mode of one benchmark process.

    Untraced, a workload measures one phase of ``seconds``.  Traced, it
    measures an untraced phase and then a traced one, half the budget
    each, so the tracing overhead is their difference.
    """

    def __init__(self, seconds: float, trace: bool, work: Path,
                 oracle_cache: Path, tamper: "str | None" = None):
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.oracle_cache = oracle_cache
        self.tamper = tamper

    def phases(self, min_ops: int) -> "list[Phase]":
        if not self.trace:
            return [Phase(self.seconds, min_ops, None)]
        half = self.seconds / 2
        return [Phase(half, 1, None), Phase(half, 1, Tracer())]


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    phases: "list[Phase]"
    setup_s: "list[float]"
    open_ms: "list[float]"
    disk_bytes: int
    peak_rss_mb: float
    #: Per-layer values the spans cannot give (ratios, sizes).
    layer: "dict[str, float]" = field(default_factory=dict)
    #: State sizes and sample counts, recorded with the result.
    info: "dict[str, object]" = field(default_factory=dict)
    gate_failures: "list[str]" = field(default_factory=list)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def timed_open(source: Path, query: "Query") -> "tuple[float, tuple]":
    """``make_app`` on ``source`` plus its first request: (ms, response)."""
    gc.collect()
    start = clock()
    response = wsgi_get(make_app(source), query.url)
    return (clock() - start) * 1e3, response


# ----------------------------------------------------------------------
# Correctness helpers
# ----------------------------------------------------------------------

def _exact(value: float) -> "float | None":
    return None if math.isnan(value) else float(value)


def cell_values(cube) -> "dict[object, tuple]":
    """Every cell's counts and index values, compared with ``==`` (atol=0)."""
    names = list(cube.metadata.index_names)
    return {
        stats.key: (int(stats.population), int(stats.minority),
                    int(stats.n_units))
        + tuple(_exact(stats.value(name)) for name in names)
        for stats in cube
    }


def oracle_cells(run: Run, name: str, build_oracle) -> "dict[object, tuple]":
    """The naive oracle's cell values, built once per input and library.

    ``run.oracle_cache`` is keyed by a digest of the library's sources,
    and ``name`` names the workload and seed, so a cached oracle is only
    reused for the same input and the same code.  JSON keeps floats
    exact.
    """
    path = run.oracle_cache / f"{name}.json"
    if path.is_file():
        rows = json.loads(path.read_text())
        return {(frozenset(sa), frozenset(ca)): tuple(values)
                for sa, ca, values in rows}
    cells = cell_values(build_oracle())
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps(
        [[sorted(sa), sorted(ca), list(values)]
         for (sa, ca), values in cells.items()]
    ))
    partial.replace(path)
    return cells


def same_cells(run: Run, live, expected: "dict[object, tuple]", label: str,
               failures: "list[str]") -> bool:
    """Gate: ``live`` has exactly the ``expected`` cells and values."""
    expected = dict(expected)
    if run.tamper == "cell" and expected:
        key = next(iter(expected))
        expected[key] = (expected[key][0] + 1,) + expected[key][1:]
    ok = cell_values(live) == expected
    if not ok:
        failures.append(f"{label}: cells differ from the reference")
    return ok


@dataclass(frozen=True)
class Query:
    """One request: its URL and the in-process payload it must equal."""

    path: str
    params: "tuple[tuple[str, object], ...]" = ()
    sa: "dict[str, object] | None" = None
    ca: "dict[str, object] | None" = None

    @property
    def url(self) -> str:
        pairs = list(self.params)
        for role, coords in (("sa", self.sa), ("ca", self.ca)):
            for attr, value in (coords or {}).items():
                values = value if isinstance(value, list) else [value]
                pairs.extend((role, f"{attr}={v}") for v in values)
        return self.path + ("?" + urlencode(pairs) if pairs else "")

    def payload(self, service):
        p = dict(self.params)
        if self.path == "/top":
            return payloads.top_payload(
                service, index_name=p["index"], k=int(p.get("k", 10)),
                min_minority=int(p.get("min_minority", 0)),
            )
        if self.path == "/pivot":
            return payloads.pivot_payload(
                service, index_name=p["index"], row_attr=p["rows"],
                col_attr=p["cols"],
            )
        if self.path == "/cell":
            return payloads.cell_payload(
                service, service.cell(sa=self.sa, ca=self.ca)
            )
        method = getattr(service, self.path.lstrip("/"))
        return payloads.cells_payload(service, method(sa=self.sa, ca=self.ca))

    def expected_body(self, service) -> "bytes | None":
        """``payloads.dumps`` of the payload; None for a missing cell."""
        payload = self.payload(service)
        return None if payload is None else payloads.dumps(payload)


def _tampered(run: Run, bodies: "list[bytes]") -> "list[bytes]":
    if run.tamper != "body":
        return bodies
    return [bodies[0][:-1] + b" "] + bodies[1:]


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

TOP = Query("/top", (("index", "D"), ("k", 50), ("min_minority", 30)))


def _write_csv(path: Path, sizes: Sizes, seed: int):
    return write_random_final_table_csv(
        path, sizes.build_rows, sizes.build_units, seed=seed, skew=0.5,
        **BUILD_ATTRS,
    )


def _build_cube(csv: Path, schema):
    db = stream.encode_stream(stream.stream_csv(csv, schema=schema), schema)
    return db, SegregationDataCubeBuilder(**BUILD_LIMITS).build_from_transactions(db)


def build(run: Run, sizes: Sizes, seed: int) -> Outcome:
    """CSV → encode → mine → fill → dump → open → first ``/top``."""
    csv = run.work / "final_table.csv"
    schema = _write_csv(csv, sizes, seed)
    snap = run.work / "snapshot"
    reps = []
    open_ms = []
    phases = run.phases(min_ops=3)
    for phase in phases:
        with phase:
            while phase.keep_going():
                fresh_dir(snap)
                db = cube = None
                with phase.op("build", collect=True):
                    db, cube = _build_cube(csv, schema)
                    snapshot.dump_snapshot(cube, snap)
                    ms, (status, _, body) = timed_open(snap, TOP)
                open_ms.append(ms)
                open_ms.extend(timed_open(snap, TOP)[0]
                               for _ in range(OPEN_REPS - 1))
                reps.append((phase, status, body,
                             snapshot.table_digest(cube.table)))
    rss = peak_rss_mb()

    failures: "list[str]" = []
    digest = snapshot.table_digest(cube.table)
    reopened = snapshot.open_snapshot(snap)
    manifest = SnapshotManifest.read(snap)
    if not (snapshot.table_digest(reopened.table) == digest
            == manifest.content_digest):
        failures.append("build: reopened snapshot digest differs")
    oracle = oracle_cells(
        run, f"build-{seed}",
        lambda: NaiveCubeBuilder(**BUILD_LIMITS).build_from_transactions(db),
    )
    same_cells(run, cube, oracle, "build vs naive oracle", failures)
    [expected] = _tampered(run, [TOP.expected_body(CubeService(cube))])
    for phase, status, body, rep_digest in reps:
        if failures or status != 200 or body != expected or rep_digest != digest:
            phase.fail()
    return Outcome(
        phases=phases, setup_s=[], open_ms=open_ms,
        disk_bytes=dir_bytes(snap), peak_rss_mb=rss,
        info={"rows": len(db), "units": db.n_units, "cells": len(cube),
              "csv_bytes": csv.stat().st_size, "builds": len(reps)},
        gate_failures=failures,
    )


# ----------------------------------------------------------------------
# boards
# ----------------------------------------------------------------------

BOARDS_TOP = Query("/top", (("index", "D"), ("k", 10)))


def boards(run: Run, sizes: Sizes, seed: int) -> Outcome:
    """``SCubePipeline().run()`` then ``visualize()`` to ``scube.xlsx``."""
    dataset = generate_italy(
        ItalyConfig(n_companies=sizes.italy_companies, seed=seed)
    )
    xlsx = run.work / "scube.xlsx"
    snap = run.work / "boards_snapshot"
    reps = []
    open_ms = []
    phases = run.phases(min_ops=3)
    for phase in phases:
        with phase:
            while phase.keep_going():
                pipeline, result = SCubePipeline(), None
                with phase.op("boards", collect=True):
                    result = pipeline.run(dataset)
                    pipeline.visualize(result.cube, xlsx)
                # The analyst then opens the cube for exploration.
                snapshot.dump_snapshot(result.cube, fresh_dir(snap))
                for _ in range(OPEN_REPS):
                    ms, (status, _, body) = timed_open(snap, BOARDS_TOP)
                    open_ms.append(ms)
                reps.append((phase, status, body,
                             snapshot.table_digest(result.cube.table)))
    rss = peak_rss_mb()

    failures: "list[str]" = []
    cube = result.cube
    cfg = pipeline.config.cube
    oracle = oracle_cells(
        run, f"boards-{seed}",
        lambda: NaiveCubeBuilder(
            indexes=cfg.indexes, min_population=cfg.min_population,
            min_minority=cfg.min_minority, max_sa_items=cfg.max_sa_items,
            max_ca_items=cfg.max_ca_items,
        ).build(result.final_table, result.final_schema),
    )
    same_cells(run, cube, oracle, "boards vs naive oracle", failures)
    with zipfile.ZipFile(xlsx) as package:
        if "xl/workbook.xml" not in package.namelist():
            failures.append("boards: scube.xlsx has no workbook part")
    [expected] = _tampered(run, [BOARDS_TOP.expected_body(CubeService(cube))])
    digest = snapshot.table_digest(cube.table)
    for phase, status, body, rep_digest in reps:
        if failures or status != 200 or body != expected or rep_digest != digest:
            phase.fail()
    return Outcome(
        phases=phases, setup_s=[], open_ms=open_ms,
        disk_bytes=xlsx.stat().st_size, peak_rss_mb=rss,
        layer={"report.bytes": xlsx.stat().st_size},
        info={"companies": sizes.italy_companies,
              "rows": len(result.final_table), "units": result.n_units,
              "cells": len(cube), "runs": len(reps)},
        gate_failures=failures,
    )


# ----------------------------------------------------------------------
# serve_hot
# ----------------------------------------------------------------------

#: The E20 dashboard: ranking, slicing, point lookups, navigation, pivot.
HOT_MIX = [
    TOP,
    Query("/top", (("index", "G"), ("k", 20))),
    Query("/slice", ca={"r": "r0"}),
    Query("/slice", sa={"g": "g1"}),
    Query("/cell", sa={"g": "g0"}, ca={"r": "r0"}),
    Query("/children", ca={"r": "r0"}),
    Query("/parents", sa={"g": "g0"}, ca={"r": "r0"}),
    Query("/pivot", (("index", "D"), ("rows", "g"), ("cols", "r"))),
]


def _closed_loop(phase: Phase, app, urls: "list[str]",
                 expected: "list[bytes]", seconds: float) -> int:
    """One client, no think time, for ``seconds``: bytes received."""
    deadline = time.perf_counter() + seconds
    received = 0
    for q in itertools.cycle(range(len(urls))):
        if time.perf_counter() >= deadline:
            break
        try:
            with phase.op("serve.request"):
                status, _, body = wsgi_get(app, urls[q])
        except Exception:  # noqa: BLE001 — a failed request, counted
            traceback.print_exc(file=sys.stderr)
            phase.fail()
            continue
        received += len(body)
        if status != 200 or body != expected[q]:
            phase.fail()
    return received


def prepare_snapshot(work: Path, sizes: Sizes, seed: int) -> None:
    """Write the ``build`` workload's snapshot under ``work``."""
    csv = work / "final_table.csv"
    _, cube = _build_cube(csv, _write_csv(csv, sizes, seed))
    snapshot.dump_snapshot(cube, work / "snapshot")


def serve_hot(run: Run, sizes: Sizes, seed: int) -> Outcome:
    """The 8-query dashboard mix on the ``build`` snapshot."""
    # The snapshot is an input: build it in a child process, so that the
    # build's memory does not count in this process's peak RSS.
    subprocess.run(
        [sys.executable, __file__, str(run.work), str(seed),
         "toy" if sizes == TOY else "full"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        check=True, timeout=600,
    )
    snap = run.work / "snapshot"

    reference = CubeService(snap)
    queries, expected = [], []
    for query in HOT_MIX:
        body = query.expected_body(reference)
        if body is not None:
            queries.append(query)
            expected.append(body)
    expected = _tampered(run, expected)
    urls = [query.url for query in queries]
    del reference

    # The load runs in SETUP_REPS segments, each on a freshly opened and
    # warmed app, so the set-up samples spread over the whole run.
    setup_s, open_ms = [], []
    phases = run.phases(min_ops=1)
    for phase in phases:
        # Layer numbers describe the last phase (the traced one if traced).
        hits = lookups = bytes_out = 0
        for _ in range(SETUP_REPS):
            gc.collect()
            start = clock()
            app = make_app(snap)
            wsgi_get(app, urls[0])
            open_ms.append((clock() - start) * 1e3)
            for url in urls[1:]:
                wsgi_get(app, url)
            setup_s.append(clock() - start)
            before = app.service.cache.stats()
            with phase:
                bytes_out += _closed_loop(phase, app, urls, expected,
                                          phase.seconds / SETUP_REPS)
            after = app.service.cache.stats()
            hits += after["hits"] - before["hits"]
            lookups += (after["hits"] + after["misses"]
                        - before["hits"] - before["misses"])
    rss = peak_rss_mb()
    measured = phases[-1]
    hit_ratio = hits / lookups if lookups else 0.0
    return Outcome(
        phases=phases, setup_s=setup_s, open_ms=open_ms,
        disk_bytes=dir_bytes(snap), peak_rss_mb=rss,
        layer={"serve.cache_hit_ratio": hit_ratio,
               "serve.bytes_out": bytes_out / max(1, len(measured.latencies))},
        info={"distinct_queries": len(urls), "lru_size": DEFAULT_CACHE_SIZE,
              "clients": 1, "loop": "closed, no think time",
              "requests": len(measured.latencies)},
    )


# ----------------------------------------------------------------------
# timeline
# ----------------------------------------------------------------------

TIMELINE_TOP = Query("/top", (("index", "D"), ("k", 20), ("min_minority", 10)))


def timeline_masks(sizes: Sizes, seed: int):
    """E19's membership series: ~1% of a localized pool out per date.

    Only rows in the ``r0 & s0`` context with empty multi-valued sets
    churn, so consecutive dates differ by ~2% of rows and every other
    context is untouched.
    """
    n = sizes.timeline_rows
    table, schema = random_final_table(
        n, 60, sa_attributes={"g": 2, "a": 4, "b": 3},
        ca_attributes={"r": 3, "s": 3}, multi_valued_ca={"mv": 4},
        seed=seed, skew=0.5,
    )
    pool = (table.categorical("r").mask_eq("r0")
            & table.categorical("s").mask_eq("s0"))
    pool &= np.fromiter((len(v) == 0 for v in table.multivalued("mv").values()),
                        dtype=bool, count=n)
    pool = np.flatnonzero(pool)
    rng = np.random.default_rng([seed, 3])
    masks = []
    for _ in range(sizes.timeline_dates):
        mask = np.ones(n, dtype=bool)
        mask[rng.choice(pool, size=n // 100, replace=False)] = False
        masks.append(mask)
    return table, schema, masks


def _first_date(root: Path, table, schema, mask):
    """Encode the union, build and publish the first date, open it."""
    engine = TemporalCubeEngine(
        encode_table(table, schema),
        SegregationDataCubeBuilder(engine="incremental", mode="closed",
                                   **TIMELINE_LIMITS),
    )
    state = engine.build_at(mask, 0)
    timeline.dump_into_timeline(fresh_dir(root), 0, state.cube, compact=True)
    app = make_app(root)
    wsgi_get(app, TIMELINE_TOP.url)
    return engine, state, app


def timeline_workload(run: Run, sizes: Sizes, seed: int) -> Outcome:
    """Closed-mode publishes: update → delta dump → refresh → ``/top``."""
    table, schema, masks = timeline_masks(sizes, seed)
    setup_s, open_ms = [], []
    outputs = []
    publishes = len(masks) - 1
    phases = run.phases(min_ops=TIMELINE_SERIES * publishes)
    for number, phase in enumerate(phases):
        # The series is published again, each time into a fresh timeline,
        # while another series fits the budget (untraced: at least twice).
        series = 0
        while series == 0 or phase.keep_going(publishes):
            series += 1
            for rep in range(TIMELINE_SETUPS):
                root = run.work / f"timeline{number}-{series}-{rep}"
                gc.collect()
                start = clock()
                engine, state, app = _first_date(root, table, schema, masks[0])
                setup_s.append(clock() - start)
            with phase:
                for date in range(1, len(masks)):
                    parent = state.cube
                    with phase.op("timeline.publish", collect=True):
                        state = engine.update(state, masks[date], date)
                        timeline.dump_into_timeline(
                            root, date, state.cube, parent_date=date - 1,
                            parent=parent, compact=True,
                        )
                        refresh = wsgi_get(app, "/refresh", method="POST")
                        top = wsgi_get(app, TIMELINE_TOP.url)
                    outputs.append((phase, refresh, top))
            if phase.tracer is None:
                open_ms.extend(timed_open(root, TIMELINE_TOP)[0]
                               for _ in range(TIMELINE_OPEN_REPS))
    rss = peak_rss_mb()
    last_top_body = outputs[-1][2][2]

    failures: "list[str]" = []
    union_db = engine.db
    scratch_builder = SegregationDataCubeBuilder(mode="closed",
                                                 **TIMELINE_LIMITS)
    reopened = timeline.CubeTimeline(root)
    for date in (0, len(masks) - 1):
        scratch = scratch_builder.build_from_transactions(
            union_db.restrict(masks[date])
        )
        same_cells(run, reopened.at(date), cell_values(scratch),
                   f"timeline date {date} vs scratch closed build", failures)
    [expected] = _tampered(run, [TIMELINE_TOP.expected_body(CubeService(scratch))])
    if last_top_body != expected:
        failures.append("timeline: last /top differs from the scratch cube")
    refreshed = payloads.dumps({"refreshed": True})
    for phase, (r_status, _, r_body), (status, _, _) in outputs:
        if failures or r_status != 200 or r_body != refreshed or status != 200:
            phase.fail()

    manifest = timeline.read_timeline_manifest(root)
    chains = [entry["chain_length"] for entry in manifest["dates"].values()]
    n_dates = len(masks)
    full_last = run.work / "full_last_date"
    snapshot.dump_snapshot(scratch, fresh_dir(full_last))
    timeline_bytes = dir_bytes(root)
    return Outcome(
        phases=phases, setup_s=setup_s, open_ms=open_ms,
        disk_bytes=timeline_bytes, peak_rss_mb=rss,
        layer={"store.chain_len_max": max(chains)},
        info={"rows": sizes.timeline_rows, "dates": n_dates,
              "cells_last_date": len(state.cube),
              "disk_ratio": timeline_bytes / (n_dates * dir_bytes(full_last))},
        gate_failures=failures,
    )


WORKLOADS = {
    "build": build,
    "boards": boards,
    "serve_hot": serve_hot,
    "timeline": timeline_workload,
}


if __name__ == "__main__":
    # The serving workloads' child: python3 workloads.py WORK SEED toy|full
    prepare_snapshot(Path(sys.argv[1]),
                     TOY if sys.argv[3] == "toy" else FULL, int(sys.argv[2]))
