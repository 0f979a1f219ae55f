"""In-memory span recorder for the traced benchmark run.

The library has no tracing of its own, so the traced run records spans
from outside: :func:`install_layer_spans` wraps each layer's public
entry points at the import site its callers use (a function imported by
name is patched in the importing module, a method on its class).  A
span is ``(span_id, parent_id, request_id, name, start, end)``, its ends
read from the process CPU clock like every timing of the benchmark;
parents and request ids ride on :mod:`contextvars`.  Spans stay in
memory until :meth:`Tracer.write` at exit.

A wrapper called while a span of the same name is open (recursion, a
payload builder calling another) records nothing, so a layer's time is
never counted twice.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans: "list[tuple]" = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=(0, None))
        self._request = contextvars.ContextVar("perfbench_request",
                                               default=0)
        self._patches: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, request_id: "int | None" = None):
        """Record one span around the ``with`` body."""
        span_id = next(self._ids)
        parent_id, _ = self._current.get()
        request_token = None
        if request_id is not None:
            request_token = self._request.set(request_id)
        token = self._current.set((span_id, name))
        start = time.process_time()
        try:
            yield span_id
        finally:
            end = time.process_time()
            self._current.reset(token)
            self.spans.append((span_id, parent_id, self._request.get(),
                               name, start, end))
            if request_token is not None:
                self._request.reset(request_token)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def _inside(self, name: str) -> bool:
        return self._current.get()[1] == name

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a spanned call of the original.

        ``counter(result, args, kwargs)`` may return ``{count_name:
        amount}`` increments, recorded at the same boundary.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._inside(name):
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(result, args, kwargs).items():
                    tracer.count(key, amount)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator: one span per ``next()``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> "dict[str, float]":
        """Seconds per span name, minus the time of each span's children.

        Children of one span run one after the other, so their summed
        durations are the covered part of the parent's interval.
        """
        covered: "defaultdict[int, float]" = defaultdict(float)
        for _, parent_id, _, _, start, end in self.spans:
            if parent_id:
                covered[parent_id] += end - start
        out: "defaultdict[str, float]" = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            out[name] += max(0.0, (end - start) - covered[span_id])
        return dict(out)

    def write(self, path: "str | Path") -> Path:
        """Write the spans as JSON lines (one span per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span_id, parent_id, request_id, name, start, end in self.spans:
                f.write(json.dumps({
                    "id": span_id, "parent": parent_id,
                    "request": request_id, "name": name,
                    "start": start, "end": end,
                }) + "\n")
        return path


def dir_bytes(path) -> int:
    """Bytes of every file under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.stat(os.path.join(root, name)).st_size
    return total


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads reach."""
    import repro.core.pipeline as pipeline
    import repro.cube.builder as builder
    import repro.cube.incremental as incremental
    import repro.etl.stream as stream
    import repro.serve.payloads as payloads
    import repro.store.snapshot as snapshot
    import repro.store.timeline as timeline
    from repro.cube.builder import SegregationDataCubeBuilder
    from repro.cube.incremental import TemporalCubeEngine
    from repro.indexes.base import IndexSpec
    from repro.itemsets.transactions import TransactionDatabase
    from repro.report.xlsx import Workbook
    from repro.serve.cache import CachedCubeService
    from repro.serve.service import CubeService

    wrap = tracer.wrap

    # etl
    tracer.wrap_iterator(stream, "stream_csv", "etl.csv")
    wrap(pipeline, "build_final_table", "etl.final_table")

    # itemsets
    wrap(stream, "encode_stream", "itemsets.encode")
    wrap(builder, "encode_table", "itemsets.encode")
    wrap(TransactionDatabase, "covers", "itemsets.covers")
    wrap(SegregationDataCubeBuilder, "mine_coordinates", "itemsets.mine",
         lambda mined, a, k: {"itemsets.itemsets": len(mined.mixed_covers)})
    wrap(incremental, "mine_eclat", "itemsets.mine",
         lambda found, a, k: {"itemsets.itemsets": len(found)})
    wrap(TransactionDatabase, "unit_counts_many", "itemsets.unit_counts",
         lambda out, a, k: {"itemsets.unit_counts_rows":
                            out.shape[0] * len(a[0])})
    wrap(incremental, "closure_diff", "itemsets.closure_diff")

    # indexes
    wrap(IndexSpec, "compute_batch_prepared", "indexes.eval",
         lambda out, a, k: {"indexes.cells": len(out)})

    # graph
    wrap(pipeline, "project_onto_groups", "graph.project",
         lambda res, a, k: {"graph.edges": res.graph.n_edges})
    for name in ("connected_components", "threshold_components",
                 "stoc_clustering"):
        wrap(pipeline, name, "graph.cluster")

    # cube
    wrap(SegregationDataCubeBuilder, "build_from_transactions", "cube.fill",
         lambda cube, a, k: {"cube.cells": len(cube)})

    def carried(state, a, k):
        extra = state.cube.metadata.extra
        kept = (extra.get("n_carried_cells", 0)
                + extra.get("n_carried_cells_within_affected", 0))
        return {"cube.carried_cells": kept,
                "cube.update_cells": len(state.cube)}

    wrap(TemporalCubeEngine, "update", "cube.update", carried)

    # store
    def written(result, a, k):
        return {"store.bytes_written": dir_bytes(result)}

    for module in (snapshot, timeline):
        wrap(module, "dump_snapshot", "store.dump", written)
        wrap(module, "dump_delta_snapshot", "store.dump", written)
        wrap(module, "open_snapshot", "store.open")
    wrap(timeline, "compact_date", "store.compact",
         lambda done, a, k: {"store.compactions": int(bool(done))})

    # serve
    # Queries run only on a cache miss: the first /top after a build or
    # a timeline refresh (the hot mix is answered from the warmed cache).
    for endpoint in ("top", "cell", "children", "parents"):
        wrap(CubeService, endpoint, "serve.query")
    for name in ("top_payload", "cells_payload", "cell_payload",
                 "pivot_payload", "info_payload", "dates_payload"):
        wrap(payloads, name, "serve.payload")
    wrap(payloads, "dumps", "serve.json")
    wrap(CachedCubeService, "refresh", "serve.refresh")

    # report
    wrap(pipeline, "cube_workbook", "report.workbook")
    wrap(Workbook, "save", "report.workbook")
