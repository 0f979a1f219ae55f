"""Multiprocess columnar fill: ``engine="parallel"``.

The columnar fill's phases B/C — per-unit counting plus batched index
kernels — are embarrassingly parallel across *context groups*: every
candidate cell of a context needs only that context's population vector,
its own cover, and the unit labels.  This module partitions the context
groups across ``multiprocessing`` workers:

* the packed ``uint64`` cover words of all SA-bearing candidates and the
  per-row unit labels are written **once** into
  :mod:`multiprocessing.shared_memory` segments — workers map them
  read-only instead of receiving pickled copies;
* each worker rebuilds a *units-only* counting database over the shared
  labels and runs the exact kernels of the single-process engine
  (:meth:`~repro.itemsets.transactions.TransactionDatabase.unit_counts_many`
  plus the shared :func:`~repro.cube.builder.eval_context_block`) over
  its contexts, in the same ``_FILL_BATCH_CELLS``-bounded batches;
* the parent scatters the returned column slabs into the candidate
  arrays and assembles one :class:`~repro.cube.table.CellTable` through
  the same phase D as ``engine="columnar"``.

Because every number is produced by the very same NumPy call sequence on
the very same inputs, the parallel cube is **bit-exact** (``atol=0``)
against the columnar one — ``python -m repro.cube.selfcheck`` asserts
this end to end.

Workers are forked when the platform supports it (inheriting the index
registry, so runtime-registered custom indexes keep working) and spawned
otherwise; in that case index specs travel pickled, which all built-in
specs support.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory

import numpy as np

from repro.cube.builder import (
    _FILL_BATCH_CELLS,
    CandidateArrays,
    MinedCoordinates,
    SegregationDataCubeBuilder,
    eval_context_block,
)
from repro.cube.table import CellTable
from repro.itemsets.coverset import (
    WORD_BITS,
    WORD_DTYPE,
    Cover,
    CoverSet,
    cover_words,
)
from repro.itemsets.items import ItemDictionary
from repro.itemsets.transactions import TransactionDatabase

#: One context group shipped to a worker: the context's per-unit
#: population vector and the SA-matrix rows (= cover-matrix rows) of
#: its candidate cells.
GroupTask = "tuple[np.ndarray, np.ndarray]"


def resolve_workers(workers: "int | None") -> int:
    """Effective worker count: ``workers`` or one per CPU, at least 1."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    return max(1, int(workers))


def _mp_context():
    """Fork when available (inherits the index registry), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _pack_cover_matrix(covers: "list[Cover]", n_bits: int) -> np.ndarray:
    """All candidate covers as one ``(n_covers, n_words)`` uint64 matrix.

    Packed covers contribute their words directly; other codecs (bool /
    ewah) are packed row by row — the counting result only depends on
    the bits, so cross-codec builds stay identical.
    """
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    out = np.zeros((len(covers), n_words), dtype=WORD_DTYPE)
    for i, cover in enumerate(covers):
        out[i] = cover_words(cover)
    return out


def _partition_groups(
    groups: "list[GroupTask]", n_parts: int
) -> "list[list[GroupTask]]":
    """Greedy balanced partition of context groups by cell count.

    Groups are placed largest-first onto the least-loaded partition, so
    one popular context cannot serialise the fill behind it.  Never
    produces an empty partition: ``n_parts`` is clamped to the number of
    groups (the ``n_contexts < workers`` edge).
    """
    n_parts = max(1, min(n_parts, len(groups)))
    parts: "list[list[GroupTask]]" = [[] for _ in range(n_parts)]
    loads = [0] * n_parts
    order = sorted(range(len(groups)), key=lambda i: -len(groups[i][1]))
    for i in order:
        j = loads.index(min(loads))
        parts[j].append(groups[i])
        loads[j] += len(groups[i][1])
    return parts


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process fill configuration, set once by the pool initializer.
_WORKER_CFG: "dict | None" = None


def _init_worker(cfg: dict) -> None:
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _compute_groups(
    cover_buf, units_buf, cfg: dict, groups: "list[GroupTask]"
) -> list:
    """Run phases B/C over this partition's context groups.

    All shared-memory views live only inside this frame, so the caller
    can close its segments the moment it returns (closing with live
    array exports raises ``BufferError``).
    """
    cover_words = np.ndarray(
        (cfg["n_covers"], cfg["n_words"]), dtype=WORD_DTYPE,
        buffer=cover_buf,
    )
    units = np.ndarray((cfg["n_rows"],), dtype=np.int64, buffer=units_buf)
    # A units-only counting database over the parent's stored (already
    # unit-sorted) labels: its row_order is the identity, so the shared
    # cover words need no remapping and unit_counts_many — the same
    # shape-selected kernel — runs verbatim.
    empty = np.empty(0, dtype=np.int64)
    db = TransactionDatabase.from_item_arrays(
        empty, empty, cfg["n_rows"], ItemDictionary(), units=units
    )
    specs = cfg["specs"]
    minsup_min = cfg["minsup_min"]
    n_bits = cfg["n_bits"]
    max_batch = max(1, _FILL_BATCH_CELLS // max(1, db.n_units))
    out = []
    for tvec, rows in groups:
        totals = np.empty(len(rows), dtype=np.int64)
        keep = np.empty(len(rows), dtype=bool)
        values = np.empty((len(specs), len(rows)))
        for a in range(0, len(rows), max_batch):
            block_rows = rows[a:a + max_batch]
            sub_all = db.unit_counts_many(
                [CoverSet(cover_words[r], n_bits) for r in block_rows]
            )
            t, k, v = eval_context_block(specs, tvec, sub_all, minsup_min)
            b = a + len(block_rows)
            totals[a:b] = t
            keep[a:b] = k
            values[:, a:b] = v
        out.append((rows, totals, keep, values))
    return out


def _fill_partition(groups: "list[GroupTask]") -> list:
    """Pool task: attach the shared segments, fill one partition.

    Returns ``[(rows, totals, keep, values), ...]`` per context group —
    plain arrays owned by the worker, safe to pickle back.
    """
    cfg = _WORKER_CFG
    # Attaching re-registers the segments with the resource tracker;
    # pool workers share the parent's tracker process, whose cache has
    # set semantics, so the re-registration is a no-op and the parent's
    # unlink() stays the single point of cleanup.
    shm_covers = shared_memory.SharedMemory(name=cfg["cover_shm"])
    shm_units = shared_memory.SharedMemory(name=cfg["units_shm"])
    try:
        return _compute_groups(shm_covers.buf, shm_units.buf, cfg, groups)
    finally:
        shm_covers.close()
        shm_units.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def fill_parallel(
    builder: SegregationDataCubeBuilder,
    db: TransactionDatabase,
    mined: MinedCoordinates,
) -> CellTable:
    """Fill the cube with ``builder.workers`` processes; bit-exact vs
    the columnar engine.

    Shares phase A (candidate enumeration) and phase D (assembly) with
    ``_fill_columnar``; phases B/C run in the worker pool.  With no
    SA-bearing candidates there is nothing to count and no pool is
    spawned; otherwise the pool runs even for one worker, so a
    ``workers=1`` build exercises the genuine multiprocess path.
    """
    specs = builder.indexes
    cand = builder._enumerate_candidates(db, mined)
    n_sa = len(cand.sa_covers)
    minority_totals = np.zeros(n_sa, dtype=np.int64)
    kept_rows = np.zeros(n_sa, dtype=bool)
    values = np.full((len(specs), n_sa), np.nan)
    groups = [
        (mined.context_tvecs[ctx], np.asarray(rows, dtype=np.int64))
        for ctx, rows in cand.rows_by_context().items()
    ]
    if groups:
        partitions = _partition_groups(
            groups, resolve_workers(builder.workers)
        )
        for rows, totals, keep, vals in _run_pool(
            db, specs, mined.minsup_min, cand.sa_covers, partitions
        ):
            minority_totals[rows] = totals
            kept_rows[rows] = keep
            values[:, rows] = vals
    return builder._assemble_cells(
        db, cand, minority_totals, kept_rows, values
    )


def _run_pool(
    db: TransactionDatabase,
    specs: list,
    minsup_min: int,
    sa_covers: "list[Cover]",
    partitions: "list[list[GroupTask]]",
) -> list:
    """Ship covers + units via shared memory, map partitions over a pool."""
    n_bits = len(db)
    matrix = _pack_cover_matrix(sa_covers, n_bits)
    units = np.ascontiguousarray(db.units, dtype=np.int64)
    shm_covers = shared_memory.SharedMemory(
        create=True, size=max(1, matrix.nbytes)
    )
    shm_units = shared_memory.SharedMemory(
        create=True, size=max(1, units.nbytes)
    )
    try:
        # The temporaries viewing shm buffers die with each statement,
        # leaving the segments export-free for close()/unlink().
        np.ndarray(matrix.shape, WORD_DTYPE, buffer=shm_covers.buf)[:] = \
            matrix
        np.ndarray(units.shape, np.int64, buffer=shm_units.buf)[:] = units
        cfg = {
            "cover_shm": shm_covers.name,
            "units_shm": shm_units.name,
            "n_covers": matrix.shape[0],
            "n_words": matrix.shape[1],
            "n_bits": n_bits,
            "n_rows": len(units),
            "specs": specs,
            "minsup_min": minsup_min,
        }
        del matrix
        results: list = []
        ctx = _mp_context()
        with ctx.Pool(
            processes=len(partitions),
            initializer=_init_worker,
            initargs=(cfg,),
        ) as pool:
            for part in pool.imap_unordered(_fill_partition, partitions):
                results.extend(part)
        return results
    finally:
        shm_covers.close()
        shm_covers.unlink()
        shm_units.close()
        shm_units.unlink()
