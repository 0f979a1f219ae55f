"""Parallel shared-memory eclat: fan the DFS roots across processes.

The eclat search tree decomposes by root item (see
:mod:`repro.itemsets.eclat`): the subtree below ``frequent[pos]`` reads
only the root's cover and the tail ``frequent[pos + 1:]``, so disjoint
root ranges can mine concurrently with no shared state.  This module is
the ``workers=`` backend of :func:`~repro.itemsets.eclat.mine_eclat`,
:func:`~repro.itemsets.eclat.mine_eclat_typed` and
:func:`~repro.itemsets.closed.mine_closed`:

* the parent computes the frequent 1-items (including the ``within=``
  restriction — root covers ship already intersected, so workers never
  see the restriction at all) and packs their covers into **one**
  ``(1 + n_frequent, n_words)`` uint64 matrix in a
  :mod:`multiprocessing.shared_memory` segment (row 0 is the full
  cover, used by the typed mine) — workers map it read-only instead of
  receiving pickled copies;
* root positions are partitioned greedy largest-first by estimated
  subtree cost — root support × candidate-sibling count — so one heavy
  root cannot serialise the mine behind it (:func:`partition_roots`);
* every worker rebuilds its ``frequent`` list in the database's own
  codec over the shared words and runs the *identical* sequential
  kernels (:func:`~repro.itemsets.eclat.mine_root` /
  :func:`~repro.itemsets.eclat.mine_typed_root`) over its positions;
* the parent splices the per-root emission lists back in root-position
  order, which — because every itemset is emitted in exactly one root
  subtree — reproduces the sequential emission order **bit for bit**:
  same itemsets, same dict order, same supports, same cover bits, for
  any worker count.

Closed mode is the one place dedup is global: each worker keeps a local
closure map keyed by the packed cover digest (classes of equal covers;
the class's item union is its closure) and the parent merge-dedups the
per-worker maps vectorized — ``np.bitwise_or.at`` unions the item
masks, ``np.maximum.at`` keeps the max support (supports inside a class
are equal, so this is a no-op safety), ``np.minimum.at`` keeps the
earliest global emission key — then orders classes by that key, which
is exactly sequential ``mine_closed``'s insertion order.

Shared-memory discipline follows :mod:`repro.cube.parallel`: worker
views live only inside the compute frame so ``close()`` never hits
``BufferError`` (recorded covers are exported — copied out of the
segment — at emission time), attach/close in ``finally``, and the
parent's ``close()+unlink()`` in ``finally`` is the single cleanup
point on success *and* failure.  Worker exceptions surface as
:class:`~repro.errors.MiningError` in the parent; the pool's context
manager tears the workers down, so a raising worker cannot hang the
mine.  Workers are forked when the platform supports it and spawned
otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import count as _count
from multiprocessing import shared_memory

import numpy as np

from repro.errors import MiningError
from repro.itemsets import eclat
from repro.itemsets.coverset import (
    WORD_BITS,
    WORD_DTYPE,
    Cover,
    CoverSet,
    cover_digest,
    cover_words,
    get_codec,
)
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]


def resolve_workers(workers: "int | None") -> int:
    """Effective worker count: ``workers`` or one per CPU, at least 1."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    return max(1, int(workers))


def _mp_context():
    """Fork when available (cheap, inherits monkeypatches), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


_SEGMENT_SEQ = _count()


def _segment_name(tag: str) -> str:
    """A fresh, recognisably-ours shared-memory segment name.

    Naming segments explicitly (rather than letting the stdlib pick)
    lets the leak tests probe by name that every segment is unlinked on
    both the success and the failure path.
    """
    return f"repro-mine-{tag}-{os.getpid()}-{next(_SEGMENT_SEQ)}"


def partition_roots(
    supports: "list[int]", n_parts: int
) -> "list[list[int]]":
    """Greedy balanced partition of root positions by subtree cost.

    The cost estimate for root ``pos`` is ``support * siblings`` — the
    root's support times the number of candidate tail items — the
    classic proxy for eclat subtree work (a high-support root near the
    front of the sorted order has both a heavy cover and a long tail).
    Roots go largest-first onto the least-loaded partition; partitions
    are never empty (``n_parts`` is clamped) and each keeps its
    positions in ascending order.
    """
    n = len(supports)
    n_parts = max(1, min(n_parts, n))
    costs = [supports[pos] * (n - pos - 1) + 1 for pos in range(n)]
    parts: "list[list[int]]" = [[] for _ in range(n_parts)]
    loads = [0] * n_parts
    for pos in sorted(range(n), key=lambda p: -costs[p]):
        j = loads.index(min(loads))
        parts[j].append(pos)
        loads[j] += costs[pos]
    for part in parts:
        part.sort()
    return parts


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process mining configuration, set once by the pool initializer.
_WORKER_CFG: "dict | None" = None


def _init_worker(cfg: dict) -> None:
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _export_cover(cover: Cover) -> Cover:
    """A recorded cover with no shared-memory backing.

    DFS intersection results own their words already; only depth-1 root
    covers (views straight into the shared matrix) need copying.  The
    export is what makes results safe to pickle after the worker's
    segment is closed.
    """
    if isinstance(cover, CoverSet) and not cover.words.flags.owndata:
        return CoverSet(cover.words.copy(), cover.n_bits)
    return cover


def _frequent_from_matrix(matrix: np.ndarray, cfg: dict) -> list:
    """Rebuild the parent's ``frequent`` triples over the shared words.

    Covers come back in the database's own codec, so the worker runs
    the very same kernel over the very same cover types as the
    sequential mine (packed covers view the segment zero-copy; bool /
    ewah covers are re-encoded from the shared bits).
    """
    n_bits = cfg["n_bits"]
    items = cfg["items"]
    supports = cfg["supports"]
    if cfg["codec"] == "packed":
        covers = [
            CoverSet(matrix[i + 1], n_bits) for i in range(len(items))
        ]
    else:
        cls = get_codec(cfg["codec"])
        covers = [
            cls.from_bools(CoverSet(matrix[i + 1], n_bits).to_bools())
            for i in range(len(items))
        ]
    return [
        (item, covers[i], support)
        for i, (item, support) in enumerate(zip(items, supports))
    ]


def _compute_partition(buf, cfg: dict, positions: "list[int]"):
    """Mine one partition's root positions against the shared matrix.

    All views of ``buf`` live only inside this frame (and covers are
    exported at record time), so the caller can close its segment the
    moment this returns.
    """
    matrix = np.ndarray(
        (cfg["n_matrix_rows"], cfg["n_words"]), dtype=WORD_DTYPE,
        buffer=buf,
    )
    frequent = _frequent_from_matrix(matrix, cfg)
    minsup = cfg["minsup"]
    mode = cfg["mode"]

    if mode == "plain":
        out = []
        for pos in positions:
            emissions: list = []
            if cfg["with_covers"]:
                def record(its, cover, support):
                    emissions.append((its, _export_cover(cover), support))
            else:
                def record(its, cover, support):
                    emissions.append((its, support))
            eclat.mine_root(frequent, pos, minsup, cfg["max_len"], record)
            out.append((pos, emissions))
        return ("roots", out)

    if mode == "typed":
        n_bits = cfg["n_bits"]
        if cfg["codec"] == "packed":
            full_cover = CoverSet(matrix[0], n_bits)
        else:
            full_cover = get_codec(cfg["codec"]).from_bools(
                CoverSet(matrix[0], n_bits).to_bools()
            )
        sa_set = frozenset(cfg["sa_ids"])
        out = []
        for pos in positions:
            emissions = []

            def record(its, cover, support):
                emissions.append((its, _export_cover(cover), support))

            eclat.mine_typed_root(
                frequent, pos, full_cover, sa_set, minsup,
                cfg["max_sa"], cfg["max_ca"], record,
            )
            out.append((pos, emissions))
        return ("roots", out)

    # mode == "closed": a local closure map for this partition's roots,
    # exported as flat arrays for the parent's vectorized merge.
    mask_bytes = cfg["mask_bytes"]
    with_covers = cfg["with_covers"]
    classes: "dict[bytes, list]" = {}
    for pos in positions:
        ordinal = [0]

        def record(its, cover, support, pos=pos, ordinal=ordinal):
            key = cover_digest(cover)
            # Global emission rank of this itemset: root position in the
            # high bits, emission ordinal inside the root subtree below.
            order_key = (pos << 40) | ordinal[0]
            ordinal[0] += 1
            mask = 0
            for i in its:
                mask |= 1 << i
            entry = classes.get(key)
            if entry is None:
                classes[key] = [
                    mask, support, order_key,
                    _export_cover(cover) if with_covers else None,
                ]
            else:
                entry[0] |= mask
                if support > entry[1]:
                    entry[1] = support
                if order_key < entry[2]:
                    entry[2] = order_key

        eclat.mine_root(frequent, pos, minsup, None, record)

    k = len(classes)
    if k:
        digests = np.frombuffer(
            b"".join(classes.keys()), dtype=np.uint8
        ).reshape(k, 16)
        masks = np.frombuffer(
            b"".join(
                e[0].to_bytes(mask_bytes, "little")
                for e in classes.values()
            ),
            dtype=np.uint8,
        ).reshape(k, mask_bytes)
    else:
        digests = np.zeros((0, 16), dtype=np.uint8)
        masks = np.zeros((0, mask_bytes), dtype=np.uint8)
    supports = np.fromiter(
        (e[1] for e in classes.values()), dtype=np.int64, count=k
    )
    order_keys = np.fromiter(
        (e[2] for e in classes.values()), dtype=np.int64, count=k
    )
    covers = [e[3] for e in classes.values()] if with_covers else None
    return ("closed", digests, masks, supports, order_keys, covers)


def _mine_partition(positions: "list[int]"):
    """Pool task: attach the shared matrix, mine one root partition."""
    cfg = _WORKER_CFG
    # Attaching re-registers the segment with the resource tracker; pool
    # workers share the parent's tracker, whose cache has set semantics,
    # so the parent's unlink() stays the single point of cleanup.
    shm = shared_memory.SharedMemory(name=cfg["covers_shm"])
    try:
        return _compute_partition(shm.buf, cfg, positions)
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def _run_pool(
    db: TransactionDatabase,
    frequent: list,
    cfg: dict,
    workers: "int | None",
) -> "tuple[list, list[int]]":
    """Ship the cover matrix via shared memory, map root partitions.

    Returns the raw per-partition results plus the partition sizes (for
    benchmark reporting).  The segment is closed and unlinked in
    ``finally`` — success or failure — and any worker exception is
    re-raised as :class:`MiningError` after the pool has been torn
    down by its context manager.
    """
    n_bits = len(db)
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    matrix = np.zeros((1 + len(frequent), n_words), dtype=WORD_DTYPE)
    matrix[0] = cover_words(db.full_cover())
    for i, (_, cover, _) in enumerate(frequent):
        matrix[i + 1] = cover_words(cover)
    partitions = partition_roots(
        [support for _, _, support in frequent],
        resolve_workers(workers),
    )
    shm = shared_memory.SharedMemory(
        create=True, name=_segment_name("covers"),
        size=max(1, matrix.nbytes),
    )
    try:
        # The temporary viewing the shm buffer dies with the statement,
        # leaving the segment export-free for close()/unlink().
        np.ndarray(matrix.shape, WORD_DTYPE, buffer=shm.buf)[:] = matrix
        cfg = {
            **cfg,
            "covers_shm": shm.name,
            "n_matrix_rows": matrix.shape[0],
            "n_words": n_words,
            "n_bits": n_bits,
            "codec": db.codec,
            "items": [item for item, _, _ in frequent],
            "supports": [support for _, _, support in frequent],
        }
        del matrix
        results: list = []
        ctx = _mp_context()
        with ctx.Pool(
            processes=len(partitions),
            initializer=_init_worker,
            initargs=(cfg,),
        ) as pool:
            try:
                for part in pool.imap_unordered(
                    _mine_partition, partitions
                ):
                    results.append(part)
            except MiningError:
                raise
            except Exception as exc:
                raise MiningError(
                    f"parallel mining worker failed: {exc!r}"
                ) from exc
        return results, [len(p) for p in partitions]
    finally:
        shm.close()
        shm.unlink()


def _splice_roots(parts: list) -> "list[tuple]":
    """Per-root emission lists in ascending root-position order."""
    by_pos: "dict[int, list]" = {}
    for tag, root_results in parts:
        for pos, emissions in root_results:
            by_pos[pos] = emissions
    return [by_pos[pos] for pos in sorted(by_pos)]


def mine_eclat_parallel(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
    within: "Cover | np.ndarray | None" = None,
    workers: "int | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """``mine_eclat`` across a worker pool; bit-identical output.

    The pool runs even for ``workers=1``, so a one-worker mine
    exercises the genuine multiprocess path (the parity baseline in
    tests and the selfcheck).
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = eclat.frequent_triples(db, minsup, items=items, within=within)
    if not frequent:
        return {}
    cfg = {
        "mode": "plain",
        "minsup": minsup,
        "max_len": max_len,
        "with_covers": with_covers,
    }
    parts, _ = _run_pool(db, frequent, cfg, workers)
    out: dict = {}
    for emissions in _splice_roots(parts):
        if with_covers:
            for its, cover, _ in emissions:
                out[frozenset(its)] = cover
        else:
            for its, support in emissions:
                out[frozenset(its)] = support
    return out


def mine_eclat_typed_parallel(
    db: TransactionDatabase,
    minsup: int,
    sa_ids: "list[int]",
    ca_ids: "list[int]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
    workers: "int | None" = None,
) -> "dict[Itemset, Cover]":
    """``mine_eclat_typed`` across a worker pool; bit-identical output."""
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = eclat.typed_frequent_triples(db, minsup, sa_ids, ca_ids)
    out: "dict[Itemset, Cover]" = {frozenset(): db.full_cover()}
    if not frequent:
        return out
    cfg = {
        "mode": "typed",
        "minsup": minsup,
        "with_covers": True,
        "sa_ids": list(sa_ids),
        "max_sa": max_sa,
        "max_ca": max_ca,
    }
    parts, _ = _run_pool(db, frequent, cfg, workers)
    for emissions in _splice_roots(parts):
        for its, cover, _ in emissions:
            out[frozenset(its)] = cover
    return out


def _closure_partition(entries: "list[tuple]"):
    """Pool task: bulk closedness flags for one candidate chunk."""
    from repro.itemsets.closed import closure_flag_entries

    cfg = _WORKER_CFG
    shm = shared_memory.SharedMemory(name=cfg["covers_shm"])
    try:
        matrix = np.ndarray(
            (cfg["n_matrix_rows"], cfg["n_words"]), dtype=WORD_DTYPE,
            buffer=shm.buf,
        )
        return closure_flag_entries(
            matrix, cfg["n_sa"], cfg["max_sa"], cfg["max_ca"], entries,
        )
    finally:
        shm.close()


def closure_flags_parallel(
    db: TransactionDatabase,
    candidates: "dict[Itemset, Cover]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
    workers: "int | None" = None,
) -> "dict[Itemset, bool]":
    """``closure_flags`` across a worker pool; identical output.

    The parent packs the per-item cover matrix
    (:func:`repro.itemsets.closed.closure_matrix`) into one
    shared-memory segment; candidate entries — key, member rows, cover
    words as raw bytes, support — chunk round-robin across the pool and
    each worker runs the same :func:`closure_flag_entries` kernel.
    Same segment discipline as :func:`_run_pool`: views die inside the
    worker frame, parent ``close()+unlink()`` in ``finally``.
    """
    from repro.itemsets.closed import closure_matrix

    out: "dict[Itemset, bool]" = {}
    split = db.dictionary.split
    matrix, n_sa, row_of = closure_matrix(db)
    entries: "list[tuple]" = []
    for itemset, cover in candidates.items():
        if not itemset:
            out[itemset] = True
            continue
        sa_part, ca_part = split(itemset)
        entries.append((
            itemset,
            tuple(row_of[i] for i in itemset),
            len(sa_part), len(ca_part),
            cover_words(cover).tobytes(), cover.support(),
        ))
    if not entries:
        return out
    n_parts = max(1, min(resolve_workers(workers), len(entries)))
    chunks = [entries[i::n_parts] for i in range(n_parts)]
    shm = shared_memory.SharedMemory(
        create=True, name=_segment_name("closure"),
        size=max(1, matrix.nbytes),
    )
    try:
        np.ndarray(matrix.shape, WORD_DTYPE, buffer=shm.buf)[:] = matrix
        cfg = {
            "covers_shm": shm.name,
            "n_matrix_rows": matrix.shape[0],
            "n_words": matrix.shape[1],
            "n_sa": n_sa,
            "max_sa": max_sa,
            "max_ca": max_ca,
        }
        del matrix
        ctx = _mp_context()
        with ctx.Pool(
            processes=n_parts,
            initializer=_init_worker,
            initargs=(cfg,),
        ) as pool:
            try:
                for part in pool.imap_unordered(
                    _closure_partition, chunks
                ):
                    out.update(part)
            except MiningError:
                raise
            except Exception as exc:
                raise MiningError(
                    f"parallel closure worker failed: {exc!r}"
                ) from exc
        return out
    finally:
        shm.close()
        shm.unlink()


def mine_closed_parallel(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    with_covers: bool = False,
    workers: "int | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """``mine_closed`` across a worker pool; bit-identical output.

    Workers return closure classes keyed by cover digest; the parent
    merges them vectorized (item-mask unions, max support, earliest
    emission key) and emits classes in first-emission order — exactly
    the sequential insertion order, for any worker count.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = eclat.frequent_triples(db, minsup, items=items)
    if not frequent:
        return {}
    mask_bytes = max(1, (db.n_items + 7) // 8)
    cfg = {
        "mode": "closed",
        "minsup": minsup,
        "with_covers": with_covers,
        "mask_bytes": mask_bytes,
    }
    parts, _ = _run_pool(db, frequent, cfg, workers)
    digests = np.concatenate([p[1] for p in parts])
    masks = np.concatenate([p[2] for p in parts])
    supports = np.concatenate([p[3] for p in parts])
    order_keys = np.concatenate([p[4] for p in parts])
    covers: "list | None" = None
    if with_covers:
        covers = [c for p in parts for c in p[5]]
    if len(digests) == 0:
        return {}

    void = np.ascontiguousarray(digests).view(
        np.dtype((np.void, digests.shape[1]))
    ).ravel()
    uniq, inverse = np.unique(void, return_inverse=True)
    k = len(uniq)
    merged_masks = np.zeros((k, mask_bytes), dtype=np.uint8)
    np.bitwise_or.at(merged_masks, inverse, masks)
    merged_supports = np.zeros(k, dtype=np.int64)
    np.maximum.at(merged_supports, inverse, supports)
    merged_keys = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(merged_keys, inverse, order_keys)

    cover_of_class: "dict[int, Cover]" = {}
    if with_covers:
        # Deterministic representative: the entry carrying the class's
        # earliest emission key (emission keys are globally unique, so
        # this does not depend on pool arrival order).
        for j in range(len(order_keys)):
            c = int(inverse[j])
            if order_keys[j] == merged_keys[c]:
                cover_of_class[c] = covers[j]

    bits = np.unpackbits(merged_masks, axis=1, bitorder="little")
    out: dict = {}
    for c in np.argsort(merged_keys, kind="stable"):
        itemset = frozenset(np.flatnonzero(bits[c]).tolist())
        out[itemset] = (
            cover_of_class[int(c)] if with_covers
            else int(merged_supports[c])
        )
    return out
