"""Transaction databases: the mining-ready encoding of ``finalTable``.

"Relational data is transformed into transaction database for itemset
mining" (paper §2): every row of ``finalTable`` becomes a transaction
whose items are the ``attribute=value`` pairs of its SA and CA columns;
multi-valued attributes contribute one item per member "for free".
The unit id is *not* an item — it rides along as a per-transaction label
so the builder can split any cover into per-unit counts.

Storage is columnar throughout: transactions live in a CSR-style pair of
arrays (``indptr`` offsets into a flat, per-row-sorted ``indices`` item
array), and the vertical layout — one cover per item — is served as
packed-bitmap :class:`~repro.itemsets.coverset.CoverSet` objects (or the
``"bool"`` / ``"ewah"`` codecs) rather than dense byte-per-transaction
boolean arrays.  Encoding, per-item supports and per-unit splitting are
all vectorized; no per-row Python loop touches the hot path.

Rows are stored **clustered by unit**: every constructor sorts the
transactions by unit label (stably, so rows of one unit keep their table
order) and keeps the permutation as ``row_order`` — stored row ``i`` is
table row ``row_order[i]``.  Each unit then owns one contiguous bit
range of every cover, which is what lets
:meth:`~TransactionDatabase.unit_counts_many` count a packed cover with
word popcounts and one prefix difference per unit boundary instead of a
per-row gather.
Covers (and ``units``, ``rows``) speak the stored order; every API that
takes table row masks — :meth:`~TransactionDatabase.as_cover`,
:meth:`~TransactionDatabase.restrict`, the ``unit_counts`` methods on
boolean arrays, ``within=`` masks — maps them through ``row_order``, and
:meth:`~TransactionDatabase.table_mask` maps a cover back.

Two encoding paths produce the same database bit for bit:

* :func:`encode_table` — one-shot, for tables that fit in memory;
* :class:`EncodeAccumulator` / :meth:`TransactionDatabase.from_chunks` —
  append-only, folding fixed-size table chunks (see
  :mod:`repro.etl.stream`) into the CSR store as they arrive, with an
  optional ``np.memmap`` disk spill once the accumulated index buffers
  exceed a byte budget.  This is the out-of-core path: no per-row
  Python lists and no full-input item arrays are ever held in memory.
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import MiningError
from repro.etl.schema import Role, Schema
from repro.etl.table import CategoricalColumn, MultiValuedColumn, Table
from repro.itemsets.coverset import (
    WORD_BITS,
    Cover,
    CoverSet,
    cover_words,
    get_codec,
    popcount_each,
)
from repro.itemsets.items import Item, ItemDictionary, ItemKind

#: Target entry count of one merge window in the chunked-encode
#: finalisation (bounds scratch at a few dozen MB regardless of input).
_ENCODE_WINDOW_ENTRIES = 1 << 22

#: Words per chunk of the segmented unit-count kernel: a cache-sized
#: block (1 MB of cover words) beats larger chunks on the build covers.
_SEGMENT_CHUNK_WORDS = 1 << 17


class TransactionDatabase:
    """An immutable transaction database with per-transaction unit labels.

    Attributes
    ----------
    rows:
        One sorted tuple of item ids per transaction (materialised lazily
        from the CSR arrays; the horizontal view used by FP-growth and
        Apriori).
    dictionary:
        The :class:`~repro.itemsets.items.ItemDictionary` describing ids.
    units:
        Optional ``int64`` array with the unit id of each transaction,
        in stored order (ascending: rows are clustered by unit).
    row_order:
        ``int64`` permutation from stored rows to table rows: stored row
        ``i`` is row ``row_order[i]`` of the encoded table (the identity
        when the table was already sorted by unit, or is unlabelled).
    codec:
        Cover representation: ``"packed"`` (default), ``"bool"`` or
        ``"ewah"`` — see :mod:`repro.itemsets.coverset`.
    """

    def __init__(
        self,
        rows: Sequence[tuple[int, ...]],
        dictionary: ItemDictionary,
        units: np.ndarray | None = None,
        codec: str = "packed",
    ):
        normalized = [tuple(sorted(set(r))) for r in rows]
        lengths = np.fromiter(
            (len(r) for r in normalized), dtype=np.int64, count=len(normalized)
        )
        indptr = np.zeros(len(normalized) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(normalized), dtype=np.int64,
            count=int(indptr[-1]),
        )
        self._init(indptr, indices, dictionary, units, codec)
        self._rows = [normalized[i] for i in self.row_order]

    @classmethod
    def from_item_arrays(
        cls,
        row_ids: np.ndarray,
        item_ids: np.ndarray,
        n_rows: int,
        dictionary: ItemDictionary,
        units: np.ndarray | None = None,
        codec: str = "packed",
    ) -> "TransactionDatabase":
        """Build from flat ``(row, item)`` pair arrays (vectorized path).

        Pairs may arrive unsorted and with duplicates; they are sorted by
        ``(row, item)`` and deduplicated here, so encoders can simply
        concatenate per-column contributions.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if len(row_ids) != len(item_ids):
            raise MiningError(
                f"{len(row_ids)} row ids for {len(item_ids)} item ids"
            )
        if len(row_ids):
            if row_ids.min() < 0 or row_ids.max() >= n_rows:
                raise MiningError("transaction row id out of range")
            if item_ids.min() < 0 or item_ids.max() >= len(dictionary):
                raise MiningError("item id out of range for dictionary")
        order = np.lexsort((item_ids, row_ids))
        r, it = row_ids[order], item_ids[order]
        if len(r):
            keep = np.ones(len(r), dtype=bool)
            keep[1:] = (r[1:] != r[:-1]) | (it[1:] != it[:-1])
            r, it = r[keep], it[keep]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=indptr[1:])
        db = cls.__new__(cls)
        db._init(indptr, it, dictionary, units, codec)
        db._rows = None
        return db

    @classmethod
    def from_chunks(
        cls,
        chunks: "Iterable[Table]",
        schema: Schema,
        codec: str = "packed",
        spill_bytes: "int | None" = None,
        scratch_dir: "str | Path | None" = None,
    ) -> "TransactionDatabase":
        """Encode a stream of table chunks into one database.

        The chunks are folded append-only through an
        :class:`EncodeAccumulator`; the result is **bit-identical** to
        :func:`encode_table` on the concatenated table (same item ids,
        same CSR arrays, same unit labels), but the full input never has
        to exist in memory at once.  ``spill_bytes`` bounds the RAM the
        accumulated item-index buffers may occupy before they spill to
        ``np.memmap`` scratch files under ``scratch_dir`` (a temporary
        directory by default, removed when encoding completes).
        """
        accumulator = EncodeAccumulator(
            schema, codec=codec, spill_bytes=spill_bytes,
            scratch_dir=scratch_dir,
        )
        for chunk in chunks:
            accumulator.add_chunk(chunk)
        return accumulator.finalize()

    def _init(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        dictionary: ItemDictionary,
        units: np.ndarray | None,
        codec: str,
    ) -> None:
        """Store a table-order CSR, clustering its rows by unit label."""
        get_codec(codec)  # validate the name eagerly
        n = len(indptr) - 1
        row_order = np.arange(n, dtype=np.int64)
        bounds: np.ndarray | None = None
        if units is not None:
            units = np.asarray(units, dtype=np.int64)
            if len(units) != n:
                raise MiningError(
                    f"{len(units)} unit labels for {n} transactions"
                )
            if n and units.min() < 0:
                raise MiningError("unit ids must be non-negative")
            if np.any(units[1:] < units[:-1]):
                row_order = np.argsort(units, kind="stable")
                units = units[row_order]
                indptr, indices = _permute_rows(indptr, indices, row_order)
            sizes = np.bincount(units)
            bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=bounds[1:])
        self._indptr = indptr
        self._indices = indices
        self.dictionary = dictionary
        self.codec = codec
        self.units = units
        self.row_order = row_order
        # Unit u owns stored rows [bounds[u], bounds[u + 1]).
        self._unit_bounds = bounds
        self._covers: dict[int, Cover] | None = None
        self._item_supports: np.ndarray | None = None
        self._active: Cover | None = None

    def restrict(self, active: "Cover | np.ndarray") -> "TransactionDatabase":
        """A view of this database with only ``active`` rows live.

        The restricted view keeps the *same row universe* (covers stay
        ``len(self)`` bits wide, unit labels and item ids are shared),
        but every item cover is intersected with ``active`` and the
        empty itemset's cover *is* ``active`` — so supports, mined
        itemsets and per-unit counts all describe the active subset
        only.  This is the temporal-snapshot primitive: encode the
        union-of-all-dates table once, then restrict it per snapshot
        date; covers of two dates remain directly comparable because
        they index the same rows (see :mod:`repro.cube.incremental`).

        ``active`` is a table-order boolean mask or a cover of this
        database (see :meth:`as_cover`).  Construction is cheap — one
        cover AND per item — and the row layout is shared with the base
        database.  The horizontal ``rows`` view is not available on a
        restricted database (it would expose inactive rows), so the
        cover-free mining backends (fpgrowth/apriori) reject it.
        """
        if len(active) != len(self):
            raise MiningError(
                f"active mask of {len(active)} rows does not match "
                f"database of {len(self)}"
            )
        active_cover = self.as_cover(active)
        if self._active is not None:
            # Restricting a restricted view composes: the item covers
            # below are already intersected with the base restriction,
            # so the active set must be too.
            active_cover = self._active & active_cover
        db = TransactionDatabase.__new__(TransactionDatabase)
        db._indptr = self._indptr
        db._indices = self._indices
        db.dictionary = self.dictionary
        db.codec = self.codec
        db.units = self.units
        db._rows = None
        db._covers = {
            i: cover & active_cover for i, cover in self.covers().items()
        }
        db._item_supports = None
        db.row_order = self.row_order
        db._unit_bounds = self._unit_bounds
        db._active = active_cover
        return db

    @property
    def n_active(self) -> int:
        """Number of live transactions (all of them unless restricted)."""
        if self._active is None:
            return len(self)
        return self._active.support()

    @property
    def rows(self) -> "list[tuple[int, ...]]":
        """Horizontal view: one sorted item-id tuple per transaction."""
        if self._active is not None:
            raise MiningError(
                "the horizontal rows view is unavailable on a restricted "
                "database (it would expose inactive rows); mine restricted "
                "databases with the cover-based eclat backend"
            )
        if self._rows is None:
            indptr, indices = self._indptr, self._indices
            self._rows = [
                tuple(indices[indptr[t]:indptr[t + 1]].tolist())
                for t in range(len(self))
            ]
        return self._rows

    def __len__(self) -> int:
        return len(self._indptr) - 1

    @property
    def n_items(self) -> int:
        return len(self.dictionary)

    @property
    def n_units(self) -> int:
        """Number of distinct unit labels (0 when unlabelled)."""
        if self._unit_bounds is None:
            return 0
        return len(self._unit_bounds) - 1

    def item_supports(self) -> np.ndarray:
        """Support (transaction count) of every single item, vectorized."""
        if self._active is not None:
            covers = self.covers()
            return np.fromiter(
                (covers[i].support() for i in range(self.n_items)),
                dtype=np.int64, count=self.n_items,
            )
        return np.bincount(self._indices, minlength=self.n_items)

    def cached_item_supports(self) -> np.ndarray:
        """:meth:`item_supports`, computed once and cached.

        Mining entry points consult per-item supports on every call; the
        incremental engine in particular mines once per affected context
        against the *same* restricted snapshot view, so caching turns
        its per-context support scans into a single one.  The array is
        owned by the database — callers must not mutate it.
        """
        if self._item_supports is None:
            self._item_supports = self.item_supports()
        return self._item_supports

    def covers(self) -> "dict[int, Cover]":
        """Vertical layout: one :class:`Cover` per item id (cached).

        Built in one vectorized pass: the CSR item array is argsorted by
        item, handing every item its covered-row list, which the active
        codec packs into its cover representation.
        """
        if self._covers is None:
            codec = get_codec(self.codec)
            n = len(self)
            order = np.argsort(self._indices, kind="stable")
            row_of = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self._indptr)
            )
            sorted_rows = row_of[order]
            sorted_items = self._indices[order]
            bounds = np.searchsorted(
                sorted_items, np.arange(self.n_items + 1)
            )
            self._covers = {
                i: codec.from_indices(sorted_rows[bounds[i]:bounds[i + 1]], n)
                for i in range(self.n_items)
            }
        return self._covers

    def full_cover(self) -> Cover:
        """The empty itemset's cover: every live transaction.

        All rows for a plain database; the active subset for a
        restricted view (see :meth:`restrict`).
        """
        if self._active is not None:
            return self._active
        return get_codec(self.codec).ones(len(self))

    def as_cover(self, value: "Cover | np.ndarray") -> Cover:
        """A cover of this database from a table-order boolean mask.

        The mask is permuted into stored order through ``row_order``.
        A cover passes through unchanged (re-encoded when it is of
        another codec): covers already speak the stored order.
        """
        codec = get_codec(self.codec)
        if isinstance(value, codec):
            return value
        return codec.from_bools(self._stored_bools(value))

    def table_mask(self, cover: Cover) -> np.ndarray:
        """A cover's rows as a table-order boolean mask (inverts
        :meth:`as_cover`)."""
        self._check_width(len(cover))
        mask = np.empty(len(self), dtype=bool)
        mask[self.row_order] = cover.to_bools()
        return mask

    def _check_width(self, n_bits: int) -> None:
        if n_bits != len(self):
            raise MiningError(
                f"cover of {n_bits} transactions does not match "
                f"database of {len(self)}"
            )

    def cover_of(self, itemset: Iterable[int]) -> Cover:
        """Cover of an itemset (word-wise AND of its item covers)."""
        covers = self.covers()
        result: Cover | None = None
        for i in itemset:
            if i not in covers:
                raise MiningError(f"item id {i} out of range")
            result = covers[i] if result is None else result & covers[i]
        if result is None:
            return self.full_cover()
        return result

    def support_of(self, itemset: Iterable[int]) -> int:
        """Absolute support of an itemset."""
        return self.cover_of(itemset).support()

    def unit_counts(self, cover: "Cover | np.ndarray") -> np.ndarray:
        """Per-unit transaction counts restricted to ``cover``.

        ``cover`` is a cover of this database or a table-order boolean
        mask; the count runs through :meth:`unit_counts_many`'s kernel.
        """
        return self.unit_counts_many([cover])[0]

    def unit_counts_many(
        self,
        covers: "Sequence[Cover | np.ndarray]",
        max_chunk_indices: int = 1 << 22,
    ) -> np.ndarray:
        """Per-unit counts of many covers in one grouped pass.

        Returns an ``(len(covers), n_units)`` int64 matrix whose row
        ``j`` equals ``unit_counts(covers[j])`` — the minority-count
        matrix the columnar cube fill batches its index kernels over.
        The kernel is chosen from the database's shape:

        * **segmented** when units average at least 64 rows
          (``n_units <= n_words``): rows are clustered by unit, so unit
          ``u``'s count is ``C(bounds[u + 1]) - C(bounds[u])`` where
          ``C(r)`` counts the covered rows below ``r`` — word popcounts
          summed between boundary words, a prefix sum over those
          segments, plus one masked popcount of the boundary word.
          O(n_words + n_units) per cover.
        * **gather** otherwise (thousands of few-row units): every
          cover contributes the unit labels of its covered rows with
          one masked gather, and a chunk of covers is counted with a
          single flat ``bincount`` over combined ``(cover, unit)``
          keys.  O(n_rows) per cover, but cheaper than touching
          ``n_units`` boundaries per cover when units are tiny.

        ``max_chunk_indices`` bounds the scratch of one chunk: gathered
        labels (default ~4M, i.e. ~32 MB), or cover words, which the
        segmented kernel further caps at a cache-sized block.  The
        returned matrix itself still scales with ``len(covers) *
        n_units``, so callers needing bounded peak memory batch their
        cover lists (as the columnar cube fill does per context group).
        """
        if self.units is None:
            raise MiningError("transaction database has no unit labels")
        covers = list(covers)
        out = np.zeros((len(covers), self.n_units), dtype=np.int64)
        n_words = (len(self) + WORD_BITS - 1) // WORD_BITS
        if 0 < self.n_units <= n_words:
            self._count_segmented(covers, out, n_words, max_chunk_indices)
        else:
            self._count_gathered(covers, out, max_chunk_indices)
        return out

    def _count_segmented(
        self,
        covers: "list[Cover | np.ndarray]",
        out: np.ndarray,
        n_words: int,
        max_chunk_indices: int,
    ) -> None:
        bounds = self._unit_bounds
        word = bounds // WORD_BITS
        # A boundary at n_rows on a word edge has no word of its own;
        # its mask is empty, so any in-range word serves the gather.
        edge = np.minimum(word, n_words - 1)
        below = (
            np.uint64(1) << (bounds % WORD_BITS).astype(np.uint64)
        ) - np.uint64(1)
        # Popcounts are summed only between distinct boundary words
        # (strictly increasing starts, as reduceat needs); the prefix
        # sum of those segments is the covered-row count below each
        # boundary word, and column len(starts) is the total (word ==
        # n_words).
        starts = np.unique(np.concatenate(([0], word[word < n_words])))
        column = np.searchsorted(starts, word)
        step = max(1, min(max_chunk_indices, _SEGMENT_CHUNK_WORDS) // n_words)
        for a in range(0, len(covers), step):
            words = np.stack(
                [self._stored_words(c) for c in covers[a:a + step]]
            )
            segments = np.add.reduceat(
                popcount_each(words), starts, axis=1, dtype=np.int64
            )
            prefix = np.zeros((len(words), len(starts) + 1), dtype=np.int64)
            np.cumsum(segments, axis=1, out=prefix[:, 1:])
            below_bounds = prefix[:, column] + popcount_each(
                words[:, edge] & below
            )
            out[a:a + len(words)] = np.diff(below_bounds, axis=1)

    def _count_gathered(
        self,
        covers: "list[Cover | np.ndarray]",
        out: np.ndarray,
        max_chunk_indices: int,
    ) -> None:
        n_units = self.n_units

        def flush(start: int, parts: "list[np.ndarray]") -> None:
            k = len(parts)
            lengths = np.fromiter(
                (len(p) for p in parts), dtype=np.int64, count=k
            )
            flat = np.concatenate(parts)
            base = np.repeat(
                np.arange(k, dtype=np.int64) * n_units, lengths
            )
            out[start:start + k] = np.bincount(
                base + flat, minlength=k * n_units
            ).reshape(k, n_units)

        chunk_start = 0
        chunk_parts: list[np.ndarray] = []
        budget = 0
        for idx, cover in enumerate(covers):
            labels = self.units[self._stored_bools(cover)]
            # Flush the pending chunk before this cover would overflow
            # it: flushed chunks never exceed the scratch bound unless
            # one cover alone does.
            if chunk_parts and budget + len(labels) > max_chunk_indices:
                flush(chunk_start, chunk_parts)
                chunk_start, chunk_parts, budget = idx, [], 0
            chunk_parts.append(labels)
            budget += len(labels)
        if chunk_parts:
            flush(chunk_start, chunk_parts)

    def _stored_bools(self, cover: "Cover | np.ndarray") -> np.ndarray:
        """Stored-order flags of a cover or table-order mask."""
        if isinstance(cover, Cover):
            self._check_width(len(cover))
            return cover.to_bools()
        flags = np.asarray(cover, dtype=bool)
        self._check_width(len(flags))
        return flags[self.row_order]

    def _stored_words(self, cover: "Cover | np.ndarray") -> np.ndarray:
        """Stored-order packed words of a cover or table-order mask."""
        if isinstance(cover, Cover):
            self._check_width(len(cover))
            return cover_words(cover)
        return CoverSet.from_bools(self._stored_bools(cover)).words


def encode_table(
    table: Table, schema: Schema, codec: str = "packed"
) -> TransactionDatabase:
    """Encode a ``finalTable`` into a :class:`TransactionDatabase`.

    Each SA/CA column contributes items of the matching kind; the schema's
    unit column becomes the per-transaction unit label.  Rows are stored
    clustered by unit; ``db.row_order`` maps stored rows back to table
    rows, and :meth:`TransactionDatabase.as_cover` /
    :meth:`~TransactionDatabase.table_mask` translate row masks.

    Encoding is vectorized: each categorical column is translated in one
    shot by indexing a category→item-id array with its code array, and
    multi-valued columns flatten their code tuples once; no intermediate
    per-row item lists are built.
    """
    schema.validate(table)
    dictionary = ItemDictionary()
    n = len(table)
    all_rows = np.arange(n, dtype=np.int64)
    row_parts: list[np.ndarray] = []
    item_parts: list[np.ndarray] = []
    for spec in schema.specs:
        if spec.role is Role.SEGREGATION:
            kind = ItemKind.SA
        elif spec.role is Role.CONTEXT:
            kind = ItemKind.CA
        else:
            continue
        col = table.column(spec.name)
        if isinstance(col, CategoricalColumn):
            ids = np.array(
                [dictionary.add(Item(spec.name, value), kind)
                 for value in col.categories],
                dtype=np.int64,
            )
            row_parts.append(all_rows)
            item_parts.append(ids[col.codes])
        elif isinstance(col, MultiValuedColumn):
            ids = np.array(
                [dictionary.add(Item(spec.name, value), kind)
                 for value in col.categories],
                dtype=np.int64,
            )
            lengths, flat = _mv_lengths_flat(col.rows, n)
            row_parts.append(np.repeat(all_rows, lengths))
            item_parts.append(ids[flat])
        else:
            raise MiningError(
                f"cannot encode column {spec.name!r} of kind {col.kind}"
            )
    if row_parts:
        row_ids = np.concatenate(row_parts)
        item_ids = np.concatenate(item_parts)
    else:
        row_ids = np.zeros(0, dtype=np.int64)
        item_ids = np.zeros(0, dtype=np.int64)
    units: np.ndarray | None = None
    unit_names = [s.name for s in schema.specs if s.role is Role.UNIT]
    if unit_names:
        units = table.ints(unit_names[0]).data
    return TransactionDatabase.from_item_arrays(
        row_ids, item_ids, n, dictionary, units, codec
    )


def _permute_rows(
    indptr: np.ndarray, indices: np.ndarray, order: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Reorder CSR rows: new row ``i`` is old row ``order[i]``."""
    lengths = np.diff(indptr)[order]
    new_indptr = np.zeros(len(indptr), dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    src = np.repeat(indptr[:-1][order] - new_indptr[:-1], lengths)
    src += np.arange(len(src), dtype=np.int64)
    return new_indptr, indices[src]


def _mv_lengths_flat(
    rows: "Sequence[tuple[int, ...]]", n: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row set sizes and flattened codes in one pass over ``rows``.

    Single traversal of the code tuples (lengths and flat values are
    collected together), instead of one ``np.fromiter`` pass for the
    lengths and a second full ``chain.from_iterable`` materialisation
    for the values.  Output is bit-identical to the two-pass form.
    """
    lengths = np.empty(n, dtype=np.int64)
    flat_list: "list[int]" = []
    for i, row in enumerate(rows):
        lengths[i] = len(row)
        flat_list.extend(row)
    flat = np.asarray(flat_list, dtype=np.int64)
    return lengths, flat


class _SpillBuffer:
    """Append-only ``int64`` sequence with an optional disk spill.

    Arrays are appended in RAM; :meth:`spill` moves everything pending
    to a scratch file (raw little-endian int64, appended), and
    :meth:`finalize` hands back the whole logical sequence — either a
    single in-memory array or a read-only ``np.memmap`` over the
    scratch file.  The accumulator owns the scratch directory lifetime.
    """

    def __init__(self, path: Path):
        self._path = path
        self._file = None
        self._parts: "list[np.ndarray]" = []
        self.pending_bytes = 0
        self._spilled_len = 0

    @property
    def spilled(self) -> bool:
        return self._file is not None

    def append(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if len(arr) == 0:
            return
        self._parts.append(arr)
        self.pending_bytes += arr.nbytes

    def spill(self) -> None:
        if not self._parts:
            return
        if self._file is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self._path.open("wb")
        for arr in self._parts:
            arr.tofile(self._file)
            self._spilled_len += len(arr)
        self._file.flush()
        self._parts = []
        self.pending_bytes = 0

    def finalize(self) -> np.ndarray:
        """The whole appended sequence, memmapped when spilled."""
        if self._file is not None:
            self.spill()
            self._file.close()
            self._file = None
            if self._spilled_len == 0:
                return np.zeros(0, dtype=np.int64)
            return np.memmap(
                self._path, dtype=np.int64, mode="r",
                shape=(self._spilled_len,),
            )
        if not self._parts:
            return np.zeros(0, dtype=np.int64)
        if len(self._parts) == 1:
            return self._parts[0]
        return np.concatenate(self._parts)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class _SpecState:
    """Per-attribute accumulation state: category universe + buffers."""

    __slots__ = ("spec", "kind", "multi", "index", "categories", "codes",
                 "rows")

    def __init__(self, spec, kind: ItemKind, multi: bool, scratch: Path):
        self.spec = spec
        self.kind = kind
        self.multi = multi
        self.index: "dict[object, int]" = {}
        self.categories: "list[object]" = []
        self.codes = _SpillBuffer(scratch / f"{spec.name}.codes.i64")
        self.rows = (
            _SpillBuffer(scratch / f"{spec.name}.rows.i64") if multi
            else None
        )

    def translate(self, chunk_categories: "Sequence[object]") -> np.ndarray:
        """Chunk-local category codes -> global per-column codes.

        Global codes are assigned in first-seen order across the whole
        stream, which — because chunks arrive in row order — is exactly
        the order :class:`~repro.etl.table.CategoricalColumn.from_values`
        assigns them on the concatenated table.  That is what makes the
        chunked encode bit-identical to the one-shot encode.
        """
        mapping = np.empty(len(chunk_categories), dtype=np.int64)
        for local, value in enumerate(chunk_categories):
            code = self.index.get(value)
            if code is None:
                code = len(self.categories)
                self.index[value] = code
                self.categories.append(value)
            mapping[local] = code
        return mapping


class EncodeAccumulator:
    """Append-only encoder: fold table chunks into one CSR database.

    The out-of-core counterpart of :func:`encode_table`: chunks stream
    through :meth:`add_chunk` (each validated against the schema), the
    per-column category universes accumulate in first-seen order, and
    the per-item index buffers either stay in RAM or — once they exceed
    ``spill_bytes`` — spill to ``np.memmap`` scratch files.
    :meth:`finalize` merges the buffers into the CSR arrays in bounded
    row windows (one small ``lexsort`` per window, never a full-input
    sort) and returns a :class:`TransactionDatabase` **bit-identical**
    to ``encode_table`` on the concatenated table.

    Notes
    -----
    * The category universe is the *observed* values: a category carried
      by a column but appearing in no row contributes no item (identical
      to ``encode_table`` on any ``from_values``-built table).
    * ``spill_bytes`` budgets the item-index buffers only; the unit
      labels (8 bytes/row) and the final CSR arrays are in-memory.
    * Scratch files live in a private temporary directory (or under
      ``scratch_dir``) and are removed when :meth:`finalize` returns or
      :meth:`close` is called.
    """

    def __init__(
        self,
        schema: Schema,
        codec: str = "packed",
        spill_bytes: "int | None" = None,
        scratch_dir: "str | Path | None" = None,
    ):
        get_codec(codec)  # validate the name eagerly
        if spill_bytes is not None and spill_bytes < 0:
            raise MiningError("spill_bytes must be non-negative")
        self.schema = schema
        self.codec = codec
        self._spill_bytes = spill_bytes
        self._scratch = Path(tempfile.mkdtemp(
            prefix="repro-encode-",
            dir=None if scratch_dir is None else str(scratch_dir),
        ))
        self._states: "list[_SpecState]" = []
        for spec in schema.specs:
            if spec.role is Role.SEGREGATION:
                kind = ItemKind.SA
            elif spec.role is Role.CONTEXT:
                kind = ItemKind.CA
            else:
                continue
            self._states.append(
                _SpecState(spec, kind, spec.multi_valued, self._scratch)
            )
        unit_names = [s.name for s in schema.specs if s.role is Role.UNIT]
        self._unit_name = unit_names[0] if unit_names else None
        self._units_parts: "list[np.ndarray]" = []
        self._n_rows = 0
        self._finalized = False

    @property
    def n_rows(self) -> int:
        """Rows accumulated so far."""
        return self._n_rows

    @property
    def spilled(self) -> bool:
        """True once any index buffer has spilled to disk."""
        return any(
            state.codes.spilled or (state.rows is not None
                                    and state.rows.spilled)
            for state in self._states
        )

    def add_chunk(self, table: Table) -> None:
        """Fold one table chunk into the accumulated encoding."""
        if self._finalized:
            raise MiningError("accumulator already finalized")
        self.schema.validate(table)
        n = len(table)
        start = self._n_rows
        for state in self._states:
            col = table.column(state.spec.name)
            mapping = state.translate(col.categories)
            if state.multi:
                lengths, flat = _mv_lengths_flat(col.rows, n)
                state.rows.append(np.repeat(
                    np.arange(start, start + n, dtype=np.int64), lengths
                ))
                state.codes.append(mapping[flat] if len(flat)
                                   else flat)
            else:
                state.codes.append(mapping[col.codes])
        if self._unit_name is not None:
            self._units_parts.append(
                np.asarray(table.ints(self._unit_name).data, dtype=np.int64)
            )
        self._n_rows += n
        if self._spill_bytes is not None:
            pending = sum(
                state.codes.pending_bytes
                + (state.rows.pending_bytes if state.rows is not None else 0)
                for state in self._states
            )
            if pending > self._spill_bytes:
                for state in self._states:
                    state.codes.spill()
                    if state.rows is not None:
                        state.rows.spill()

    def finalize(self) -> TransactionDatabase:
        """Merge the accumulated buffers into one database.

        The item dictionary is built exactly as :func:`encode_table`
        builds it — per schema spec, categories in first-seen order —
        so every spec's items occupy one contiguous id range starting at
        a per-spec base.  Final item ids are therefore
        ``base + column code``, and the CSR ``indices`` array is filled
        window by window: each row window gathers its per-spec segments
        (categorical buffers index directly, multi-valued buffers via
        ``searchsorted`` on their row arrays, both memmap-friendly) and
        sorts them with one bounded ``lexsort``.
        """
        if self._finalized:
            raise MiningError("accumulator already finalized")
        self._finalized = True
        try:
            dictionary = ItemDictionary()
            bases: "list[int]" = []
            for state in self._states:
                bases.append(len(dictionary))
                for value in state.categories:
                    dictionary.add(Item(state.spec.name, value), state.kind)

            n = self._n_rows
            cat = [(s, b) for s, b in zip(self._states, bases) if not s.multi]
            mv = [(s, b) for s, b in zip(self._states, bases) if s.multi]
            cat_arrays = [(s.codes.finalize(), b) for s, b in cat]
            mv_arrays = [
                (s.rows.finalize(), s.codes.finalize(), b) for s, b in mv
            ]

            counts = np.full(n, len(cat), dtype=np.int64)
            for rows_arr, _, _ in mv_arrays:
                if len(rows_arr):
                    counts += np.bincount(rows_arr, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            total = int(indptr[-1])
            indices = np.empty(total, dtype=np.int64)

            per_row = max(1, total // n) if n else 1
            window = max(1, _ENCODE_WINDOW_ENTRIES // per_row)
            for a in range(0, n, window):
                b = min(n, a + window)
                ids_parts: "list[np.ndarray]" = []
                rows_parts: "list[np.ndarray]" = []
                for codes_arr, base in cat_arrays:
                    ids_parts.append(
                        np.asarray(codes_arr[a:b], dtype=np.int64) + base
                    )
                    rows_parts.append(np.arange(a, b, dtype=np.int64))
                for rows_arr, codes_arr, base in mv_arrays:
                    lo, hi = np.searchsorted(rows_arr, [a, b])
                    ids_parts.append(
                        np.asarray(codes_arr[lo:hi], dtype=np.int64) + base
                    )
                    rows_parts.append(
                        np.asarray(rows_arr[lo:hi], dtype=np.int64)
                    )
                if not ids_parts:
                    continue
                ids_w = np.concatenate(ids_parts)
                rows_w = np.concatenate(rows_parts)
                order = np.lexsort((ids_w, rows_w))
                indices[indptr[a]:indptr[b]] = ids_w[order]

            units: "np.ndarray | None" = None
            if self._unit_name is not None:
                units = (
                    np.concatenate(self._units_parts) if self._units_parts
                    else np.zeros(0, dtype=np.int64)
                )
            db = TransactionDatabase.__new__(TransactionDatabase)
            db._init(indptr, indices, dictionary, units, self.codec)
            db._rows = None
            return db
        finally:
            self.close()

    def close(self) -> None:
        """Release scratch files (idempotent; finalize calls it)."""
        for state in self._states:
            state.codes.close()
            if state.rows is not None:
                state.rows.close()
        shutil.rmtree(self._scratch, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass
