"""Tests of the transaction encoding of finalTable."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.itemsets.coverset import COVER_CODECS
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.transactions import TransactionDatabase, encode_table


@pytest.fixture()
def final_table():
    return Table.from_dict(
        {
            "gender": ["F", "M", "F"],
            "sector": [{"a", "b"}, {"a"}, set()],
            "unitID": [0, 0, 1],
        }
    )


@pytest.fixture()
def schema():
    return Schema.build(
        segregation=["gender"],
        context=["sector"],
        unit="unitID",
        multi_valued=["sector"],
    )


class TestEncodeTable:
    def test_items_typed_by_role(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        assert d.kind(d.id_of(Item("gender", "F"))) is ItemKind.SA
        assert d.kind(d.id_of(Item("sector", "a"))) is ItemKind.CA

    def test_multivalued_contributes_one_item_per_member(
        self, final_table, schema
    ):
        db = encode_table(final_table, schema)
        d = db.dictionary
        f = d.id_of(Item("gender", "F"))
        a = d.id_of(Item("sector", "a"))
        b = d.id_of(Item("sector", "b"))
        assert set(db.rows[0]) == {f, a, b}
        # Empty value set contributes nothing beyond the SA item.
        assert set(db.rows[2]) == {f}

    def test_units_carried_along(self, final_table, schema):
        db = encode_table(final_table, schema)
        assert db.units.tolist() == [0, 0, 1]
        assert db.n_units == 2

    def test_item_supports(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        supports = db.item_supports()
        assert supports[d.id_of(Item("gender", "F"))] == 2
        assert supports[d.id_of(Item("sector", "a"))] == 2
        assert supports[d.id_of(Item("sector", "b"))] == 1


class TestTransactionDatabase:
    def test_cover_and_support(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        f = d.id_of(Item("gender", "F"))
        a = d.id_of(Item("sector", "a"))
        assert db.support_of([f]) == 2
        assert db.support_of([f, a]) == 1
        assert db.cover_of([]).all()

    def test_unit_counts_restricted_to_cover(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        f = d.id_of(Item("gender", "F"))
        counts = db.unit_counts(db.cover_of([f]))
        assert counts.tolist() == [1, 1]

    def test_unit_counts_without_units_raises(self):
        db = TransactionDatabase([(0,)], _tiny_dictionary())
        with pytest.raises(MiningError, match="no unit labels"):
            db.unit_counts(np.array([True]))

    def test_unit_counts_many_matches_single(self, final_table, schema):
        db = encode_table(final_table, schema)
        covers = [db.cover_of([i]) for i in range(db.n_items)]
        covers.append(db.full_cover())
        many = db.unit_counts_many(covers)
        assert many.shape == (len(covers), db.n_units)
        for j, cover in enumerate(covers):
            assert many[j].tolist() == db.unit_counts(cover).tolist()

    def test_unit_counts_many_chunking_is_invisible(self):
        rng = np.random.default_rng(5)
        units = rng.integers(0, 9, 400)
        db = TransactionDatabase(
            [(0,) if flag else () for flag in rng.random(400) < 0.5],
            _tiny_dictionary(),
            units=units,
        )
        covers = [rng.random(400) < p for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
        # A one-index chunk budget forces one chunk per cover.
        tiny = db.unit_counts_many(covers, max_chunk_indices=1)
        one = db.unit_counts_many(covers)
        assert (tiny == one).all()
        for j, cover in enumerate(covers):
            assert (one[j] == db.unit_counts(cover)).all()

    def test_unit_counts_many_empty_input(self, final_table, schema):
        db = encode_table(final_table, schema)
        assert db.unit_counts_many([]).shape == (0, db.n_units)

    def test_unit_counts_many_length_mismatch(self, final_table, schema):
        db = encode_table(final_table, schema)
        with pytest.raises(MiningError, match="does not match"):
            db.unit_counts_many([np.array([True])])

    def test_unit_counts_many_without_units_raises(self):
        db = TransactionDatabase([(0,)], _tiny_dictionary())
        with pytest.raises(MiningError, match="no unit labels"):
            db.unit_counts_many([np.array([True])])

    def test_unit_counts_many_validates_even_with_zero_units(self):
        db = TransactionDatabase([], _tiny_dictionary(),
                                 units=np.zeros(0, dtype=np.int64))
        with pytest.raises(MiningError, match="does not match"):
            db.unit_counts_many([np.array([True])])
        assert db.unit_counts_many([]).shape == (0, 0)

    def test_unit_label_length_checked(self):
        with pytest.raises(MiningError):
            TransactionDatabase([(0,)], _tiny_dictionary(),
                                units=np.array([0, 1]))

    def test_negative_units_rejected(self):
        with pytest.raises(MiningError):
            TransactionDatabase([(0,)], _tiny_dictionary(),
                                units=np.array([-1]))

    def test_rows_deduplicate_items(self):
        db = TransactionDatabase([(0, 0, 0)], _tiny_dictionary())
        assert db.rows[0] == (0,)

    def test_cover_of_unknown_item(self, final_table, schema):
        db = encode_table(final_table, schema)
        with pytest.raises(MiningError):
            db.cover_of([999])


def _tiny_dictionary():
    from repro.itemsets.items import ItemDictionary

    d = ItemDictionary()
    d.add(Item("x", "a"), ItemKind.SA)
    return d


class TestSchemaInteraction:
    def test_unit_column_not_an_item(self, final_table, schema):
        db = encode_table(final_table, schema)
        for item_id in range(len(db.dictionary)):
            assert db.dictionary.item(item_id).attribute != "unitID"

    def test_schema_without_unit_gives_unlabelled_db(self):
        table = Table.from_dict({"gender": ["F"]})
        schema = Schema.build(segregation=["gender"])
        db = encode_table(table, schema)
        assert db.units is None
        assert db.n_units == 0


# ---------------------------------------------------------------------------
# Unit-count kernels vs a per-row bincount, at exact equality.
# ---------------------------------------------------------------------------

def _units_db(sizes, seed, codec="packed"):
    """A units-only database with ``sizes[u]`` rows of unit ``u``, given
    in a shuffled table order; returns it with its table-order labels."""
    units = np.repeat(np.arange(len(sizes)), sizes)
    np.random.default_rng(seed).shuffle(units)
    empty = np.zeros(0, dtype=np.int64)
    db = TransactionDatabase.from_item_arrays(
        empty, empty, len(units), ItemDictionary(), units=units,
        codec=codec,
    )
    return db, units


def _segmented(db):
    """The kernel selection rule: units average at least 64 rows."""
    return 0 < db.n_units <= -(-len(db) // 64)


def _assert_counts_match(db, units, masks, max_chunk_indices=1 << 22):
    want = np.array(
        [np.bincount(units[m], minlength=db.n_units) for m in masks],
        dtype=np.int64,
    ).reshape(len(masks), db.n_units)
    covers = [db.as_cover(m) for m in masks]
    for inputs in (masks, covers):
        got = db.unit_counts_many(inputs, max_chunk_indices)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    for j, (mask, cover) in enumerate(zip(masks, covers)):
        assert np.array_equal(db.unit_counts(mask), want[j])
        assert np.array_equal(db.unit_counts(cover), want[j])


def _masks(n, seed):
    rng = np.random.default_rng(seed)
    masks = [rng.random(n) < p for p in (0.05, 0.5, 0.95)]
    return masks + [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]


#: (unit sizes, kernel expected to run) — rows are shuffled in table
#: order, so the unit-clustered layout is a real permutation.
KERNEL_SHAPES = {
    # n_rows % 64 == 0, every boundary (n_rows included) on a word edge.
    "word-edges": ([64, 64, 128], True),
    # Label gaps (empty units 1 and 3), n_rows % 64 != 0.
    "gaps-ragged": ([100, 0, 37, 0, 200], True),
    # Single-row units beside a large one.
    "single-rows": ([1, 1, 1, 500], True),
    # Boundaries one bit either side of a word edge.
    "off-by-one": ([63, 2, 63, 1, 130], True),
    # Tiny units: the gather kernel, ragged and word-aligned.
    "gather-ragged": ([1] * 50 + [0, 3, 2], False),
    "gather-aligned": ([2] * 64, False),
}


@pytest.mark.parametrize("codec", COVER_CODECS)
@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
def test_unit_counts_match_bincount(shape, codec):
    sizes, segmented = KERNEL_SHAPES[shape]
    db, units = _units_db(sizes, seed=len(sizes), codec=codec)
    assert _segmented(db) is segmented
    assert db.n_units == len(sizes)
    masks = _masks(len(db), seed=3)
    _assert_counts_match(db, units, masks)
    # A one-index budget forces one cover per chunk in either kernel.
    _assert_counts_match(db, units, masks, max_chunk_indices=1)


@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
def test_unit_counts_on_restricted_views(shape):
    sizes, _ = KERNEL_SHAPES[shape]
    db, units = _units_db(sizes, seed=11)
    active, *masks = _masks(len(db), seed=5)[1:]
    view = db.restrict(active)
    covers = [view.full_cover()] + [view.as_cover(m) & view.full_cover()
                                    for m in masks]
    want = [np.bincount(units[active & m], minlength=db.n_units)
            for m in [np.ones(len(db), dtype=bool)] + masks]
    got = view.unit_counts_many(covers)
    assert np.array_equal(got, np.array(want))
    for j, cover in enumerate(covers):
        assert np.array_equal(view.unit_counts(cover), want[j])


@given(
    sizes=st.lists(st.integers(0, 150), min_size=1, max_size=40).filter(
        lambda s: s[-1] > 0
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_unit_counts_property(sizes, seed):
    db, units = _units_db(sizes, seed)
    _assert_counts_match(db, units, _masks(len(db), seed))


def test_row_order_clusters_units_stably():
    db, units = _units_db([3, 0, 2, 4], seed=1)
    assert np.array_equal(db.units, np.sort(units))
    assert np.array_equal(db.units, units[db.row_order])
    # Rows of one unit keep their table order.
    for u in range(db.n_units):
        rows = db.row_order[db.units == u]
        assert np.all(np.diff(rows) > 0)
    mask = np.random.default_rng(0).random(len(db)) < 0.5
    assert np.array_equal(db.table_mask(db.as_cover(mask)), mask)
