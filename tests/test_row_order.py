"""Row-order invariance of the unit-clustered transaction layout.

Every database stores its rows sorted by unit and keeps the permutation
as ``row_order``; every API that speaks table rows maps through it.  A
row-shuffled copy of a table therefore encodes to a *different* stored
layout with the same answers: the tests below build from a table and
from a shuffled copy and require identical cubes (``atol=0``) and an
identical closed-mode incremental timeline when the per-date masks are
shuffled the same way — pinning ``restrict()`` masks, ``as_cover()``,
``within=``, :class:`~repro.etl.diff.TableDiff` and the temporal
engine's ``valid`` masks / ``state.active``, and the parallel fill's
shared-memory worker databases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_temporal_final_table
from repro.etl.diff import TableDiff, valid_at
from repro.etl.table import Table
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.transactions import encode_table

LIMITS = {"min_population": 10, "min_minority": 3,
          "max_sa_items": 2, "max_ca_items": 2}
DATES = (0, 1, 2)


def _shuffled(table: Table, perm: np.ndarray) -> Table:
    """Row ``j`` of the result is row ``perm[j]`` of ``table``."""
    return Table({name: table.column(name).take(perm)
                  for name in table.names})


#: (rows, units): ~250 rows per unit runs the segmented unit-count
#: kernel, ~3 rows per unit the gather kernel.
SHAPES = {"segmented": (3000, 12), "gather": (600, 200)}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def pair(request):
    n_rows, n_units = SHAPES[request.param]
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=n_rows, n_units=n_units, dates=DATES,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=9, skew=0.5, max_churn=0.05,
    )
    perm = np.random.default_rng(4).permutation(n_rows)
    db = encode_table(table, schema)
    db_sh = encode_table(_shuffled(table, perm), schema)
    valids = {d: valid_at(starts, ends, d) for d in DATES}
    return table, schema, perm, db, db_sh, valids


def test_layouts_differ_but_map_to_the_same_table_rows(pair):
    _, _, perm, db, db_sh, valids = pair
    # Stored row i of the shuffled db is original table row
    # perm[db_sh.row_order[i]]: same units per stored row, other rows.
    assert np.array_equal(db.units, db_sh.units)
    assert not np.array_equal(perm[db_sh.row_order], db.row_order)
    mask = valids[1]
    cover, cover_sh = db.as_cover(mask), db_sh.as_cover(mask[perm])
    assert np.array_equal(db.table_mask(cover), mask)
    assert np.array_equal(db_sh.table_mask(cover_sh), mask[perm])
    assert cover.support() == cover_sh.support() == int(mask.sum())


@pytest.mark.parametrize("mode", ["all", "closed"])
def test_shuffled_table_builds_identical_cube(pair, mode):
    table, schema, perm, _, _, _ = pair
    builder = SegregationDataCubeBuilder(mode=mode, **LIMITS)
    cube = builder.build(table, schema)
    cube_sh = builder.build(_shuffled(table, perm), schema)
    assert len(cube) > 0
    assert check_same_cells(cube, cube_sh, atol=0.0) == []


def test_shuffled_parallel_fill_matches_columnar(pair):
    table, schema, perm, _, _, _ = pair
    cube = SegregationDataCubeBuilder(**LIMITS).build(table, schema)
    cube_sh = SegregationDataCubeBuilder(
        engine="parallel", workers=2, **LIMITS
    ).build(_shuffled(table, perm), schema)
    assert check_same_cells(cube, cube_sh, atol=0.0) == []


def test_restrict_and_within_speak_table_order(pair):
    _, _, perm, db, db_sh, valids = pair
    view, view_sh = db.restrict(valids[2]), db_sh.restrict(valids[2][perm])
    assert np.array_equal(view.item_supports(), view_sh.item_supports())
    assert np.array_equal(view.unit_counts(view.full_cover()),
                          view_sh.unit_counts(view_sh.full_cover()))
    within = valids[0] & ~valids[2]
    mined = mine_eclat(view, 1, within=within)
    mined_sh = mine_eclat(view_sh, 1, within=within[perm])
    assert mined == mined_sh


def test_table_diff_affected_items_follow_row_order(pair):
    _, _, perm, db, db_sh, valids = pair
    diff = TableDiff(0, 1, valids[0], valids[1])
    diff_sh = TableDiff(0, 1, valids[0][perm], valids[1][perm])
    assert diff.n_changed > 0
    affected = diff.affected_items(db)
    affected_sh = diff_sh.affected_items(db_sh)
    assert set(affected) == set(affected_sh)
    for item, cover in affected.items():
        assert np.array_equal(db.table_mask(cover)[perm],
                              db_sh.table_mask(affected_sh[item]))
    assert sorted(perm[diff_sh.added]) == diff.added.tolist()
    assert sorted(perm[diff_sh.removed]) == diff.removed.tolist()


def test_closed_timeline_identical_under_shuffled_masks(pair):
    _, _, perm, db, db_sh, valids = pair
    builder = SegregationDataCubeBuilder(
        engine="incremental", mode="closed", **LIMITS
    )
    states = TemporalCubeEngine(db, builder).run(
        [(d, valids[d]) for d in DATES]
    )
    states_sh = TemporalCubeEngine(db_sh, builder).run(
        [(d, valids[d][perm]) for d in DATES]
    )
    for state, state_sh in zip(states, states_sh):
        assert np.array_equal(state.active, valids[state.date])
        assert np.array_equal(state_sh.active, valids[state.date][perm])
        assert check_same_cells(state.cube, state_sh.cube, atol=0.0) == []
        extra = state.cube.metadata.extra
        extra_sh = state_sh.cube.metadata.extra
        for name in ("n_carried_cells", "n_carried_cells_within_affected",
                     "n_recomputed_cells"):
            assert extra.get(name) == extra_sh.get(name), name
    # Covers passed as ``valid`` map back to the same table masks.
    engine = TemporalCubeEngine(db_sh, builder)
    state = engine.build_at(db_sh.as_cover(valids[0][perm]), 0)
    assert np.array_equal(state.active, valids[0][perm])
