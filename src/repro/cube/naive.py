"""Naive cube materialisation by exhaustive coordinate enumeration.

The baseline the paper's "computational efficiency challenges" allude
to: enumerate *every* candidate coordinate pair — all item combinations
up to the granularity caps — and run a cover scan for each, without any
support-based pruning of the lattice.  Exponential in the number of
items; it exists as (a) the correctness oracle for the itemset-driven
builder and (b) the baseline of benchmark E10.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey
from repro.cube.cube import CubeMetadata, SegregationCube
from repro.errors import CubeError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.itemsets.miner import absolute_minsup
from repro.itemsets.transactions import TransactionDatabase, encode_table


class NaiveCubeBuilder:
    """Full-enumeration cube builder (oracle / baseline).

    Accepts the same thresholds as
    :class:`~repro.cube.builder.SegregationDataCubeBuilder` and produces
    a cube with *identical* cells (property-tested); only the search
    strategy differs: every combination of up to ``max_sa_items`` SA
    items and ``max_ca_items`` CA items is tried, and supports are
    computed by intersecting single-item covers — no Apriori pruning, no
    sharing of partial intersections.
    """

    def __init__(
        self,
        indexes: "list[str] | None" = None,
        min_population: "int | float" = 20,
        min_minority: "int | float" = 5,
        max_sa_items: "int | None" = None,
        max_ca_items: "int | None" = None,
    ):
        # Reuse the cell-filling logic so only enumeration differs.
        self._inner = SegregationDataCubeBuilder(
            indexes=indexes,
            min_population=min_population,
            min_minority=min_minority,
            max_sa_items=max_sa_items,
            max_ca_items=max_ca_items,
            mode="all",
        )

    def build(self, table: Table, schema: Schema) -> SegregationCube:
        """Encode and enumerate the full coordinate space."""
        if not schema.sa_names:
            raise CubeError("schema declares no segregation attributes")
        db = encode_table(table, schema)
        if len(db) == 0:
            raise CubeError("finalTable is empty")
        return self.build_from_transactions(db)

    def build_from_transactions(self, db: TransactionDatabase) -> SegregationCube:
        """Enumerate every coordinate combination and scan its cover."""
        if db.units is None:
            raise CubeError("transaction database has no unit labels")
        started = time.perf_counter()
        inner = self._inner
        minsup_pop = absolute_minsup(inner.min_population, db.n_active)
        minsup_min = absolute_minsup(inner.min_minority, db.n_active)

        sa_ids = db.dictionary.sa_ids
        ca_ids = db.dictionary.ca_ids
        max_sa = inner.max_sa_items if inner.max_sa_items is not None else len(sa_ids)
        max_ca = inner.max_ca_items if inner.max_ca_items is not None else len(ca_ids)
        covers = db.covers()
        full = db.full_cover()

        def count_units(cover) -> np.ndarray:
            # The oracle's own per-row split, independent of the
            # database's unit-count kernels it is checked against.
            return np.bincount(db.units[cover.to_bools()],
                               minlength=db.n_units)

        cells: dict[CellKey, CellStats] = {}
        n_candidates = 0
        for ca_size in range(0, max_ca + 1):
            for ca_combo in combinations(ca_ids, ca_size):
                context_cover = full
                for item in ca_combo:
                    context_cover = context_cover & covers[item]
                tvec = count_units(context_cover)
                if int(tvec.sum()) < minsup_pop:
                    n_candidates += 1
                    continue
                for sa_size in range(0, max_sa + 1):
                    for sa_combo in combinations(sa_ids, sa_size):
                        n_candidates += 1
                        minority_cover = context_cover
                        for item in sa_combo:
                            minority_cover = minority_cover & covers[item]
                        key = (frozenset(sa_combo), frozenset(ca_combo))
                        stats = inner._make_cell(
                            key, minority_cover, tvec, count_units,
                            minsup_pop, minsup_min
                        )
                        if stats is not None:
                            cells[key] = stats

        metadata = CubeMetadata(
            index_names=[spec.name for spec in inner.indexes],
            min_population=minsup_pop,
            min_minority=minsup_min,
            n_rows=db.n_active,
            n_units=db.n_units,
            mode="naive",
            backend="enumeration",
            build_seconds=time.perf_counter() - started,
            extra={"n_candidates": n_candidates},
        )
        return SegregationCube(cells, db.dictionary, metadata)
