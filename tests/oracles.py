"""Brute-force reference implementations used as test oracles.

Deliberately slow and simple: direct transcriptions of the definitions,
with no shared state or pruning, against which the optimised library
implementations are checked.
"""

from __future__ import annotations

import csv
from itertools import combinations
from pathlib import Path

import numpy as np

from repro.errors import TableError
from repro.etl.table import (
    CategoricalColumn,
    IntColumn,
    MultiValuedColumn,
    Table,
)
from repro.indexes.counts import UnitCounts
from repro.itemsets.transactions import TransactionDatabase


def gini_naive(counts: UnitCounts) -> float:
    """O(n^2) Gini segregation index straight from the double sum."""
    if counts.is_degenerate():
        return float("nan")
    t, m = counts.t, counts.m
    total, p_overall = counts.total, counts.proportion
    p = counts.unit_proportions
    num = 0.0
    for i in range(len(t)):
        for j in range(len(t)):
            num += t[i] * t[j] * abs(p[i] - p[j])
    return num / (2 * total * total * p_overall * (1 - p_overall))


def dissimilarity_naive(counts: UnitCounts) -> float:
    """Definition-level dissimilarity."""
    if counts.is_degenerate():
        return float("nan")
    total_minority = counts.minority_total
    total_majority = counts.majority_total
    acc = 0.0
    for t_i, m_i in zip(counts.t, counts.m):
        acc += abs(m_i / total_minority - (t_i - m_i) / total_majority)
    return acc / 2.0


def frequent_itemsets_bruteforce(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
) -> dict[frozenset[int], int]:
    """All frequent itemsets by trying every combination of present items."""
    universe = sorted(
        set(items) if items is not None else range(db.n_items)
    )
    rows = [frozenset(r) for r in db.rows]
    longest = max_len if max_len is not None else len(universe)
    out: dict[frozenset[int], int] = {}
    for size in range(1, longest + 1):
        for combo in combinations(universe, size):
            candidate = frozenset(combo)
            support = sum(1 for row in rows if candidate <= row)
            if support >= minsup:
                out[candidate] = support
    return out


def closed_bruteforce(
    supports: dict[frozenset[int], int]
) -> dict[frozenset[int], int]:
    """Closed itemsets by checking every strict superset in the dict."""
    out = {}
    for itemset, support in supports.items():
        absorbed = any(
            other > itemset and other_support == support
            for other, other_support in supports.items()
        )
        if not absorbed:
            out[itemset] = support
    return out


def projection_bruteforce(
    n_left: int, n_right: int, edges: "list[tuple[int, int]]"
) -> dict[tuple[int, int], int]:
    """Group-side projection weights by counting shared members directly."""
    members: dict[int, set[int]] = {g: set() for g in range(n_right)}
    for left, right in edges:
        members[right].add(left)
    weights = {}
    for g1 in range(n_right):
        for g2 in range(g1 + 1, n_right):
            shared = len(members[g1] & members[g2])
            if shared:
                weights[(g1, g2)] = shared
    return weights


def unit_counts_bruteforce(
    units: np.ndarray, minority_mask: np.ndarray
) -> UnitCounts:
    """Per-unit counts by explicit looping."""
    n_units = int(units.max()) + 1 if len(units) else 0
    t = np.zeros(n_units, dtype=np.int64)
    m = np.zeros(n_units, dtype=np.int64)
    for unit, is_minority in zip(units, minority_mask):
        t[unit] += 1
        if is_minority:
            m[unit] += 1
    return UnitCounts(t, m)


def _parse_cell_percell(path, name, row_no, text, multi, integer):
    if multi:
        if text == "":
            return frozenset()
        return frozenset(text.split("|"))
    if integer:
        try:
            return int(text)
        except ValueError:
            raise TableError(
                f"{path}: column {name!r}, data row {row_no}: "
                f"expected integer cell, got {text!r}"
            ) from None
    return text


def _table_percell(header, columns, multi, ints):
    """Type per-cell values with explicit first-seen coding loops."""
    built = {}
    for name in header:
        values = columns[name]
        if name in multi:
            categories, index, rows = [], {}, []
            for value_set in values:
                codes = []
                for value in value_set:
                    if value not in index:
                        index[value] = len(categories)
                        categories.append(value)
                    codes.append(index[value])
                rows.append(tuple(sorted(set(codes))))
            built[name] = MultiValuedColumn(rows, categories)
        elif name in ints:
            built[name] = IntColumn(values)
        else:
            categories, index, codes = [], {}, []
            for value in values:
                if value not in index:
                    index[value] = len(categories)
                    categories.append(value)
                codes.append(index[value])
            built[name] = CategoricalColumn(
                np.asarray(codes, dtype=np.int32), categories
            )
    return Table(built)


def csv_chunks_percell(path, multi_valued=(), integer=(), delimiter=",",
                       chunk_rows=None):
    """Headed CSV as tables of ``chunk_rows`` rows, one ``csv.reader``
    row and one parse per cell at a time (``None``: one table).

    The row-at-a-time reader the column-wise ``read_chunks`` replaced:
    blank lines skipped (an empty cell in a single-column file), ragged
    rows and repeated header names rejected, ``|``-separated sets for
    multi-valued columns, ``int()`` for integer ones.
    """
    multi, ints = set(multi_valued), set(integer)
    path = Path(path)
    with path.open(newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path} is empty") from None
        for i, name in enumerate(header):
            if name in header[:i]:
                raise TableError(f"{path}: duplicate column name {name!r}")
        columns = {name: [] for name in header}
        pending = 0
        row_no = 0
        yielded = False
        for row in reader:
            if not row:
                if len(header) == 1:
                    row = [""]
                else:
                    continue
            if len(row) != len(header):
                raise TableError(
                    f"{path}: row of width {len(row)} does not match "
                    f"header of width {len(header)}"
                )
            row_no += 1
            for name, cell in zip(header, row):
                columns[name].append(_parse_cell_percell(
                    path, name, row_no, cell, multi=name in multi,
                    integer=name in ints,
                ))
            pending += 1
            if pending == chunk_rows:
                yield _table_percell(header, columns, multi, ints)
                columns = {name: [] for name in header}
                pending = 0
                yielded = True
        if pending or not yielded:
            yield _table_percell(header, columns, multi, ints)
