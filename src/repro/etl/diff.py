"""Row-level diffs between two temporal snapshots of one table.

The temporal workload (paper §3: membership pairs carry validity
intervals, a list of snapshot ``dates`` selects what to analyse) makes
every snapshot date a *row subset* of one union table: encode the union
once, then a date is just the boolean mask of rows whose interval
contains it.  :class:`TableDiff` captures what changed between two such
dates — the added and removed row sets and, projected through a
transaction database, the **affected item covers** — which is exactly
what the incremental cube fill (:mod:`repro.cube.incremental`) needs to
decide which contexts must be re-evaluated and which can be carried
over unchanged.

Open interval bounds (``None`` in :class:`~repro.etl.temporal.Interval`)
are represented by the int64 sentinels :data:`OPEN_START` /
:data:`OPEN_END` so validity tests stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.errors import TableError
from repro.etl.temporal import Interval, TemporalMembership

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layer cycle
    from repro.itemsets.coverset import Cover
    from repro.itemsets.transactions import TransactionDatabase

#: Sentinel for an open ``start`` bound ("since forever").
OPEN_START = np.iinfo(np.int64).min
#: Sentinel for an open ``end`` bound ("still valid").
OPEN_END = np.iinfo(np.int64).max


def interval_bounds(
    intervals: "Iterable[Interval | tuple[Optional[int], Optional[int]]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorize intervals into sentinel-encoded ``(starts, ends)`` arrays."""
    starts: list[int] = []
    ends: list[int] = []
    for interval in intervals:
        if isinstance(interval, Interval):
            start, end = interval.start, interval.end
        else:
            start, end = interval
        starts.append(OPEN_START if start is None else int(start))
        ends.append(OPEN_END if end is None else int(end))
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
    )


def valid_at(starts: np.ndarray, ends: np.ndarray, date: int) -> np.ndarray:
    """Boolean mask of rows whose half-open interval contains ``date``."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise TableError(
            f"{len(starts)} interval starts for {len(ends)} ends"
        )
    return (starts <= date) & (date < ends)


@dataclass(frozen=True)
class TableDiff:
    """What changed in a temporal table between two snapshot dates.

    ``valid_old`` / ``valid_new`` are boolean row masks over the *union*
    table (one row per membership edge, whatever its validity); the
    derived views below are the currency of incremental maintenance:
    rows that appeared, rows that vanished, and the per-item covers
    restricted to the changed rows.
    """

    old_date: int
    new_date: int
    valid_old: np.ndarray
    valid_new: np.ndarray

    def __post_init__(self) -> None:
        old = np.asarray(self.valid_old, dtype=bool)
        new = np.asarray(self.valid_new, dtype=bool)
        if old.shape != new.shape:
            raise TableError(
                f"validity masks differ in length: {len(old)} vs {len(new)}"
            )
        object.__setattr__(self, "valid_old", old)
        object.__setattr__(self, "valid_new", new)

    @classmethod
    def between(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        old_date: int,
        new_date: int,
    ) -> "TableDiff":
        """Diff two dates of a table with per-row validity intervals."""
        return cls(
            old_date=old_date,
            new_date=new_date,
            valid_old=valid_at(starts, ends, old_date),
            valid_new=valid_at(starts, ends, new_date),
        )

    @classmethod
    def from_membership(
        cls,
        membership: TemporalMembership,
        old_date: int,
        new_date: int,
    ) -> "TableDiff":
        """Diff two dates of a membership relation (row = edge order)."""
        starts, ends = interval_bounds(e.interval for e in membership)
        return cls.between(starts, ends, old_date, new_date)

    # -- row-level views ------------------------------------------------

    def __len__(self) -> int:
        return len(self.valid_old)

    @property
    def added(self) -> np.ndarray:
        """Row indices valid at ``new_date`` but not at ``old_date``."""
        return np.flatnonzero(self.valid_new & ~self.valid_old)

    @property
    def removed(self) -> np.ndarray:
        """Row indices valid at ``old_date`` but not at ``new_date``."""
        return np.flatnonzero(self.valid_old & ~self.valid_new)

    @property
    def changed_mask(self) -> np.ndarray:
        """Boolean mask of rows whose validity flipped between the dates."""
        return self.valid_old ^ self.valid_new

    @property
    def n_changed(self) -> int:
        return int(self.changed_mask.sum())

    def churn(self) -> float:
        """Changed rows as a fraction of the larger snapshot (0 when empty)."""
        base = max(int(self.valid_old.sum()), int(self.valid_new.sum()))
        return self.n_changed / base if base else 0.0

    # -- item-level projection ------------------------------------------

    def affected_items(
        self, db: "TransactionDatabase"
    ) -> "dict[int, Cover]":
        """Covers of the items that appear on at least one changed row.

        The returned cover of item ``i`` is ``cover(i)`` restricted to
        the changed rows — non-empty by construction.  An item absent
        from the result has a bit-identical restricted cover at both
        dates, so no itemset containing it can have changed; this is
        the pruning wedge the incremental fill drives through the
        context lattice.  The validity masks are table order and reach
        ``db``'s stored row order through
        :meth:`~repro.itemsets.transactions.TransactionDatabase.as_cover`,
        so the covers are ``db``'s own.
        """
        changed = db.as_cover(self.changed_mask)
        out: "dict[int, Cover]" = {}
        for item_id, cover in db.covers().items():
            touched = cover & changed
            if touched.support() > 0:
                out[item_id] = touched
        return out
