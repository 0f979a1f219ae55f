"""CSV reading and writing for SCube inputs and outputs.

The SCube architecture (paper Fig. 2/3) exchanges every intermediate
artefact as CSV: ``individual.csv``, ``group.csv``,
``individualGroup.csv`` (membership), ``finalTable.csv`` and
``cube.csv``.  Multi-valued cells are serialised with an inner separator
(default ``|``), e.g. ``electricity|transports``.

Reading is column-wise.  :func:`read_chunks` takes the file a block of
lines at a time; a block without a quote character is split with
``str.split`` into one flat list of cells whose columns are strided
slices, so no per-row list is built.  From the first block that holds a
quote character on, the rest of the file goes through ``csv.reader``,
which keeps quoted delimiters, ``""`` escapes and embedded newlines
exact.  Each column is then typed in one pass: categorical cells are
coded in first-seen order through a dict, multi-valued cells are parsed
once per distinct string, integer cells by ``map(int, ...)``.
:func:`read_table` is the reader's single-chunk call and
:func:`repro.etl.stream.stream_csv` its chunked one.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat
from pathlib import Path

from repro.errors import TableError
from repro.etl.table import (
    CategoricalColumn,
    Column,
    IntColumn,
    MultiValuedColumn,
    Table,
)

#: Inner separator for multi-valued cells.
SET_SEPARATOR = "|"

#: The csv module's default quote character: a block holding it is
#: tokenised by ``csv.reader`` rather than by ``str.split``.
_QUOTE = '"'


def require_unique_names(names: Sequence[str], source: object) -> None:
    """Raise :class:`TableError` naming the first repeated column name."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise TableError(f"{source}: duplicate column name {name!r}")
        seen.add(name)


def multi_valued_column(cells: Sequence[str]) -> MultiValuedColumn:
    """Type ``|``-separated set cells (``""`` is the empty set).

    Each distinct string is parsed once; categories get codes in
    first-seen order, exactly as a row-by-row pass over the cells would
    assign them.
    """
    index: dict[str, int] = {}
    parsed: dict[str, tuple[int, ...]] = {}
    for text in dict.fromkeys(cells):
        values = frozenset(text.split(SET_SEPARATOR)) if text else ()
        parsed[text] = tuple(
            sorted({index.setdefault(v, len(index)) for v in values})
        )
    return MultiValuedColumn(list(map(parsed.__getitem__, cells)), list(index))


def _split_block(rows: "list[str]", delimiter: str, width: int):
    """Tokenise quote-free lines (terminators stripped) into columns.

    Returns ``(columns, n_rows, bad_width)``: on a row whose width is not
    ``width`` the columns hold the rows before it and ``bad_width`` is
    that row's width.
    """
    if width != 1 and "" in rows:
        rows = [row for row in rows if row]  # blank lines are skipped
    counts = list(map(str.count, rows, repeat(delimiter)))
    bad_width = None
    if counts.count(width - 1) != len(counts):
        bad = next(i for i, c in enumerate(counts) if c != width - 1)
        rows, bad_width = rows[:bad], counts[bad] + 1
    if width == 1:
        return [rows], len(rows), bad_width
    cells = delimiter.join(rows).split(delimiter) if rows else []
    return [cells[j::width] for j in range(width)], len(rows), bad_width


def _records_block(records: "list[list[str]]", width: int):
    """Like :func:`_split_block` for ``csv.reader`` records."""
    if [] in records:
        # csv yields [] for a blank line: an empty cell in a
        # single-column file, a stray line to skip otherwise.
        if width == 1:
            records = [record or [""] for record in records]
        else:
            records = [record for record in records if record]
    widths = list(map(len, records))
    bad_width = None
    if widths.count(width) != len(widths):
        bad = next(i for i, w in enumerate(widths) if w != width)
        records, bad_width = records[:bad], widths[bad]
    columns = list(zip(*records)) if records else [()] * width
    return columns, len(records), bad_width


def _blocks(f, delimiter: str, width: int, block_lines: "int | None"):
    """Yield ``(columns, n_rows, bad_width)`` blocks of ``f``'s data rows,
    ``block_lines`` lines (all of them for None) at a time."""
    while True:
        lines = list(islice(f, block_lines))
        if not lines:
            return
        text = "".join(lines)
        if _QUOTE in text:
            break
        # Iterating a newline="" file ends a line at "\r\n", "\n" or a
        # lone "\r", so each line holds one terminator at most.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        rows = text.split("\n")
        if text.endswith("\n"):
            rows.pop()
        yield _split_block(rows, delimiter, width)
    reader = csv.reader(chain(lines, f), delimiter=delimiter)
    while True:
        records = list(islice(reader, block_lines))
        if not records:
            return
        yield _records_block(records, width)


def _first_non_int(cells: Sequence[str]) -> int:
    """Index of the first cell ``int()`` rejects."""
    for i, cell in enumerate(cells):
        try:
            int(cell)
        except ValueError:
            return i
    raise AssertionError("no non-integer cell")


def _typed_chunk(
    path: Path,
    header: "list[str]",
    columns: "list[Sequence[str]]",
    multi: "set[str]",
    ints: "set[str]",
    first_row: int,
) -> Table:
    """Type one chunk of raw cell columns into a :class:`Table`.

    ``first_row`` is the 1-based data row number of the chunk's first
    row; a bad integer cell is reported with its location, the first in
    row order when several columns hold one.
    """
    built: dict[str, Column] = {}
    bad = []
    for j, (name, cells) in enumerate(zip(header, columns)):
        if name in multi:
            built[name] = multi_valued_column(cells)
        elif name in ints:
            try:
                built[name] = IntColumn(list(map(int, cells)))
            except ValueError:
                bad.append((_first_non_int(cells), j))
        else:
            built[name] = CategoricalColumn.from_values(cells)
    if bad:
        i, j = min(bad)
        raise TableError(
            f"{path}: column {header[j]!r}, data row {first_row + i}: "
            f"expected integer cell, got {columns[j][i]!r}"
        )
    return Table(built)


def read_chunks(
    path: "str | Path",
    multi: "set[str]",
    ints: "set[str]",
    delimiter: str,
    chunk_rows: "int | None",
) -> "Iterator[Table]":
    """Read a headed CSV file as tables of ``chunk_rows`` rows.

    ``chunk_rows=None`` reads the whole file as one table.  Blank lines
    are skipped (an empty cell in a single-column file), rows whose
    width differs from the header's are rejected, and a data-less file
    yields one empty table.
    """
    path = Path(path)
    with path.open(newline="") as f:
        try:
            header = next(csv.reader(f, delimiter=delimiter))
        except StopIteration:
            raise TableError(f"{path} is empty") from None
        require_unique_names(header, path)
        width = len(header)
        held: "list[Sequence[str]]" = [()] * width
        n_held = 0
        first_row = 1
        for columns, n, bad_width in _blocks(f, delimiter, width,
                                             chunk_rows):
            if n_held:
                held = [[*h, *c] for h, c in zip(held, columns)]
            else:
                held = columns
            n_held += n
            while chunk_rows is not None and n_held >= chunk_rows:
                yield _typed_chunk(path, header,
                                   [h[:chunk_rows] for h in held],
                                   multi, ints, first_row)
                held = [h[chunk_rows:] for h in held]
                n_held -= chunk_rows
                first_row += chunk_rows
            if bad_width is not None:
                if n_held:
                    # A bad integer cell above the ragged row comes first.
                    _typed_chunk(path, header, held, multi, ints, first_row)
                raise TableError(
                    f"{path}: row of width {bad_width} does not match "
                    f"header of width {width}"
                )
        if n_held or first_row == 1:
            yield _typed_chunk(path, header, held, multi, ints, first_row)


def read_table(
    path: str | Path,
    multi_valued: Iterable[str] = (),
    integer: Iterable[str] = (),
    delimiter: str = ",",
) -> Table:
    """Read a CSV file with a header row into a :class:`Table`.

    Parameters
    ----------
    multi_valued:
        Column names whose cells are ``|``-separated value sets.
    integer:
        Column names to parse as integers (ids, unit ids).
    """
    return next(read_chunks(path, set(multi_valued), set(integer),
                            delimiter, None))


def _format_cell(value: object) -> str:
    if isinstance(value, (frozenset, set)):
        return SET_SEPARATOR.join(sorted(str(v) for v in value))
    return str(value)


def write_table(table: Table, path: str | Path, delimiter: str = ",") -> None:
    """Write ``table`` to CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(table.names)
        for row in table.iter_rows():
            writer.writerow([_format_cell(row[name]) for name in table.names])


def write_rows(
    rows: Iterable[Sequence[object]],
    header: Sequence[str],
    path: str | Path,
    delimiter: str = ",",
) -> None:
    """Write raw rows (any sequence of cells) with a header to CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
