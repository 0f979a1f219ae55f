"""Chunked source readers: ``stream_csv`` / ``stream_query`` / ``iter_chunks``.

The streaming contract: concatenating a reader's chunks reproduces the
one-shot reader cell for cell, column typing is decided per call (never
flipped by a later chunk), and degenerate inputs (empty files, empty
result sets) still yield exactly one — empty — chunk so downstream
schema validation sees the columns.
"""

from __future__ import annotations

import csv
import io
import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_final_table
from repro.errors import TableError
from repro.etl import (
    CategoricalColumn,
    IntColumn,
    MultiValuedColumn,
    Table,
    encode_stream,
    iter_chunks,
    read_query,
    read_table,
    stream_csv,
    stream_query,
    write_table,
    write_table_sql,
)
from repro.itemsets.transactions import encode_table
from tests.oracles import csv_chunks_percell


@pytest.fixture()
def mixed_table():
    """A table exercising categorical, multi-valued and int columns."""
    table, schema = random_final_table(
        137, 6,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3},
        multi_valued_ca={"mv": 3},
        seed=9, skew=0.3,
    )
    return table, schema


def _rows(table: Table) -> list:
    return [
        tuple(row[name] for name in table.names)
        for row in table.iter_rows()
    ]


def _concat_rows(chunks) -> tuple[list, list]:
    names = None
    rows: list = []
    for chunk in chunks:
        if names is None:
            names = chunk.names
        else:
            assert chunk.names == names
        rows.extend(_rows(chunk))
    return names, rows


# ----------------------------------------------------------------------
# stream_csv
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 10_000])
def test_stream_csv_matches_read_table(mixed_table, tmp_path, chunk_rows):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    reference = read_table(path, multi_valued=["mv"], integer=["unitID"])
    names, rows = _concat_rows(
        stream_csv(path, multi_valued=["mv"], integer=["unitID"],
                   chunk_rows=chunk_rows)
    )
    assert names == reference.names
    assert rows == _rows(reference)


def test_stream_csv_schema_derives_column_sets(mixed_table, tmp_path):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    chunk = next(stream_csv(path, schema=schema, chunk_rows=50))
    assert isinstance(chunk.column("mv"), MultiValuedColumn)
    assert isinstance(chunk.column("unitID"), IntColumn)
    assert len(chunk) == 50


def test_stream_csv_data_less_file_yields_one_empty_chunk(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("g,unitID\n")
    chunks = list(stream_csv(path, integer=["unitID"]))
    assert len(chunks) == 1
    assert len(chunks[0]) == 0
    assert chunks[0].names == ["g", "unitID"]


def test_stream_csv_rejects_empty_file_and_bad_rows(tmp_path):
    empty = tmp_path / "no_header.csv"
    empty.write_text("")
    with pytest.raises(TableError):
        list(stream_csv(empty))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(TableError):
        list(stream_csv(ragged))


def test_stream_csv_rejects_bad_chunk_rows(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a\n1\n")
    with pytest.raises(TableError):
        list(stream_csv(path, chunk_rows=0))


def test_stream_csv_rejects_duplicate_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\nx,y\nz,w\n")
    with pytest.raises(TableError, match="duplicate column name 'a'"):
        list(stream_csv(path))
    with pytest.raises(TableError, match="duplicate column name 'a'"):
        read_table(path)
    path.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(TableError, match="duplicate column name 'a'"):
        read_table(path)


def test_bad_integer_cell_is_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g,unitID\nx,1\n\ny,2\nz,oops\n")
    message = f"{path}: column 'unitID', data row 3: " \
        "expected integer cell, got 'oops'"
    with pytest.raises(TableError) as excinfo:
        read_table(path, integer=["unitID"])
    assert str(excinfo.value) == message
    with pytest.raises(TableError) as excinfo:
        list(stream_csv(path, integer=["unitID"], chunk_rows=2))
    assert str(excinfo.value) == message


def test_bad_integer_cell_reported_in_row_order(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,x\ny,4\n")
    with pytest.raises(TableError, match="column 'b', data row 2"):
        read_table(path, integer=["a", "b"])


def test_bad_integer_cell_above_ragged_row_wins(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\nx,1\n2\n")
    with pytest.raises(TableError, match="expected integer cell"):
        list(stream_csv(path, integer=["a"], chunk_rows=5))


# ----------------------------------------------------------------------
# stream_csv / read_table vs the per-cell oracle
# ----------------------------------------------------------------------

def _outcome(chunks):
    """Drain a chunk iterator: (tables yielded, (error type, message))."""
    tables = []
    try:
        for table in chunks:
            tables.append(table)
    except TableError as exc:
        return tables, (type(exc), str(exc))
    return tables, None


def _assert_same_table(got: Table, want: Table) -> None:
    assert got.names == want.names
    for name in want.names:
        a, b = got.column(name), want.column(name)
        assert type(a) is type(b)
        if isinstance(b, IntColumn):
            assert a.data.dtype == b.data.dtype
            assert np.array_equal(a.data, b.data)
            continue
        assert a.categories == b.categories
        assert [type(c) for c in a.categories] == \
            [type(c) for c in b.categories]
        if isinstance(b, CategoricalColumn):
            assert a.codes.dtype == b.codes.dtype
            assert np.array_equal(a.codes, b.codes)
        else:
            assert a.rows == b.rows


def _assert_same_as_oracle(text, multi, ints, delimiter, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode())
        for got, want in (
            (stream_csv(path, multi_valued=multi, integer=ints,
                        delimiter=delimiter, chunk_rows=chunk_rows),
             csv_chunks_percell(path, multi, ints, delimiter, chunk_rows)),
            (_one(read_table, path, multi, ints, delimiter),
             csv_chunks_percell(path, multi, ints, delimiter)),
        ):
            got_tables, got_error = _outcome(got)
            want_tables, want_error = _outcome(want)
            assert got_error == want_error
            assert len(got_tables) == len(want_tables)
            for g, w in zip(got_tables, want_tables):
                _assert_same_table(g, w)


def _one(read, *args):
    """A one-shot reader as a lazy one-chunk stream."""
    yield read(*args)


CELL = st.text(alphabet='ab|,;\t" \r\n', max_size=4)
TERMINATOR = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_documents(draw):
    """A typed table written by ``csv.writer`` in varied dialects."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from("xyzw"), min_size=width,
                          max_size=width))
    kinds = draw(st.lists(st.sampled_from(["cat", "multi", "int"]),
                          min_size=width, max_size=width))
    n_rows = draw(st.integers(0, 20))
    rows = []
    for _ in range(n_rows):
        row = []
        for kind in kinds:
            if kind == "int":
                row.append(str(draw(st.integers(-5, 300))))
            elif kind == "multi":
                row.append("|".join(draw(st.lists(
                    st.sampled_from(["a", "b", "c", ""]), max_size=3))))
            else:
                row.append(draw(CELL))
        rows.append(row)
    # A late quote: only cells from `quote_from` on may need quoting.
    quote_from = draw(st.integers(0, n_rows))
    for row in rows[:quote_from]:
        for j, kind in enumerate(kinds):
            if kind == "cat":
                row[j] = "".join(
                    c for c in row[j] if c not in f'"\r\n{delimiter}')
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter,
                        lineterminator=draw(TERMINATOR))
    writer.writerow(names)
    writer.writerows(rows)
    text = out.getvalue()
    lines = text.splitlines(keepends=True)
    if n_rows and draw(st.booleans()):
        # Blank lines between records.
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(TERMINATOR))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    multi = [n for n, k in zip(names, kinds) if k == "multi"]
    ints = [n for n, k in zip(names, kinds) if k == "int"]
    return text, multi, ints, delimiter


@st.composite
def raw_documents(draw):
    """Free-form lines: ragged rows, stray quotes, bad integers."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.integers(1, 3))
    header = delimiter.join(f"c{j}" for j in range(width))
    lines = draw(st.lists(
        st.text(alphabet=f'a1|" {delimiter}', max_size=6), max_size=15))
    terminators = draw(st.lists(TERMINATOR, min_size=len(lines) + 1,
                                max_size=len(lines) + 1))
    text = header + "".join(t + line for t, line in zip(terminators, lines))
    if draw(st.booleans()):
        text += terminators[-1]
    columns = [f"c{j}" for j in range(width)]
    multi = draw(st.lists(st.sampled_from(columns), max_size=1))
    ints = draw(st.lists(st.sampled_from(columns), max_size=2))
    return text, multi, ints, delimiter


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_documents(), st.sampled_from([1, 7, 65536]))
def test_stream_csv_matches_percell_oracle(document, chunk_rows):
    text, multi, ints, delimiter = document
    _assert_same_as_oracle(text, multi, ints, delimiter, chunk_rows)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw_documents(), st.sampled_from([1, 7, 65536]))
def test_stream_csv_matches_percell_oracle_on_raw_lines(document,
                                                        chunk_rows):
    text, multi, ints, delimiter = document
    _assert_same_as_oracle(text, multi, ints, delimiter, chunk_rows)


@pytest.mark.parametrize("text", [
    'a,b\nx,"1,2"\ny,""""\n',              # quoted delimiter, escaped quote
    'a,b\nx,1\ny,2\nz,"multi\nline"\nw,3\n',  # quote after the first block
    "a,b\r\nx,1\r\n\r\ny,2",                # CRLF, blank line, no final newline
    "a,b\rx,1\ry,2\r",                      # lone CR
    "a\n\nx\n\n",                           # blank lines in one column
    "a,b\nx,1\n2\n",                         # ragged row
    "a,a\nx,y\n",                            # duplicate header
    "a,b\nx,1\n\ny,2,3\n",                    # ragged after a blank line
])
@pytest.mark.parametrize("chunk_rows", [1, 2, 7, 65536])
def test_stream_csv_oracle_cases(text, chunk_rows):
    _assert_same_as_oracle(text, ["b"], [], ",", chunk_rows)
    _assert_same_as_oracle(text, [], [], ",", chunk_rows)


def test_multi_valued_cells_parse_once_per_distinct_string(tmp_path):
    path = tmp_path / "mv.csv"
    path.write_text("mv\na|a\n\nb|a\na|a\n|\n")
    column = read_table(path, multi_valued=["mv"]).multivalued("mv")
    assert column.categories == ["a", "b", ""]
    assert column.values() == [
        frozenset("a"), frozenset(), frozenset("ab"), frozenset("a"),
        frozenset([""]),
    ]


# ----------------------------------------------------------------------
# stream_query
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
def test_stream_query_matches_read_query(mixed_table, tmp_path, chunk_rows):
    table, schema = mixed_table
    db_path = tmp_path / "ft.db"
    write_table_sql(table, db_path, "final")
    sql = "SELECT * FROM final"
    reference = read_query(db_path, sql, multi_valued=["mv"])
    names, rows = _concat_rows(
        stream_query(db_path, sql, multi_valued=["mv"],
                     chunk_rows=chunk_rows)
    )
    assert names == reference.names
    assert rows == _rows(reference)


def test_stream_query_locks_int_detection_across_chunks():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (x)")
    conn.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), ("abc",)])
    stream = stream_query(conn, "SELECT x FROM t ORDER BY rowid",
                          chunk_rows=2)
    first = next(stream)
    assert isinstance(first.column("x"), IntColumn)
    with pytest.raises(TableError):
        next(stream)


def test_query_readers_reject_duplicate_column_names():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (a, b)")
    conn.execute("INSERT INTO t VALUES ('x', 'y')")
    sql = "SELECT a, b AS a FROM t"
    with pytest.raises(TableError, match="duplicate column name 'a'"):
        list(stream_query(conn, sql))
    with pytest.raises(TableError, match="duplicate column name 'a'"):
        read_query(conn, sql)


def test_stream_query_empty_result_yields_one_empty_chunk():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (x, y)")
    chunks = list(stream_query(conn, "SELECT x, y FROM t"))
    assert len(chunks) == 1
    assert len(chunks[0]) == 0
    assert chunks[0].names == ["x", "y"]


def test_stream_query_rejects_statements_without_result_set(tmp_path):
    conn = sqlite3.connect(":memory:")
    with pytest.raises(TableError):
        list(stream_query(conn, "CREATE TABLE t (x)"))


# ----------------------------------------------------------------------
# iter_chunks / encode_stream
# ----------------------------------------------------------------------

def test_iter_chunks_reproduces_table(mixed_table):
    table, _ = mixed_table
    names, rows = _concat_rows(iter_chunks(table, 13))
    assert names == table.names
    assert rows == _rows(table)


def test_iter_chunks_rederives_per_chunk_categories(mixed_table):
    # A chunk's categorical universe holds only the values it saw —
    # the property that makes iter_chunks a faithful stand-in for the
    # file readers in first-seen accumulation tests.
    table, _ = mixed_table
    chunk = next(iter_chunks(table, 3))
    assert set(chunk.column("r").categories) == set(
        chunk.column("r")[i] for i in range(3)
    )


def test_encode_stream_matches_one_shot_encode(mixed_table, tmp_path):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    reference = encode_table(table, schema)
    streamed = encode_stream(
        stream_csv(path, schema=schema, chunk_rows=11), schema
    )
    assert (streamed._indptr == reference._indptr).all()
    assert (streamed._indices == reference._indices).all()
    assert (streamed.units == reference.units).all()
