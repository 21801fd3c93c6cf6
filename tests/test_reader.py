"""Parity of the chunked CSV reader with the per-cell reference readers.

``load_csv`` and ``load_importance_matrix`` must give the same float bytes,
the same categorical values and the same errors (type, message, ``row``,
``column``) as ``helpers.ref_load_csv`` / ``ref_load_importance_matrix`` on
any text: quoted fields, every line ending, BOM, blank lines, odd numbers and
bad cells on either side of a chunk boundary, and lines, characters, a BOM
and CRLF pairs across the boundaries of a tiny read window.
``load_csv(..., columns=S)`` must match the reference restricted to ``S``. A
file without quotes, CR, NUL or blank lines is cut at byte offsets and never
reaches ``csv.reader``; a file whose first such line comes later is cut up to
it. A load holds the table and a fixed allowance, not the file.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import threading
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regionrules import attribution, load_csv, tabular
from regionrules.attribution import load_importance_matrix
from regionrules.errors import DomainError, ParseError, SchemaError
from regionrules.tabular import KINDS

from helpers import ref_load_csv, ref_load_importance_matrix

CHUNK = tabular._CHUNK_ROWS

# cells float() accepts as finite numbers, including forms beyond plain ASCII
NUMBERS = ["0", "-0", "1.5", " 1.5 ", "1_000", "١٢٣", "1e-320", "-2.25E3", "+7"]
# cells the numeric parser must reject (an importance file parses nan and the
# infinities, then rejects them as out-of-domain scores)
ODD_NUMBERS = ["nan", "NaN", "inf", "-Infinity", "1e999", "abc", "1,5", "0x10", "1__0", " "]
TEXTS = ["a", "b", "été", "a,b", 'say "hi"', '""', "two\nlines", "cr\rhere", " x "]
MISSING_TOKENS = ["", "NA", "?"]
ENDINGS = ["\n", "\r\n", "\r"]


def _quote(cell: str, rng) -> str:
    if any(c in cell for c in ',"\r\n') or rng.random() < 0.05:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _number(rng) -> str:
    if rng.random() < 0.3:
        return str(rng.choice(NUMBERS))
    return repr(float(rng.normal() * 10.0 ** int(rng.integers(-3, 4))))


def random_text(rng, kinds, missing: str, n_rows: int, odd: float) -> str:
    """A CSV text with a header c0..ck; ``odd`` is the chance of a cell from
    ODD_NUMBERS (numeric columns) and of a ragged row."""
    plain = rng.random() < 0.5  # no quotes, no CR, no blank line: the split path
    rows = [[f"c{j}" for j in range(len(kinds))]]
    for _ in range(n_rows):
        row = []
        for kind in kinds:
            u = rng.random()
            if u < 0.1:
                row.append(missing)
            elif kind == "numeric":
                row.append(str(rng.choice(ODD_NUMBERS)) if u < 0.1 + odd else _number(rng))
            else:
                row.append(str(rng.choice(TEXTS[:3] if plain else TEXTS)))
        if rng.random() < odd:  # ragged: one cell short or one too many
            row = row[:-1] if rng.random() < 0.5 else row + ["1"]
        rows.append(row)
    if plain:
        lines = [",".join(r) for r in rows]
        end = "\n"
    else:
        lines = [",".join(_quote(c, rng) for c in r) for r in rows]
        if rng.random() < 0.1:
            lines.insert(int(rng.integers(1, len(lines) + 1)), "")
        end = str(rng.choice(ENDINGS))
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    return ("\ufeff" if rng.random() < 0.2 else "") + text


def outcome(load, *args):
    try:
        return load(*args), None
    except (ParseError, SchemaError, DomainError) as exc:
        return None, exc


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "row", None) == getattr(want, "row", None)
    assert getattr(got, "column", None) == getattr(want, "column", None)


def assert_same_table(got, want):
    assert got.feature_names == want.feature_names
    for g, w in zip(got.columns, want.columns):
        assert g.kind == w.kind and g.values.dtype == w.values.dtype
        if g.kind == "numeric":
            assert g.values.tobytes() == w.values.tobytes()
        else:
            assert g.values.tolist() == w.values.tolist()


def check_table_parity(path, schema, missing=""):
    got, got_err = outcome(load_csv, path, schema, missing)
    want, want_err = outcome(ref_load_csv, path, schema, missing)
    if want_err is not None:
        assert got_err is not None, f"expected {want_err!r}"
        assert_same_error(got_err, want_err)
    else:
        assert got_err is None, f"unexpected {got_err!r}"
        assert_same_table(got, want)
    return got_err


def ref_load_projected(path, schema, missing, columns):
    """The reference table restricted to ``columns``: the unread columns are
    read as categorical, which never fails on a cell, then dropped."""
    read = set(columns)
    unread = {n: "categorical" for n, k in schema.items() if n not in read and k in KINDS}
    table = ref_load_csv(path, {**schema, **unread}, missing)
    return table.drop(unread)


def check_projection_parity(path, schema, missing, columns):
    got, got_err = outcome(load_csv, path, schema, missing, columns)
    want, want_err = outcome(ref_load_projected, path, schema, missing, columns)
    if want_err is not None:
        assert got_err is not None, f"expected {want_err!r}"
        assert_same_error(got_err, want_err)
    else:
        assert got_err is None, f"unexpected {got_err!r}"
        assert_same_table(got, want)
    return got_err


def check_matrix_parity(path):
    got, got_err = outcome(load_importance_matrix, path)
    want, want_err = outcome(ref_load_importance_matrix, path)
    if want_err is not None:
        assert got_err is not None, f"expected {want_err!r}"
        assert_same_error(got_err, want_err)
    else:
        assert got_err is None, f"unexpected {got_err!r}"
        assert got.feature_names == want.feature_names
        assert got.scores.shape == want.scores.shape
        assert got.scores.tobytes() == want.scores.tobytes()
    return got_err


def write(tmp_path, text: str, name: str = "t.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


@pytest.mark.parametrize("seed", range(150))
def test_random_tables_match_the_reference(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    # small chunks put most rows, and most bad cells, past a chunk boundary
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", int(rng.integers(1, 9)))
    kinds = [str(k) for k in rng.choice(["numeric", "categorical"], int(rng.integers(1, 5)))]
    missing = str(rng.choice(MISSING_TOKENS))
    odd = float(rng.choice([0.0, 0.0, 0.01, 0.05]))
    text = random_text(rng, kinds, missing, int(rng.integers(0, 40)), odd)
    monkeypatch.setattr(tabular, "_WINDOW", int(rng.integers(1, 65)))  # lines straddle reads
    schema = {f"c{j}": k for j, k in enumerate(kinds)}
    check_table_parity(write(tmp_path, text), schema, missing)


@pytest.mark.parametrize("seed", range(150))
def test_random_projections_match_the_reference(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(20_000 + seed)
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", int(rng.integers(1, 9)))
    kinds = [str(k) for k in rng.choice(["numeric", "categorical"], int(rng.integers(2, 6)))]
    kinds[int(rng.integers(len(kinds)))] = "categorical"
    missing = str(rng.choice(MISSING_TOKENS))
    odd = float(rng.choice([0.0, 0.01, 0.05, 0.1]))
    text = random_text(rng, kinds, missing, int(rng.integers(0, 40)), odd)
    monkeypatch.setattr(tabular, "_WINDOW", int(rng.integers(1, 65)))
    schema = {f"c{j}": k for j, k in enumerate(kinds)}
    # any order, repeats allowed; the table comes back in header order
    columns = [str(c) for c in rng.choice(list(schema), int(rng.integers(0, len(kinds) + 2)))]
    check_projection_parity(write(tmp_path, text), schema, missing, columns)


@pytest.mark.parametrize("seed", range(80))
def test_random_matrices_match_the_reference(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(10_000 + seed)
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", int(rng.integers(1, 9)))
    kinds = ["numeric"] * int(rng.integers(1, 5))
    odd = float(rng.choice([0.0, 0.0, 0.01, 0.05]))
    text = random_text(rng, kinds, "", int(rng.integers(0, 40)), odd)
    if rng.random() < 0.5:  # importance scores are mostly non-negative
        text = text.replace("-", "")
    monkeypatch.setattr(tabular, "_WINDOW", int(rng.integers(1, 65)))
    check_matrix_parity(write(tmp_path, text))


@pytest.mark.parametrize("seed", range(80))
def test_random_matrices_in_cell_bounded_chunks_match_the_reference(seed, tmp_path, monkeypatch):
    """The matrix read's cell bound, not the row bound, sets the chunks."""
    rng = np.random.default_rng(30_000 + seed)
    monkeypatch.setattr(attribution, "_CHUNK_CELLS", int(rng.integers(1, 13)))
    kinds = ["numeric"] * int(rng.integers(1, 7))
    text = random_text(rng, kinds, "", int(rng.integers(0, 40)), float(rng.choice([0.0, 0.02])))
    monkeypatch.setattr(tabular, "_WINDOW", int(rng.integers(1, 65)))
    check_matrix_parity(write(tmp_path, text.replace("-", "")))


@pytest.mark.parametrize("seed", range(60))
def test_short_texts_for_csv_reader_match_the_reference(seed, tmp_path, monkeypatch):
    """csv.reader's text cut after an LF every few bytes: CRLF pairs, quoted
    line breaks and multi-byte characters lie on both sides of the cuts."""
    rng = np.random.default_rng(40_000 + seed)
    monkeypatch.setattr(tabular, "_TEXT", int(rng.integers(0, 24)))
    monkeypatch.setattr(tabular, "_WINDOW", int(rng.integers(16, 257)))
    kinds = [str(k) for k in rng.choice(["numeric", "categorical"], int(rng.integers(1, 5)))]
    text = random_text(rng, kinds, "", int(rng.integers(0, 40)), float(rng.choice([0.0, 0.02])))
    path = write(tmp_path, '"c0"' + text.removeprefix("\ufeff").removeprefix("c0"))
    check_table_parity(path, {f"c{j}": k for j, k in enumerate(kinds)})
    if "numeric" in kinds and "categorical" not in kinds:
        check_matrix_parity(path)


NAMED = {
    "quoted_comma": 'a,b\n"1,5",x\n2,"y,z"\n',
    "doubled_quotes": 'a,b\n1,"say ""hi"""\n2,""""\n',
    "quoted_newlines": 'a,b\n1,"two\nlines"\n2,"cr\r\nlf"\n',
    "crlf": "a,b\r\n1,x\r\n2,y\r\n",
    "bare_cr": "a,b\r1,x\r2,y\r",
    "bom": "\ufeffa,b\n1,x\n",
    "blank_line": "a,b\n1,x\n\n2,y\n",
    "blank_last_line": "a,b\n1,x\n\n",
    "no_final_newline": "a,b\n1,x\n2,y",
    "header_only": "a,b\n",
    "header_only_no_newline": "a,b",
    "empty": "",
    "blank_header": "\n",
    "padded_number": "a,b\n 1.5 ,x\n",
    "underscore_digits": "a,b\n1_000,x\n",
    "non_ascii_digits": "a,b\n١٢٣,x\n",
    "nan_cell": "a,b\n1,x\nnan,y\n",
    "inf_cell": "a,b\ninf,x\n",
    "minus_infinity_cell": "a,b\n1,x\n-Infinity,y\n",
    "overflow_cell": "a,b\n1e999,x\n",
    "bad_cell": "a,b\n1,x\nabc,y\n",
    "ragged_short": "a,b\n1,x\n2\n",
    "ragged_long": "a,b\n1,x\n2,y,z\n",
    "ragged_after_bad_cell": "a,b\nabc,x\n2\n",
    "bad_cells_in_two_columns": "a,b,c\n1,x,2\n1,y,oops\nbad,z,3\n",
    "duplicate_header": "a,a\n1,2\n",
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_texts_match_the_reference(name, tmp_path):
    path = write(tmp_path, NAMED[name])
    schema = {"a": "numeric", "b": "categorical", "c": "numeric", "": "numeric"}
    check_table_parity(path, schema)
    check_table_parity(path, schema, "x")  # a custom missing token
    check_matrix_parity(path)


def test_custom_missing_token(tmp_path):
    path = write(tmp_path, "a,b\nNA,NA\n1,\n2,y\n")
    table = load_csv(path, {"a": "numeric", "b": "categorical"}, "NA")
    check_table_parity(path, {"a": "numeric", "b": "categorical"}, "NA")
    assert table.column("b").values.tolist() == [None, "", "y"]


def _numbers_text(n_rows: int, bad: dict, width: int = 2) -> str:
    lines = [",".join(f"c{j}" for j in range(width))]
    for i in range(n_rows):
        lines.append(bad.get(i, ",".join(f"{i}.{j}" for j in range(width))))
    return "\n".join(lines) + "\n"


# a fixed chunk size, so the cases below sit on the same boundaries whatever
# the loaders' default chunk is
BIG = 8192


@pytest.mark.parametrize(
    "bad, expected_row",
    [
        ({BIG + 37: "1.0,abc"}, BIG + 37),  # a bad cell in the second chunk
        ({2 * BIG + 5: "1.0"}, 2 * BIG + 5),  # a ragged row in the third
        ({BIG - 1: "1.0,1e999"}, BIG - 1),  # the last row of the first chunk
        ({BIG: "inf,1.0"}, BIG),  # the first row of the second chunk
        ({3: "1.0,abc", BIG + 10: "abc,1.0"}, BIG + 10),  # leftmost column first
        ({3: "abc,1.0", 2 * BIG + 1: "1.0"}, 2 * BIG + 1),  # widths before cells
    ],
)
def test_error_rows_count_over_the_whole_file(bad, expected_row, tmp_path, monkeypatch):
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", BIG)
    path = write(tmp_path, _numbers_text(2 * BIG + 50, bad))
    err = check_table_parity(path, {"c0": "numeric", "c1": "numeric"})
    assert err.row == expected_row
    check_matrix_parity(path)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_error_rows_at_the_default_chunk_boundary(offset, tmp_path):
    row = CHUNK + offset
    path = write(tmp_path, _numbers_text(2 * CHUNK + 5, {row: "1.0,abc", row + 1: "1.0"}))
    assert check_table_parity(path, {"c0": "numeric", "c1": "numeric"}).row == row + 1
    assert check_projection_parity(path, {"c0": "numeric", "c1": "numeric"}, "", ["c1"]).row == row + 1
    assert check_matrix_parity(path).row == row


def test_matrix_reports_the_first_bad_row_before_a_later_ragged_row(tmp_path):
    path = write(tmp_path, _numbers_text(2 * CHUNK, {5: "abc,1", CHUNK + 3: "1"}))
    assert check_matrix_parity(path).row == 5
    assert check_table_parity(path, {"c0": "numeric", "c1": "numeric"}).row == CHUNK + 3


def _quote_all(text: str) -> str:
    """``text`` with every cell quoted, which sends it through csv.reader."""
    return "".join('"' + line.replace(",", '","') + '"\n' for line in text.splitlines())


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("width", [1, 24, 500, 9000])
def test_a_read_by_cells_converts_a_bounded_chunk(width, quoted, tmp_path):
    """``read(js, max_cells)`` yields at most ``max_cells`` cells, and at
    most ``_CHUNK_ROWS`` rows, per chunk (one row when a row is wider), on
    the byte path and on the csv.reader path; a read without ``max_cells``
    keeps ``_CHUNK_ROWS`` rows per chunk."""
    cells = attribution._CHUNK_CELLS
    n_rows = max(3, 3 * cells // width)
    text = _numbers_text(n_rows, {}, width)
    path = write(tmp_path, _quote_all(text) if quoted else text)
    with tabular.read_csv(path, "") as (header, read):
        chunks = [(rows, len(got)) for rows, got in read(range(width), cells)]
    assert max(size for _, size in chunks) == min(CHUNK, max(cells // width, 1)) * width
    assert all(size == len(rows) * width for rows, size in chunks)
    assert [rows.start for rows, _ in chunks[1:]] == [rows.stop for rows, _ in chunks[:-1]]
    assert chunks[-1][0].stop == n_rows
    with tabular.read_csv(path, "") as (header, read):
        rows = [rows for rows, _ in read([0])]
    assert [len(r) for r in rows[:-1]] == [CHUNK] * (len(rows) - 1)


@pytest.mark.parametrize("quoted", [False, True])
def test_matrix_names_the_first_bad_row_in_a_later_chunk(quoted, tmp_path):
    """Rows count over the whole file when the first unparseable cell sits
    several cell-bounded chunks in, ahead of a later bad cell."""
    width = 24
    step = attribution._CHUNK_CELLS // width
    first = 3 * step + 5
    bad = {first: ",".join(["1.0"] * 7 + ["abc"] + ["1.0"] * 16), 5 * step: "x" + ",1" * 23}
    text = _numbers_text(6 * step, bad, width)
    path = write(tmp_path, _quote_all(text) if quoted else text)
    err = check_matrix_parity(path)
    assert (err.row, str(err)) == (first, f"unparseable number in row {first}")


def test_matrix_rejects_infinite_scores(tmp_path):
    path = write(tmp_path, "a,b\ninf,1\n1e999,0\n")
    assert isinstance(check_matrix_parity(path), DomainError)


def test_plain_text_does_not_go_through_csv_reader(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on plain text")

    path = write(tmp_path, _numbers_text(CHUNK + 3, {}))
    want = ref_load_csv(path, {"c0": "numeric", "c1": "numeric"})
    monkeypatch.setattr(tabular.csv, "reader", refuse)
    assert_same_table(load_csv(path, {"c0": "numeric", "c1": "numeric"}), want)


PIPED = {
    "plain": "a,b\n1,x\n2.5,y\n",
    "quoted": 'a,b\n1,"x,y"\r\n2.5,z\r\n',
    "bom_non_ascii": "\ufeffa,b\n١٢٣,été\n",
    "bad_cell": "a,b\n1,x\nabc,y\n",
    "empty": "",
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("name", sorted(PIPED))
def test_piped_data_reads_like_the_file(name, tmp_path):
    """A pipe cannot be mapped; its bytes are read and give the file's result."""
    path = write(tmp_path, PIPED[name])
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    schema = {"a": "numeric", "b": "categorical"}
    for load, args in ((load_csv, (schema,)), (load_importance_matrix, ())):
        want, want_err = outcome(load, path, *args)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        got, got_err = outcome(load, fifo, *args)
        writer.join(10)
        if want_err is not None:
            assert_same_error(got_err, want_err)
        elif load is load_csv:
            assert_same_table(got, want)
        else:
            assert got.scores.tobytes() == want.scores.tobytes()


@pytest.mark.parametrize("text", ["", "\ufeff"])
def test_empty_file_is_a_parse_error(text, tmp_path):
    """Neither an empty file nor one holding only a BOM has a header."""
    path = write(tmp_path, text)
    with pytest.raises(ParseError, match="file is empty"):
        load_csv(path, {})
    with pytest.raises(ParseError, match="importance matrix file is empty"):
        load_importance_matrix(path)


def _windows_long_text(windows: float, quoted: bool, fault: str | None) -> bytes:
    """A file about ``windows`` default read windows long, of multi-byte
    cells; ``fault`` spoils its last line, or its second line and its last."""
    pad = "é" * 100
    lines = [f"{i}.5,b{i % 7},{pad}{i}" for i in range(int(windows * tabular._WINDOW / 215))]
    if quoted:
        lines = [",".join(f'"{c}"' for c in line.split(",")) for line in lines]
    if fault == "bad cell":
        lines[-1] = f"abc,1,{pad}"
    elif fault == "ragged row":
        lines[-1] = "1,2"
    elif fault == "unclosed quote":  # csv.reader keeps the rest of the file as the cell
        lines[-1] = f'1,2,"{pad}'
    elif fault == "ragged row, then a bad byte":
        lines[1] = "1,2"
    text = ("\ufeffa,b,c\n" + "\n".join(lines) + "\n").encode()
    return text + b"\xff\n" if fault == "ragged row, then a bad byte" else text


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize(
    "fault", [None, "bad cell", "ragged row", "unclosed quote", "ragged row, then a bad byte"])
def test_a_file_several_windows_long_reads_like_the_reference(quoted, fault, tmp_path):
    """At the default window: the reference's table, or its error in the
    last window, a quote first seen there, and a bad byte at the end that
    beats a ragged row in the first window."""
    raw = _windows_long_text(3.5, quoted, fault)
    path = tmp_path / "long.csv"
    path.write_bytes(raw)
    assert len(raw) > 3 * tabular._WINDOW
    schema = {"a": "numeric", "b": "categorical", "c": "categorical"}
    try:
        raw.decode()
    except UnicodeDecodeError as exc:
        message = f"{path} is not UTF-8: {exc.reason} at byte {exc.start}"
        for load, args in ((load_csv, (path, schema)), (load_importance_matrix, (path,))):
            with pytest.raises(ParseError) as got:
                load(*args)
            assert str(got.value) == message
        return
    got, want = same_outcome(load_csv, ref_load_csv, path, schema)
    if got is not None:
        assert_same_table(got, want)
    assert (got is None) == (fault in ("bad cell", "ragged row"))


@pytest.mark.parametrize("load", ["table", "matrix"])
def test_undecodable_bytes_are_a_parse_error(load, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        if load == "table":
            load_csv(path, {"a": "numeric", "b": "numeric"})
        else:
            load_importance_matrix(path)


UNDECODABLE = [
    b"a,b\n1,2\n3,\xff\n",
    b"\xef\xbb\xbfa,b\n1,\x80\n",  # a BOM, then a lone continuation byte
    b"a,b\n1,\xc3\n2,3\n",  # a sequence cut short by a newline
    b"a,b\n1,2\n3,\xe2\x82",  # and by the end of the file
    b'a,b\n1,"x\ny"\n2,\xed\xa0\x80\n',  # a surrogate, after the switch to csv.reader
]


@pytest.mark.parametrize("window", [None, 1, 2, 5])
@pytest.mark.parametrize("raw", UNDECODABLE)
def test_undecodable_bytes_name_their_offset_in_the_file(raw, window, tmp_path, monkeypatch):
    if window:
        monkeypatch.setattr(tabular, "_WINDOW", window)
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as exc:
        raw.decode()
    message = f"{path} is not UTF-8: {exc.value.reason} at byte {exc.value.start}"
    for load, args in ((load_csv, (path, {"a": "numeric", "b": "numeric"})),
                       (load_importance_matrix, (path,))):
        with pytest.raises(ParseError) as got:
            load(*args)
        assert str(got.value) == message


@pytest.mark.parametrize("window", [None, 1, 7])
@pytest.mark.parametrize("text", [
    "a,b\n" + "1,2\n" * 5 + '3,"' + "9" * 60 + '"\n',  # plain up to the bad line
    "a,b\n1,2\n" + '"1",2\n' + "1,2\n" * 3 + "3," + "9" * 60 + "\n",  # plain up to line 3
    "a,b\r\n" + "1,2\r\n" * 5 + "3," + "9" * 60 + "\r\n",  # csv.reader from the header
])
def test_malformed_csv_names_its_line_in_the_file(text, window, tmp_path, monkeypatch,
                                                   field_limit_50):
    if window:
        monkeypatch.setattr(tabular, "_WINDOW", window)
    reader = csv.reader(io.StringIO(text, newline=""))
    with pytest.raises(csv.Error) as want:
        list(reader)
    path = write(tmp_path, text)
    for load, args in ((load_csv, (path, {"a": "numeric", "b": "numeric"})),
                       (load_importance_matrix, (path,))):
        with pytest.raises(ParseError) as got:
            load(*args)
        assert str(got.value) == f"{path}: malformed CSV at line {reader.line_num}: {want.value}"


@pytest.mark.parametrize("load", ["table", "matrix"])
def test_oversized_quoted_field_is_a_parse_error(load, tmp_path):
    path = write(tmp_path, 'a,b\n1,2\n3,"' + "9" * 200_000 + '"\n')
    with pytest.raises(ParseError, match="field larger than field limit"):
        if load == "table":
            load_csv(path, {"a": "numeric", "b": "numeric"})
        else:
            load_importance_matrix(path)


def test_projection_keeps_header_order_and_skips_unread_cells(tmp_path):
    path = write(tmp_path, "a,b,c\n1,x,abc\n2,y,1e999\n")
    table = load_csv(path, {"a": "numeric", "b": "categorical", "c": "numeric"},
                     columns=["b", "a", "b"])
    assert table.feature_names == ["a", "b"]
    assert table.column("a").values.tolist() == [1.0, 2.0]
    with pytest.raises(ParseError, match="cannot parse 'abc'"):
        load_csv(path, {"a": "numeric", "b": "categorical", "c": "numeric"}, columns=["c"])


def test_projection_reports_a_ragged_row_at_its_file_row(tmp_path):
    path = write(tmp_path, _numbers_text(2 * CHUNK + 50, {3: "abc,1.0", 2 * CHUNK + 5: "1.0"}))
    schema = {"c0": "numeric", "c1": "numeric"}
    for columns in (["c0"], ["c1"], []):
        err = check_projection_parity(path, schema, "", columns)
        assert isinstance(err, ParseError) and err.row == 2 * CHUNK + 5


def test_bad_cell_in_an_unread_column_is_not_an_error(tmp_path):
    path = write(tmp_path, _numbers_text(CHUNK + 20, {CHUNK + 3: "abc,1e999,1"}, width=3))
    schema = {"c0": "numeric", "c1": "numeric", "c2": "numeric"}
    assert check_projection_parity(path, schema, "", ["c2"]) is None
    assert check_projection_parity(path, schema, "", ["c2", "c1"]).column == "c1"
    assert check_projection_parity(path, schema, "", ["c0", "c1"]).column == "c0"


@pytest.mark.parametrize(
    "text, schema, message",
    [
        ("a,b\n1,2\n", {"a": "numeric", "b": "numeric"}, "unknown column 'z'"),
        ("a,a,b\n1,2,3\n", {"a": "numeric", "b": "numeric"}, "duplicate header names"),
        ("a,b\n1,2\n", {"a": "numeric", "b": "text"}, "unknown kind 'text'"),
        ("a,b\n1,2\n", {"a": "numeric"}, "schema does not cover column 'b'"),
    ],
)
def test_header_errors_hold_for_unread_columns(text, schema, message, tmp_path):
    with pytest.raises(SchemaError, match=message):
        load_csv(write(tmp_path, text), schema, columns=["a", "z"] if "z" in message else ["a"])


def test_defaultdict_schema_gives_undeclared_columns_the_default_kind(tmp_path):
    path = write(tmp_path, "a,b,c\n1,x,2\n")
    table = load_csv(path, defaultdict(lambda: "numeric", {"b": "categorical"}))
    assert [c.kind for c in table.columns] == ["numeric", "categorical", "numeric"]
    check_table_parity(path, {"a": "numeric", "b": "categorical", "c": "numeric"})


@pytest.fixture()
def no_csv_reader(monkeypatch):
    """The loaders see a csv module whose reader fails; the references do not."""
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on plain text")

    fake = SimpleNamespace(reader=refuse, field_size_limit=csv.field_size_limit, Error=csv.Error)
    monkeypatch.setattr(tabular, "csv", fake)


UVW = {"u": "categorical", "v": "numeric", "w": "numeric"}


@pytest.mark.parametrize(
    "text, columns, values",
    [  # (file, columns read, the last read column's values)
        ("u,v,w\nété,١٢٣,1.5\n١٢٣,été,-2\n", ["w"], [1.5, -2.0]),  # multi-byte cells unread
        ("u,v,w\nété,١٢٣,1.5\n١٢٣,été,-2\n", ["u", "w"], [1.5, -2.0]),
        ("\ufeffu,v,w\nx,1,2\ny,3,4", ["u", "v", "w"], [2.0, 4.0]),  # BOM, no final newline
        ("u,v,w\n", ["u", "v", "w"], []),  # header only
        ("u,v,w", ["v"], []),
        ("u,v,w\nx,1,abc\ny,2,1e999\n", ["u"], ["x", "y"]),  # only the first column
        ("u,v,w\nx,abc,1\n١٢٣,1e999,2\n", ["w"], [1.0, 2.0]),  # only the last column
    ],
)
def test_plain_files_are_cut_at_byte_offsets(text, columns, values, tmp_path, no_csv_reader):
    path = write(tmp_path, text)
    assert check_projection_parity(path, UVW, "", columns) is None
    assert load_csv(path, UVW, columns=columns).columns[-1].values.tolist() == values
    check_matrix_parity(path)


@pytest.mark.parametrize("ragged", [2, 5])
def test_ragged_last_row_of_a_chunk_on_the_byte_path(ragged, tmp_path, monkeypatch, no_csv_reader):
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", 3)
    path = write(tmp_path, _numbers_text(9, {ragged: "1.0"}))
    schema = {"c0": "numeric", "c1": "numeric"}
    for columns in (["c0", "c1"], ["c0"], ["c1"], []):
        assert check_projection_parity(path, schema, "", columns).row == ragged
    assert check_matrix_parity(path).row == ragged


@pytest.fixture()
def field_limit_50():
    old = csv.field_size_limit(50)
    yield
    csv.field_size_limit(old)


def test_unquoted_line_longer_than_the_field_limit(tmp_path, field_limit_50):
    header = ",".join(f"c{j}" for j in range(30))
    path = write(tmp_path, f"{header}\n{','.join(['1.5'] * 30)}\n")  # 119 bytes, short cells
    assert check_table_parity(path, dict.fromkeys(header.split(","), "numeric")) is None
    path = write(tmp_path, "a,b\n1," + "9" * 60 + "\n")  # one cell over the limit
    with pytest.raises(csv.Error) as want:
        ref_load_csv(path, {"a": "numeric", "b": "numeric"})
    with pytest.raises(ParseError, match="malformed CSV") as got:
        load_csv(path, {"a": "numeric", "b": "numeric"})
    assert str(got.value).endswith(str(want.value))


FUZZ_ALPHABET = [b"a", b"1", b".", b"-", b" ", b",", b"\n", b"\r", b'"', b"\0",
                 "é".encode(), "١".encode(), b"\xef\xbb\xbf", b"\xff"]
# tokens of a cell on the byte path: no separator, quote, CR, NUL or bad byte
PLAIN_TOKENS = [t for t in FUZZ_ALPHABET if t not in (b",", b"\n", b"\r", b'"', b"\0", b"\xff")]


@st.composite
def fuzz_bytes(draw):
    """Either any string of alphabet tokens, or rows of plain cells, most of
    them of one width, with an occasional token from the whole alphabet."""
    if draw(st.booleans()):
        return b"".join(draw(st.lists(st.sampled_from(FUZZ_ALPHABET), max_size=60)))
    tokens = st.sampled_from(PLAIN_TOKENS) | st.sampled_from(FUZZ_ALPHABET)
    cell = st.lists(st.sampled_from(PLAIN_TOKENS), max_size=3).map(b"".join)
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width + (draw(st.booleans()))),
                         min_size=1, max_size=8))
    text = b"\n".join(b",".join(row) for row in rows) + draw(st.sampled_from([b"", b"\n"]))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(tokens) + text[at:]
    return text


def same_outcome(load, ref, *args):
    """Require ``load`` to fail as ``ref`` does (a csv.Error becomes a
    ParseError); ``(got, want)`` when both load, else ``(None, None)``."""
    try:
        want, want_err = outcome(ref, *args)
    except csv.Error as exc:
        with pytest.raises(ParseError, match="malformed CSV") as got:
            load(*args)
        assert str(got.value).endswith(str(exc))
        return None, None
    got, got_err = outcome(load, *args)
    if want_err is not None:
        assert got_err is not None, f"expected {want_err!r}"
        assert_same_error(got_err, want_err)
        return None, None
    assert got_err is None, f"unexpected {got_err!r}"
    return got, want


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_bytes(), st.data())
def test_fuzzed_bytes_match_the_reference(tmp_path, raw, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(raw)
    with mock.patch.object(tabular, "_CHUNK_ROWS", data.draw(st.integers(1, 4))), \
            mock.patch.object(tabular, "_WINDOW", data.draw(st.integers(1, 64))):
        try:
            text = raw.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            message = f"{path} is not UTF-8: {exc.reason} at byte {exc.start}"
            for load, args in ((load_csv, (path, {})), (load_importance_matrix, (path,))):
                with pytest.raises(ParseError) as got:
                    load(*args)
                assert str(got.value) == message
            return
        try:
            header = next(csv.reader(io.StringIO(text, newline="")), [])
        except csv.Error:
            header = []
        schema = {name: data.draw(st.sampled_from(KINDS)) for name in header}
        columns = data.draw(st.lists(st.sampled_from(header), max_size=4)) if header else []
        missing = data.draw(st.sampled_from(["", "a", "1"]))
        got, want = same_outcome(load_csv, ref_load_projected, path, schema, missing, columns)
        if got is not None:
            assert_same_table(got, want)
        got, want = same_outcome(load_importance_matrix, ref_load_importance_matrix, path)
        if got is not None:
            assert got.feature_names == want.feature_names
            assert got.scores.tobytes() == want.scores.tobytes()


def _table_bytes(table) -> int:
    """The arrays of ``table`` and the distinct cell strings they hold."""
    total, seen = 0, set()
    for col in table.columns:
        total += col.values.nbytes
        if col.kind == "categorical":
            for v in col.values.tolist():
                if v is not None and id(v) not in seen:
                    seen.add(id(v))
                    total += sys.getsizeof(v)
    return total


def _traced_load_overhead(path, schema) -> int:
    """The ``tracemalloc`` peak of one load, less the bytes of its table."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - _table_bytes(table)


ALLOWANCE = 12 << 20  # the read window, its text, one chunk of cells and one joined column


@pytest.mark.parametrize("quoted", [False, True])
def test_a_load_holds_the_table_and_a_fixed_allowance(quoted, tmp_path):
    """An 8 MB file and one with twice its rows: each load peaks below its
    table's bytes plus the same allowance, and doubling the rows adds less
    than half the first file's overhead (a whole-file copy would double it)."""
    rng = np.random.default_rng(0)
    schema = {"a": "numeric", "b": "numeric", "c": "categorical"}
    quoting = csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL
    overheads = []
    for n_rows in (20_000, 40_000):
        path = tmp_path / f"{n_rows}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=quoting, lineterminator="\n")
            writer.writerow(schema)
            for a, b, c in zip(rng.random(n_rows).tolist(), (rng.random(n_rows) * 1e4).tolist(),
                               rng.integers(0, 6, n_rows).tolist()):
                writer.writerow([repr(a), repr(b), f"level {c} " + "x" * 360])
        assert path.stat().st_size > n_rows * 400
        overheads.append(_traced_load_overhead(path, schema))
    assert max(overheads) < ALLOWANCE, overheads
    assert overheads[1] < 1.5 * overheads[0], overheads
