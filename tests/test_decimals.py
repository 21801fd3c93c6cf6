"""The byte path for plain decimals: numeric cells read straight from a
chunk's bytes.

A column chunk is read from bytes only when every present cell matches
``-?[0-9]+(\\.[0-9]+)?`` with at most 15 digits and the fraction-digit count
of the column's first present cell; a blank cell is NaN only under the
``""`` missing token. Such a value must carry ``float()``'s bits, and every
other column chunk must load exactly as the per-cell reference loads it.
"""

from __future__ import annotations

import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regionrules import attribution, load_csv, tabular
from regionrules.attribution import load_importance_matrix

from helpers import ref_load_csv, ref_load_importance_matrix
from test_reader import assert_same_error, assert_same_table, check_matrix_parity, \
    check_table_parity, outcome

PLAIN = re.compile(r"-?([0-9]+)(?:\.([0-9]+))?")
# cells float() may accept that the byte path must leave to it
NOT_PLAIN = ["+1", " 1", "1 ", "1e5", "1E5", "1_0", ".5", "1.", "-.5", "nan", "inf", "-inf",
             "١٢", "1.5.5", "--1", "-", "0x1", "0.30000000000000004", "12345678901234567"]


def plain_count(cell: str):
    """The fraction-digit count of a cell the byte path may read, else None."""
    m = PLAIN.fullmatch(cell)
    if m is None or len(m[1]) + len(m[2] or "") > 15:
        return None
    return len(m[2] or "")


def read_from_bytes(cells: list[str], blank: bool) -> bool:
    """Whether the byte path reads a column chunk holding ``cells``."""
    present = [c for c in cells if c]
    if len(present) < len(cells) and not blank:
        return False
    counts = {plain_count(c) for c in present}
    return None not in counts and len(counts) <= 1


@st.composite
def decimal_cells(draw, count: int | None = None):
    """A plain decimal: 1-16 digits in all, leading zeros and a sign allowed."""
    f = draw(st.integers(0, 15)) if count is None else count
    whole = draw(st.integers(1, max(1, 16 - f)))
    digits = draw(st.text("0123456789", min_size=whole + f, max_size=whole + f))
    if draw(st.integers(0, 3)) == 0:
        digits = "0" * (whole + f)  # zero, and -0.000 under the sign below
    cell = digits[:whole] + ("." + digits[whole:] if f else "")
    return ("-" if draw(st.booleans()) else "") + cell


@st.composite
def columns(draw):
    """A column's cells: mostly one fraction-digit count, with blanks, and at
    times a cell of another count or a form the byte path declines."""
    count = draw(st.integers(0, 15))
    n = draw(st.integers(1, 12))
    cells = []
    for _ in range(n):
        u = draw(st.integers(0, 19))
        if u == 0:
            cells.append("")
        elif u == 1:
            cells.append(draw(st.sampled_from(NOT_PLAIN)))
        elif u == 2:
            cells.append(draw(decimal_cells()))
        else:
            cells.append(draw(decimal_cells(count)))
    return cells


def write_columns(path, cols: list[list[str]]) -> None:
    """Columns c0.. padded with their first cell, then a column z of ones,
    so that no line is blank."""
    n = max(len(c) for c in cols)
    rows = [[c[i] if i < len(c) else c[0] for c in cols] + ["1"] for i in range(n)]
    text = ",".join([f"c{j}" for j in range(len(cols))] + ["z"]) + "\n"
    path.write_bytes((text + "".join(",".join(r) + "\n" for r in rows)).encode())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cols=st.lists(columns(), min_size=1, max_size=4))
def test_the_byte_path_reads_exactly_the_plain_columns(tmp_path, cols):
    """``numbers`` reads a column chunk iff the grammar holds, with float()'s
    bits; ``block`` reads a chunk iff every cell holds the first cell's count
    and none is blank. The loaders then match the per-cell reference, a blank
    cell under "" and under another missing token alike."""
    path = tmp_path / "d.csv"
    write_columns(path, cols)
    with tabular.read_csv(path, "") as (header, read):
        ((rows, cells),) = read(range(len(cols)))
        got = cells.numbers(list(range(len(cols))))
        block = cells.block()
    whole = [c + [c[0]] * (len(rows) - len(c)) for c in cols]
    for k, col in enumerate(whole):
        assert (k in got) == read_from_bytes(col, True), col
        if k in got:
            want = np.array([float(c) if c else np.nan for c in col])
            assert got[k].tobytes() == want.tobytes(), col
    first = plain_count(whole[0][0]) if whole[0][0] else None
    every = [c for col in whole for c in col]
    reads_block = first is not None and all(c and plain_count(c) == first for c in every)
    assert (block is not None) == reads_block
    if block is not None:
        assert block.tobytes() == np.array([[float(c[i]) for c in whole]
                                            for i in range(len(rows))]).tobytes()
    schema = {name: "numeric" for name in header}
    for missing in ("", "NA", "0"):
        check_table_parity(path, schema, missing)
    check_matrix_parity(path)


@pytest.mark.parametrize("cell", ["1" * 15, "-" + "9" * 15, "0." + "1" * 14, "9" * 14 + ".9",
                                  "-" + "9" * 14 + ".9", "-0.000", "000.5", "0", "-0", "007"])
def test_fifteen_digits_and_signed_zeros_are_read_from_bytes(cell, tmp_path):
    path = tmp_path / "d.csv"
    write_columns(path, [[cell, cell]])
    with tabular.read_csv(path, "") as (header, read):
        ((_, cells),) = read([0])
        got = cells.numbers([0])
    assert got[0].tobytes() == np.array([float(cell)] * 2).tobytes()


@pytest.mark.parametrize("cell", ["1" * 16, "0." + "1" * 15, "1" * 15 + ".0", *NOT_PLAIN])
def test_other_cells_are_left_to_float(cell, tmp_path):
    path = tmp_path / "d.csv"
    write_columns(path, [[cell, "1"], ["1", cell]])
    with tabular.read_csv(path, "") as (header, read):
        ((_, cells),) = read([0, 1])
        assert cells.numbers([0, 1]) == {}
        assert cells.block() is None
    check_table_parity(path, {"c0": "numeric", "c1": "numeric"})
    check_matrix_parity(path)


@pytest.mark.parametrize("first, later", [("1.25", "1234"), ("1.25", "12.345"), ("1.25", "-105"),
                                          ("12", "1.5"), ("1.5", "15"), ("0.5", "1.")])
def test_mixed_fraction_digit_counts_are_left_to_float(first, later, tmp_path):
    """A cell whose count differs from the first cell's sends its column
    chunk through float(), even where a digit sits at the first's point."""
    path = tmp_path / "d.csv"
    write_columns(path, [[first, later, first], [first] * 3])
    with tabular.read_csv(path, "") as (header, read):
        ((_, cells),) = read([0, 1])
        assert list(cells.numbers([0, 1])) == [1]
        assert cells.block() is None
    check_table_parity(path, {"c0": "numeric", "c1": "numeric", "z": "numeric"})
    check_matrix_parity(path)


def _fixed_precision_rows(rng, n_rows: int) -> list[list[str]]:
    """``%.6f``, ``%.2f`` and integer columns with blank cells; the first row's
    cell of the second column is blank."""
    rows = []
    for i in range(n_rows):
        row = [f"{rng.random():.6f}", f"{rng.normal() * 100:.2f}", str(int(rng.integers(-50, 50)))]
        row = ["" if rng.random() < 0.05 else c for c in row]
        if i == 0:
            row[1] = ""
        rows.append(row)
    return rows


def _write(path, rows, quoting) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator="\n")
        writer.writerow([f"c{j}" for j in range(len(rows[0]))])
        writer.writerows(rows)


@pytest.mark.parametrize("chunk_rows", [1, 7, 64])
def test_the_byte_path_loads_as_a_quoted_copy_does(chunk_rows, tmp_path, monkeypatch):
    """A fixed-precision file and its QUOTE_ALL copy, which csv.reader reads
    cell by cell, give the same bits; the plain file never reaches float()."""
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(chunk_rows)
    rows = _fixed_precision_rows(rng, 300)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    _write(plain, rows, csv.QUOTE_MINIMAL)
    _write(quoted, rows, csv.QUOTE_ALL)
    schema = dict.fromkeys(["c0", "c1", "c2"], "numeric")
    want = load_csv(quoted, schema)
    with mock.patch.object(tabular, "_numeric_cells", side_effect=AssertionError("float path")):
        got = load_csv(plain, schema)
    assert_same_table(got, want)
    assert_same_table(got, ref_load_csv(plain, schema))
    assert np.isnan(got.column("c1").values[0])
    for columns in (["c1"], ["c0", "c2"]):
        assert_same_table(load_csv(plain, schema, columns=columns),
                          load_csv(quoted, schema, columns=columns))

    # matrices: a blank cell fails both copies alike; the mixed counts go
    # through float(); a %.6f matrix is read from bytes
    monkeypatch.setattr(attribution, "_CHUNK_CELLS", 3 * chunk_rows)
    _, plain_err = outcome(load_importance_matrix, plain)
    _, quoted_err = outcome(load_importance_matrix, quoted)
    assert_same_error(plain_err, quoted_err)
    scores = [[f"{rng.random() ** 4:.6f}" for _ in range(4)] for _ in range(300)]
    for rows, no_float in (([[c.lstrip("-") or "0.5" for c in row] for row in rows], False), (scores, True)):
        _write(plain, rows, csv.QUOTE_MINIMAL)
        _write(quoted, rows, csv.QUOTE_ALL)
        with mock.patch.object(attribution, "_scores", side_effect=AssertionError("float path")) \
                if no_float else mock.patch.object(attribution, "_CHUNK_CELLS", 3 * chunk_rows):
            got = load_importance_matrix(plain)
        assert got.scores.tobytes() == load_importance_matrix(quoted).scores.tobytes()
        assert got.scores.tobytes() == ref_load_importance_matrix(plain).scores.tobytes()
