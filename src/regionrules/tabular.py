"""Column-typed tabular data, CSV ingestion, and binary target construction.

A :class:`DataTable` holds an ordered set of typed columns (numeric or
categorical) of equal length. Missing values are ``NaN`` in numeric columns
and ``None`` in categorical ones; a row with a missing value in a feature is
excluded from that feature's grid counts and never satisfies a rule on it.
Tables are treated as immutable after construction.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateLabelsError,
    DomainError,
    ParseError,
    RangeError,
    RegionRulesError,
    SchemaError,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
KINDS = (NUMERIC, CATEGORICAL)


@dataclass(frozen=True, eq=False)
class FeatureColumn:
    """One named column; ``values`` is float64 (numeric) or object (categorical)."""

    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == NUMERIC:
            arr = np.asarray(self.values, dtype=np.float64)
            if np.isinf(arr).any():
                raise DomainError(f"non-finite value in numeric column {self.name!r}")
        else:
            arr = np.asarray(self.values, dtype=object)
        object.__setattr__(self, "values", arr)

    def missing_mask(self) -> np.ndarray:
        if self.kind == NUMERIC:
            return np.isnan(self.values)
        return self.codes < 0

    @cached_property
    def has_missing(self) -> bool:
        return bool(self.missing_mask().any())  # one pass, on first use

    @cached_property
    def _encoding(self) -> tuple[dict, np.ndarray]:
        # the one pass over a categorical column's values; built on first use
        if self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r} is not categorical")
        values = self.values.tolist()
        index = {v: k for k, v in enumerate(sorted(set(values) - {None}))}
        codes = np.array([index.get(v, -1) for v in values], dtype=np.int32)
        codes.setflags(write=False)  # shared by every caller
        return index, codes

    @property
    def vocabulary(self) -> list:
        """Distinct non-missing categories, in ``sorted`` order."""
        return list(self._encoding[0])

    @property
    def codes(self) -> np.ndarray:
        """Per-row int32 position in :attr:`vocabulary`; missing rows are -1."""
        return self._encoding[1]

    def code_of(self, token) -> int:
        """Vocabulary position of ``token`` by ``==``; -1 for None, unhashable
        values and anything else that names no category."""
        try:
            return -1 if token is None else self._encoding[0].get(token, -1)
        except TypeError:
            return -1

    def equals_mask(self, token, rows=None) -> np.ndarray:
        """Which of ``rows`` (default: all rows) hold the category ``token``;
        missing rows never match."""
        codes = self.codes if rows is None else self.codes[rows]
        k = self.code_of(token)
        return codes == k if k >= 0 else np.zeros(len(codes), dtype=bool)

    def category_counts(self, mask: np.ndarray | None = None) -> list[int]:
        """Rows under ``mask`` (boolean or row indices; default: all rows) per
        vocabulary entry; missing rows are not counted."""
        codes = self.codes if mask is None else self.codes[mask]
        counts = np.bincount(codes + 1, minlength=len(self._encoding[0]) + 1)
        return counts[1:].tolist()


@dataclass(frozen=True, eq=False)
class DataTable:
    """Ordered collection of equally long typed columns with unique names."""

    columns: tuple[FeatureColumn, ...]
    empty_rows: int = 0  # row count of a table without columns

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in table")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have unequal lengths: {sorted(lengths)}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values) if self.columns else self.empty_rows

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, key: int | str) -> FeatureColumn:
        if isinstance(key, str):
            key = self.column_index(key)
        if not 0 <= key < len(self.columns):
            raise SchemaError(f"column index {key} out of range")
        return self.columns[key]

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def drop(self, names: Iterable[str]) -> "DataTable":
        gone = set(names)
        return DataTable(tuple(c for c in self.columns if c.name not in gone), self.n_rows)

    def numeric_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into an (n_rows, d) float matrix."""
        if names is None:
            names = [c.name for c in self.columns if c.kind == NUMERIC]
        cols = []
        for n in names:
            col = self.column(n)
            if col.kind != NUMERIC:
                raise SchemaError(f"column {n!r} is not numeric")
            cols.append(col.values)
        return np.column_stack(cols) if cols else np.empty((self.n_rows, 0))

    def row_values(self, index: int) -> dict[str, object]:
        if not 0 <= index < self.n_rows:
            raise RangeError(f"row index {index} out of range for {self.n_rows} rows")
        out: dict[str, object] = {}
        for c in self.columns:
            v = c.values[index]
            if c.kind == NUMERIC:
                out[c.name] = None if math.isnan(v) else float(v)
            else:
                out[c.name] = v
        return out


@dataclass(frozen=True, eq=False)
class TargetIndicator:
    """Row-aligned boolean membership in the target subgroup."""

    flags: np.ndarray
    target_label: str = "1"

    def __post_init__(self):
        object.__setattr__(self, "flags", np.asarray(self.flags, dtype=bool))

    @property
    def count(self) -> int:
        return int(self.flags.sum())

    def __len__(self) -> int:
        return len(self.flags)


def target_flags(target, n_rows: int) -> np.ndarray:
    """Boolean row flags of a :class:`TargetIndicator` or any boolean sequence,
    checked to cover a table of ``n_rows`` rows."""
    flags = target.flags if isinstance(target, TargetIndicator) else np.asarray(target, dtype=bool)
    if flags.shape != (n_rows,):
        raise SchemaError("target indicator length does not match the table")
    return flags


_CHUNK_ROWS = 2048  # rows whose cell strings are alive at once
_WINDOW = 1 << 20  # bytes read at a time; only a longer line grows the buffer
_TEXT = 1 << 16  # bytes decoded for one StringIO, which holds 4 bytes per character
_PAD = 16  # bytes before a chunk's first cell, so that every cell has a 16-byte window


@contextmanager
def read_csv(path, empty_message: str):
    """Header and reader of a comma-separated UTF-8 file, as a context
    manager; a header that repeats a name raises SchemaError.
    ``read(js, max_cells=None)``, called once with increasing column indices,
    yields ``(rows, cells)`` chunks: ``rows`` is the range of their 0-based
    data rows, ``cells`` their ``js`` cells (``len`` counts them), which
    ``cells.strings(ks)`` returns as strings in row order, ``ks`` being
    ascending positions in ``js``; ``cells.numbers(ks)`` and
    ``cells.block()`` read plain decimals from the file's bytes where they
    can (see :func:`_decimals`). A chunk has at most
    ``_CHUNK_ROWS`` rows and, with ``max_cells``, at most that many cells but
    at least one row. The file is read whole lines at a time through one
    reused buffer of about ``_WINDOW`` bytes, so neither it nor its text is
    ever held whole; a pipe reads like a file. A row of the wrong width
    raises ParseError once the rows before it have been yielded; so do
    malformed quoting and undecodable bytes. An error raised in the block
    leaves it only once the rest of the file has been checked as UTF-8: the
    first undecodable byte in the file beats every other error."""
    with open(path, "rb") as fh:
        windows = _windows(fh, path)
        try:
            pieces = _pieces(windows, path)
            if (first := next(pieces, None)) is None:
                raise ParseError(empty_message)
            if isinstance(first, tuple):
                buf, ends = first
                header = buf[: ends[1]].tobytes().decode().split(",")
                first = (buf, ends[1:])
            else:  # csv.reader's rows, header first: a first window is never empty, and
                header = next(first)  # csv.reader makes each line a row ([] if blank) or raises
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise SchemaError(f"duplicate header names {dupes}")
            yield header, partial(_cells, chain([first], pieces), len(header))
        except RegionRulesError:
            for _ in windows:  # raises at an undecodable byte
                pass
            raise


def read_text(path) -> str:
    """The text of a UTF-8 file, read as :func:`read_csv` reads a table: one
    BOM is skipped, and an undecodable byte is a ParseError at its offset."""
    with open(path, "rb") as fh:
        return "".join(str(memoryview(buf)[lo:hi], "utf-8") for buf, lo, hi in _windows(fh, path))


def _windows(fh, path):
    """``fh`` in windows of whole lines, about ``_WINDOW`` bytes each, as
    ``(buf, lo, hi)``: ``buf[lo:hi]`` holds them until the next window is
    drawn. The bytes are read into one reused buffer, which grows only for a
    line longer than itself. Every window is checked as UTF-8, and the first
    skips a BOM. A window ends after an LF, after a CR that no LF follows,
    or at the end of the file, so no line end or character straddles two."""
    buf, kept, pos = bytearray(_WINDOW), 0, 0  # buf[:kept]: a partial line carried over
    while True:
        if kept == len(buf):  # a new object: views of the old one may be alive
            buf = buf + bytes(len(buf))
        n = fh.readinto(memoryview(buf)[kept:])
        end = kept + n
        cut = end  # the end of the file, else after the last LF, else after a CR
        if n:
            cut = buf.rfind(b"\n", kept, end) + 1 or buf.rfind(b"\r", 0, end - 1) + 1
        if cut:
            lo = 3 if pos == 0 and buf.startswith(b"\xef\xbb\xbf", 0, cut) else 0
            if np.frombuffer(buf, np.uint8, cut - lo, lo).max(initial=0) >= 128:
                try:
                    str(memoryview(buf)[lo:cut], "utf-8")
                except UnicodeDecodeError as exc:  # offsets count the BOM
                    at = pos + lo + exc.start
                    raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {at}") from None
            if cut > lo:
                yield buf, lo, cut
            pos += cut
        if not n:
            return
        kept = end - cut
        buf[:kept] = buf[cut:end]


def _pieces(windows, path):
    """The lines of ``windows`` in file order. First ``(buf, ends)`` runs of
    lines that csv.reader splits at "," alone: the uint8 array ``buf`` holds
    them, and they end at ``ends[1:]`` (``ends[0]`` ends the line before
    them). From the first line that csv.reader may split otherwise (it is
    blank, longer than the field size limit or holds a quote, CR or NUL) to
    the end, one last piece: an iterator of csv.reader rows. A line's
    length in bytes is never below its length in characters."""
    limit = csv.field_size_limit()
    line = 0  # lines before this window
    for raw, lo, hi in windows:
        buf = np.frombuffer(raw, np.uint8, hi - lo, lo)
        # newline positions, 64 KiB at a time: a window-sized mask is slower
        ends = [[-1]] + [np.flatnonzero(buf[i : i + 65536] == ord("\n")) + i
                         for i in range(0, len(buf), 65536)]
        if buf[-1] != ord("\n"):  # the last line of the file
            ends.append([len(buf)])
        ends = np.concatenate(ends)
        lengths = np.diff(ends) - 1
        odd = [*np.flatnonzero((lengths == 0) | (lengths > limit))[:1]]
        for c in b'"\r\0':
            if (at := raw.find(c, lo, hi)) >= 0:
                odd.append(np.searchsorted(ends, at - lo) - 1)  # the line holding it
        stop = int(min(odd, default=len(lengths)))
        if stop:
            yield buf, ends[: stop + 1]
        if stop < len(lengths):
            rest = chain([(raw, lo + ends[stop] + 1, hi)], windows)
            yield _csv_rows(rest, line + stop, path)
            return
        line += stop


def _csv_rows(windows, line: int, path):
    """The csv.reader rows of ``windows``, one at a time; ``line`` lines of
    the file come before them. Lines are split as ``io.StringIO(newline="")``
    splits them, about ``_TEXT`` bytes at a time."""
    reader = csv.reader(s for text in _texts(windows) for s in io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        at = line + reader.line_num
        raise ParseError(f"{path}: malformed CSV at line {at}: {exc}") from None


def _texts(windows):
    """The text of ``windows``, cut after the first LF past each ``_TEXT``
    bytes or at a window's end; such a cut never splits a character or a
    line."""
    for raw, lo, hi in windows:
        while lo < hi:
            cut = raw.find(b"\n", lo + _TEXT, hi) + 1 or hi
            yield str(memoryview(raw)[lo:cut], "utf-8")
            lo = cut


def _cells(pieces, width: int, js, max_cells: int | None = None):
    """read(js, max_cells) of the ``pieces`` of :func:`_pieces`."""
    step = _CHUNK_ROWS
    if max_cells is not None:
        step = min(step, max(1, max_cells // max(1, len(js))))
    row = 0
    for piece in pieces:
        if isinstance(piece, tuple):
            yield from _split_cells(*piece, width, np.asarray(js, dtype=np.intp), row, step)
            row += len(piece[1]) - 1
        else:  # the last piece
            yield from _csv_cells(piece, width, js, row, step)


def _split_cells(buf: np.ndarray, ends: np.ndarray, width: int, js, row: int, step: int):
    """read(js) of the lines of ``buf`` that end at ``ends[1:]``, the first
    of them data row ``row``, ``step`` lines at a time; none has a quote,
    CR or NUL or is blank. Commas and newlines never occur inside a
    multi-byte UTF-8 sequence, so cells are cut at byte offsets."""
    comma = np.uint8(ord(","))
    for start in range(0, len(ends) - 1, step):
        lo = ends[start] + 1
        line_ends = ends[start + 1 : start + 1 + step] - lo
        # _PAD zero bytes, then a comma, then the lines with every line end
        # made a comma: each cell of the copy lies between two commas
        chunk = np.empty(_PAD + line_ends[-1] + 1, np.uint8)
        chunk[: _PAD - 1] = 0
        chunk[_PAD - 1] = comma
        chunk[_PAD : _PAD + line_ends[-1]] = buf[lo : lo + line_ends[-1]]
        chunk[line_ends + _PAD] = comma
        seps = np.flatnonzero(chunk[_PAD - 1 :] == comma)
        widths = np.diff(np.searchsorted(seps, line_ends + 1, side="right"), prepend=1)
        bad = np.flatnonzero(widths != width)
        n = int(bad[0]) if len(bad) else len(widths)
        i = row + start
        if n:
            yield range(i, i + n), _ByteCells(chunk, seps[: n * width + 1], width, js)
        if n < len(widths):
            raise ParseError(f"row {i + n} has {widths[n]} cells, expected {width}", row=i + n)


class _ByteCells:
    """The read cells of one chunk of the byte path. Cell k of row r lies
    between the commas at ``seps[r * width + js[k]]`` and the next one, as
    offsets into ``chunk[_PAD - 1:]``; ``ks`` name read columns by position
    in ``js``, in ascending order."""

    def __init__(self, chunk, seps, width: int, js):
        self.chunk, self.seps, self.width, self.js = chunk, seps, width, js
        self.n = (len(seps) - 1) // width

    def __len__(self) -> int:
        return self.n * len(self.js)

    def _bounds(self, ks):
        """Start and end offsets of the cells of ``ks``, (rows, len(ks)) each."""
        cols = self.js[ks]
        if len(cols) == self.width:  # every column, in order
            cols = slice(None)
        starts = self.seps[:-1].reshape(self.n, self.width)[:, cols] + 1
        return starts, self.seps[1:].reshape(self.n, self.width)[:, cols]

    def strings(self, ks) -> list[str]:
        """The cells of ``ks`` in row order; column ``ks[i]`` is ``[i::len(ks)]``."""
        picked = self.chunk[_PAD : _PAD + self.seps[-1]]  # each cell with its comma
        if len(ks) < self.width:
            wanted = np.zeros(self.width, bool)
            wanted[self.js[ks]] = True
            picked = picked[np.repeat(np.tile(wanted, self.n), np.diff(self.seps))]
        cells = picked.tobytes().decode().split(",")
        cells.pop()
        return cells

    def numbers(self, ks) -> dict:
        """The float64 values of those columns of ``ks`` whose cells all read
        as decimals (see :func:`_decimals`; a blank cell is NaN), by column.
        The columns whose first present cells have the same number of
        fraction digits are read together."""
        starts, ends = self._bounds(ks)
        if (ends[0] - starts[0] > 17).all():  # no first cell is short enough, as in repr floats
            return {}
        first, at = np.argmax(ends > starts, axis=0), np.arange(len(ks))
        counts = _fraction_digits(self.chunk, starts[first, at], ends[first, at])
        out = {}
        for f in set(counts.tolist()) - {15}:
            group = np.flatnonzero(counts == f)
            values, read = _decimals(self.chunk, starts[:, group], ends[:, group], f, True)
            out.update((ks[i], values[:, g].copy()) for g, i in enumerate(group) if read[g])
        return out

    def block(self):
        """All read cells as one (rows, len(js)) float64 group, its fraction
        digits those of the first cell, or None unless every cell reads as a
        decimal (see :func:`_decimals`; a blank cell does not)."""
        starts, ends = self._bounds(slice(None))
        f = _fraction_digits(self.chunk, starts[0, :1], ends[0, :1])[0]
        values, read = _decimals(self.chunk, starts, ends, int(f), False)
        return values if read.all() else None


class _TextCells(list):
    """The read cells of one chunk of csv.reader rows, in row order; no cell
    is read as a decimal from bytes."""

    def __init__(self, cells, m: int):
        super().__init__(cells)
        self.m = m

    def strings(self, ks) -> list[str]:
        if len(ks) == self.m:
            return self
        return [self[r + k] for r in range(0, len(self), self.m) for k in ks]

    def numbers(self, ks) -> dict:
        return {}

    def block(self):
        return None


_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # eight "0" bytes
_PAIRS = _U64(0x000000FF000000FF)
_KEEP = np.array([(1 << 64) - (1 << 8 * p) for p in range(9)], _U64)  # all but the p low bytes


def _fraction_digits(chunk, starts, ends) -> np.ndarray:
    """How many of the last 16 bytes of each cell between ``starts`` and
    ``ends`` (offsets into ``chunk[_PAD - 1:]``) follow its last point, 0
    where they hold none; 15 for a cell too long to read as a decimal."""
    size = ends - starts
    last = np.ndarray((len(chunk) - 15, 16), np.uint8, chunk, 0, (1, 1))[ends + _PAD - 17]
    point = (last == ord(".")) & (np.arange(16) >= 16 - size[:, None])
    counts = np.where(point.any(axis=1), np.argmax(point[:, ::-1], axis=1), 0)
    counts[size > 17] = 15
    return counts


def _decimals(chunk, starts, ends, f: int, blank: bool):
    """The cells between ``starts`` and ``ends`` (offsets into
    ``chunk[_PAD - 1:]``, one shape) as float64, and per column (last axis)
    whether all of them read as decimals: ``-?[0-9]+`` then, when ``f``, a
    point and ``f`` digits, with at most 15 digits in all, or blank (NaN)
    where ``blank``. Such a cell is ``m / 10**f`` with both exact doubles
    (m < 10**15), so one division rounds it as ``float()`` does (Clinger,
    PLDI 1990). Each cell is read from the 8 or 16 bytes that end it, as
    little-endian words (first character lowest): bytes before its digits
    become zeros, and the point, whose place is fixed by ``f``, is dropped."""
    if f > 14:  # no cell has more than 15 digits
        return None, np.zeros(starts.shape[1:], bool)
    size = ends - starts
    neg = chunk[_PAD - 1 :][starts] == ord("-")
    digits = size - neg - (f > 0)
    empty = (size == 0) & blank
    read = (digits > f) & (digits <= 15) | empty
    if not read.all(axis=0).any():
        return None, np.zeros(read.shape[1:], bool)
    n_words = 2 if f > 6 or digits.max(initial=0) > 7 else 1
    words = np.ndarray((len(chunk) - 7,), "<u8", chunk, 0, (1,))
    xs = [words[ends + (_PAD - 1 - 8 * (n_words - w))] for w in range(n_words)]
    if f:  # the bytes before the point move up one place
        w, q = divmod(8 * n_words - 1 - f, 8)
        x = xs[w]
        read &= (x >> _U64(8 * q)) & _U64(255) == ord(".")
        low = _U64((1 << 8 * q) - 1)
        xs[w] = (x & low) << _U64(8) | x & _KEEP[q + 1]
        if w:
            xs[w] |= xs[0] >> _U64(56)
            xs[0] <<= _U64(8)
    m = 0
    for w, x in enumerate(xs):
        x ^= _ZEROS  # a digit byte now holds its value
        x &= _KEEP[np.clip(8 * (n_words - w) - digits, 0, 8)]  # bytes before the digits
        read &= (x + _U64(0x0606060606060606) | x) & _U64(0xF0F0F0F0F0F0F0F0) == 0
        x = x * _U64(10) + (x >> _U64(8))  # two digits per 16 bits, then eight per word
        x = (x & _PAIRS) * _U64(100 + (1000000 << 32)) \
            + (x >> _U64(16) & _PAIRS) * _U64(1 + (10000 << 32)) >> _U64(32)
        m = m * _U64(10**8) + x
    values = m.astype(np.float64) / 10.0**f
    np.negative(values, out=values, where=neg)
    values[empty] = np.nan
    return values, (read | empty).all(axis=0)


def _csv_cells(rows, width: int, js, row: int, step: int):
    """read(js) of the csv.reader ``rows``, the first of them data row
    ``row``, ``step`` rows at a time."""
    while chunk := list(islice(rows, step)):
        n = next((i for i, r in enumerate(chunk) if len(r) != width), len(chunk))
        if n:
            yield range(row, row + n), _TextCells([r[j] for r in chunk[:n] for j in js], len(js))
        if n < len(chunk):
            at = row + n
            raise ParseError(f"row {at} has {len(chunk[n])} cells, expected {width}", row=at)
        row += n


def _numeric_cells(cells: list[str], rows: range, missing: str, name: str) -> np.ndarray:
    try:
        if missing in cells:
            vals = [math.nan if c == missing else float(c) for c in cells]
        else:  # map calls float() without a Python step per cell
            vals = map(float, cells)
        vals = np.fromiter(vals, np.float64, len(cells))
        nan_rows = np.flatnonzero(np.isnan(vals)).tolist()
        if not np.isinf(vals).any() and all(cells[i] == missing for i in nan_rows):
            return vals
    except ValueError:
        pass
    for i, cell in zip(rows, cells):  # name the first bad cell
        try:
            if cell == missing or math.isfinite(float(cell)):
                continue
            problem = f"non-finite value {cell!r}"
        except ValueError:
            problem = f"cannot parse {cell!r} as a number"
        raise ParseError(f"{problem} (row {i}, column {name!r})", row=i, column=name)


def load_csv(
    path,
    schema: Mapping[str, str],
    missing_token: str = "",
    columns: Iterable[str] | None = None,
) -> DataTable:
    """Read a UTF-8, comma-separated file with a header row into a DataTable.

    ``schema[name]`` is every header name's kind, "numeric" or "categorical"
    (a ``defaultdict`` gives undeclared names a default kind). Only the named
    ``columns`` (default: all) are converted, in header order; the other
    columns' cells are width-checked and never parsed. Cells equal to
    ``missing_token`` become missing markers. Of the bad cells, the first one
    in the leftmost bad column is reported.
    """
    with read_csv(path, "file is empty (no header row)") as (header, read):
        index = {name: j for j, name in enumerate(header)}
        for name in header:
            try:
                kind = schema[name]
            except KeyError:
                raise SchemaError(f"schema does not cover column {name!r}") from None
            if kind not in KINDS:
                raise SchemaError(f"unknown kind {kind!r} for column {name!r}")
        wanted = header if columns is None else list(columns)
        if unknown := [name for name in wanted if name not in index]:
            raise SchemaError(f"unknown column {unknown[0]!r}")
        parts: dict[int, list[np.ndarray]] = {j: [] for j in sorted(map(index.get, wanted))}
        numeric = [k for k, j in enumerate(parts) if schema[header[j]] == NUMERIC]
        bad = []  # (column, row, ParseError), raised once every row's width is checked
        for rows, cells in read(list(parts)):
            done = cells.numbers(numeric) if numeric and missing_token == "" else {}
            # a byte mask costs more than decoding a few columns read from bytes
            rest = [k for k in range(len(parts)) if k not in done or 2 * len(done) < len(parts)]
            flat = cells.strings(rest) if rest else []
            strings = {k: flat[i :: len(rest)] for i, k in enumerate(rest) if k not in done}
            for k, (j, part) in enumerate(parts.items()):
                if k in done:
                    part.append(done[k])
                    continue
                name, column = header[j], strings[k]
                if schema[name] == CATEGORICAL:
                    column = [None if c == missing_token else c for c in column]
                    part.append(np.array(column, dtype=object))
                    continue
                try:
                    part.append(_numeric_cells(column, rows, missing_token, name))
                except ParseError as exc:
                    bad.append((j, exc.row, exc))
        if bad:
            raise min(bad, key=lambda b: b[:2])[2]
    built = []
    for j in list(parts):  # a column's chunks are freed once they are joined
        part = parts.pop(j)
        values = np.concatenate(part) if part else []
        built.append(FeatureColumn(header[j], schema[header[j]], values))
    return DataTable(tuple(built))


def make_target(
    probabilities: Sequence[float],
    threshold: float,
    target_label: str = "1",
) -> TargetIndicator:
    """Flag rows whose predicted probability strictly exceeds ``threshold``."""
    if not math.isfinite(threshold):
        raise DomainError(f"threshold must be finite, got {threshold!r}")
    return TargetIndicator(_probabilities(probabilities) > threshold, target_label)


def _probabilities(values: Sequence[float]) -> np.ndarray:
    """``values`` as float64, each checked to lie in [0, 1] (NaN does not)."""
    probs = np.asarray(values, dtype=np.float64)
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"probability {float(probs[i])!r} at row {i} outside [0, 1]")
    return probs


def roc_threshold(
    probabilities: Sequence[float],
    true_labels: Sequence[bool],
) -> float:
    """Pick the decision threshold maximizing TPR - FPR.

    Candidate thresholds are the midpoints between consecutive distinct
    sorted probabilities plus one value below the minimum; ties are broken
    by the smallest maximizing threshold. Every probability must lie in
    [0, 1], as for :func:`make_target`.
    """
    probs = _probabilities(probabilities)
    labels = np.asarray(true_labels, dtype=bool)
    if probs.shape != labels.shape:
        raise DomainError("probabilities and labels have different lengths")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("both classes must be present in true_labels")

    distinct, at = np.unique(probs, return_inverse=True)  # ascending; probs == distinct[at]
    candidates = np.concatenate(
        ([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0)
    )
    # predicted positive at candidate c_i  <=>  p >= distinct[i]: per class,
    # the rows at each distinct value, summed from the top
    pos = np.cumsum(np.bincount(at[labels], minlength=len(distinct))[::-1])[::-1]
    neg = np.cumsum(np.bincount(at[~labels], minlength=len(distinct))[::-1])[::-1]
    # TPR - FPR scaled by n_pos * n_neg, in integers: float ratios can round
    # exact ties apart; argmax returns the first (smallest) maximizer
    j_scores = pos * n_neg - neg * n_pos
    best = int(np.argmax(j_scores))
    return float(candidates[best])
