"""Column-typed tabular data, CSV ingestion, and binary target construction.

A :class:`DataTable` holds an ordered set of typed columns (numeric or
categorical) of equal length. Missing values are ``NaN`` in numeric columns
and ``None`` in categorical ones; a row with a missing value in a feature is
excluded from that feature's grid counts and never satisfies a rule on it.
Tables are treated as immutable after construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateLabelsError,
    DomainError,
    ParseError,
    RangeError,
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

    def equals_mask(self, token) -> np.ndarray:
        """Rows whose category equals ``token``; missing rows never match."""
        k = self.code_of(token)
        if k < 0:
            return np.zeros(len(self.values), dtype=bool)
        return self.codes == k

    def category_counts(self, mask: np.ndarray) -> list[int]:
        """Rows under ``mask`` (boolean or row indices) per vocabulary entry;
        missing rows are not counted."""
        counts = np.bincount(self.codes[mask] + 1, minlength=len(self._encoding[0]) + 1)
        return counts[1:].tolist()


@dataclass(frozen=True, eq=False)
class DataTable:
    """Ordered collection of equally long typed columns with unique names."""

    columns: tuple[FeatureColumn, ...]

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
        return len(self.columns[0].values) if self.columns else 0

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, key: int | str) -> FeatureColumn:
        if isinstance(key, str):
            try:
                key = self._index[key]
            except KeyError:
                raise SchemaError(f"unknown column {key!r}") from None
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
        return DataTable(tuple(c for c in self.columns if c.name not in gone))

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


def target_flags(target) -> np.ndarray:
    """Boolean row flags of a :class:`TargetIndicator` or any boolean sequence."""
    if isinstance(target, TargetIndicator):
        return target.flags
    return np.asarray(target, dtype=bool)


def load_csv(
    path,
    schema: Mapping[str, str],
    missing_token: str = "",
) -> DataTable:
    """Read a UTF-8, comma-separated file with a header row into a DataTable.

    ``schema`` maps every header name to "numeric" or "categorical". Cells
    equal to ``missing_token`` become missing markers.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty (no header row)") from None
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise SchemaError(f"duplicate header names {dupes}")
        for name in header:
            if name not in schema:
                raise SchemaError(f"schema does not cover column {name!r}")
            if schema[name] not in KINDS:
                raise SchemaError(f"unknown kind {schema[name]!r} for column {name!r}")
        raw: list[list[str]] = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(
                    f"row {i} has {len(row)} cells, expected {len(header)}", row=i
                )
            raw.append(row)

    columns = []
    for j, name in enumerate(header):
        kind = schema[name]
        if kind == NUMERIC:
            vals = np.empty(len(raw), dtype=np.float64)
            for i, row in enumerate(raw):
                cell = row[j]
                if cell == missing_token:
                    vals[i] = np.nan
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"cannot parse {cell!r} as a number (row {i}, column {name!r})",
                        row=i,
                        column=name,
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(
                        f"non-finite value {cell!r} (row {i}, column {name!r})",
                        row=i,
                        column=name,
                    )
                vals[i] = v
        else:
            vals = np.array(
                [None if row[j] == missing_token else row[j] for row in raw],
                dtype=object,
            )
        columns.append(FeatureColumn(name, kind, vals))
    return DataTable(tuple(columns))


def make_target(
    probabilities: Sequence[float],
    threshold: float,
    target_label: str = "1",
) -> TargetIndicator:
    """Flag rows whose predicted probability strictly exceeds ``threshold``."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if not math.isfinite(threshold):
        raise DomainError(f"threshold must be finite, got {threshold!r}")
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"probability {probs[i]!r} at row {i} outside [0, 1]")
    return TargetIndicator(flags=probs > threshold, target_label=target_label)


def roc_threshold(
    probabilities: Sequence[float],
    true_labels: Sequence[bool],
) -> float:
    """Pick the decision threshold maximizing TPR - FPR.

    Candidate thresholds are the midpoints between consecutive distinct
    sorted probabilities plus one value below the minimum; ties are broken
    by the smallest maximizing threshold.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(true_labels, dtype=bool)
    if probs.shape != labels.shape:
        raise DomainError("probabilities and labels have different lengths")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("both classes must be present in true_labels")

    distinct = np.unique(probs)  # ascending
    candidates = np.concatenate(
        ([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0)
    )
    # predicted positive at candidate c_i  <=>  p >= distinct[i]
    order = np.argsort(probs, kind="stable")
    sorted_labels = labels[order]
    suffix_pos = np.concatenate((np.cumsum(sorted_labels[::-1])[::-1], [0]))
    suffix_neg = np.concatenate((np.cumsum((~sorted_labels)[::-1])[::-1], [0]))
    first = np.searchsorted(probs[order], distinct, side="left")
    j_scores = suffix_pos[first] / n_pos - suffix_neg[first] / n_neg
    best = int(np.argmax(j_scores))  # argmax returns the first (smallest) maximizer
    return float(candidates[best])
