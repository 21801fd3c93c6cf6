"""Shared builders and independent oracles used across the test modules."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from regionrules import DataTable, FeatureColumn, TargetIndicator
from regionrules.extraction import ExtractionConfig


def numeric_table(values, name: str = "x") -> DataTable:
    return DataTable((FeatureColumn(name, "numeric", np.asarray(values, dtype=float)),))


def fixture_table():
    """20-row single-feature table whose uniform 4-grid histogram is
    (target, total) = (1,5), (3,5), (5,5), (1,5) on edges [0, 1, 2, 3, 4]."""
    values = np.array(
        [0.0, 0.2, 0.4, 0.6, 0.8,
         1.0, 1.2, 1.4, 1.6, 1.8,
         2.0, 2.2, 2.4, 2.6, 2.8,
         3.2, 3.4, 3.6, 3.8, 4.0]
    )
    flags = np.zeros(20, dtype=bool)
    flags[[0, 5, 6, 7, 10, 11, 12, 13, 14, 15]] = True
    return numeric_table(values), TargetIndicator(flags=flags)


# ---------------------------------------------------------------------------
# independent oracles


def brute_force_itemsets(transactions, c_min: int, k_max: int) -> dict:
    """Exact support counts for every itemset, by superset-sum DP over bitmasks."""
    items = sorted({i for t in transactions for i in t})
    pos = {it: b for b, it in enumerate(items)}
    n = len(items)
    counts = np.zeros(1 << n, dtype=np.int64)
    for t in transactions:
        mask = 0
        for it in t:
            mask |= 1 << pos[it]
        counts[mask] += 1
    idx = np.arange(1 << n)
    for b in range(n):
        bit = 1 << b
        without = np.nonzero((idx & bit) == 0)[0]
        counts[without] += counts[without | bit]
    out = {}
    for mask in range(1, 1 << n):
        size = int(mask).bit_count()
        if size > k_max:
            continue
        c = int(counts[mask])
        if c >= c_min:
            out[frozenset(items[b] for b in range(n) if mask & (1 << b))] = c
    return out


def per_row_equals(col, token) -> np.ndarray:
    """Category match by a per-row ``==`` scan, the reference for the codes."""
    return np.array([v == token for v in col.values], dtype=bool)


# The mask-based numeric kernel the sorted kernel replaced, kept verbatim in
# behaviour: every count is taken by a pass over the full-length arrays.


def ref_make_grids(values, n_g: int, strategy: str = "uniform", seed: int = 0) -> np.ndarray:
    """Grid edges with the range and distinct count taken from ``np.unique``."""
    from regionrules.binning import _kmeans_1d
    from regionrules.errors import DegenerateFeatureError

    vals = np.asarray(values, dtype=np.float64)
    vals = vals[~np.isnan(vals)]
    distinct = np.unique(vals)
    if len(distinct) < 2:
        raise DegenerateFeatureError(
            f"need at least 2 distinct values to bin, got {len(distinct)}"
        )
    lo, hi = float(distinct[0]), float(distinct[-1])
    if strategy == "uniform":
        edges = np.linspace(lo, hi, n_g + 1)
    elif strategy == "quantile":
        edges = np.quantile(vals, np.linspace(0.0, 1.0, n_g + 1))
    else:
        centers = _kmeans_1d(vals, min(n_g, len(distinct)), seed)
        edges = np.concatenate(([lo], (centers[:-1] + centers[1:]) / 2.0, [hi]))
    return np.unique(edges)


def ref_grid_counts(edges, vals, flags, cond, feature: int = 0):
    """Per-grid counts by ``searchsorted`` + ``bincount`` over the masked rows."""
    from regionrules import GridHistogram

    edges = np.asarray(edges, dtype=np.float64)
    n_grids = len(edges) - 1
    usable = cond & ~np.isnan(vals) & (vals >= edges[0]) & (vals <= edges[-1])
    idx = np.minimum(np.searchsorted(edges, vals[usable], side="right") - 1, n_grids - 1)
    return GridHistogram(
        edges=tuple(edges),
        target_counts=tuple(np.bincount(idx[flags[usable]], minlength=n_grids)),
        total_counts=tuple(np.bincount(idx, minlength=n_grids)),
        feature=feature,
        condition_total=int(cond.sum()),
        condition_target=int((cond & flags).sum()),
    )


def ref_screen_interval(vals, flags, cond, lo: float, hi: float) -> tuple[int, int]:
    """(rows, target rows) under ``cond`` whose value lies in [lo, hi]."""
    pm = cond & ~np.isnan(vals) & (vals >= lo) & (vals <= hi)
    return int(pm.sum()), int((pm & flags).sum())


def qual_count(scores: np.ndarray, threshold: float, gamma: float) -> int:
    """Brute-force count of features meeting the coverage requirement."""
    import math

    required = math.ceil(Fraction(gamma) * scores.shape[0])
    return int(((scores >= threshold).sum(axis=0) >= required).sum())


# ---------------------------------------------------------------------------
# random instances


def random_table(rng: np.random.Generator, max_rows: int = 400, max_features: int = 5):
    """A random mixed-type table with a noisy planted target subgroup."""
    n = int(rng.integers(40, max_rows + 1))
    d = int(rng.integers(1, max_features + 1))
    columns = []
    numeric_ids = []
    for f in range(d):
        if d > 1 and rng.random() < 0.2:
            tokens = np.array(list("abcde"))[: rng.integers(2, 5)]
            vals = rng.choice(tokens, size=n).astype(object)
            columns.append(FeatureColumn(f"c{f}", "categorical", vals))
        else:
            kind = rng.integers(3)
            if kind == 0:
                vals = rng.normal(0.0, 1.0, size=n)
            elif kind == 1:
                vals = rng.uniform(-2.0, 2.0, size=n)
            else:
                vals = np.where(rng.random(n) < 0.5,
                                rng.normal(-1.5, 0.4, n), rng.normal(1.5, 0.4, n))
            if rng.random() < 0.15:
                vals = vals.copy()
                vals[rng.random(n) < 0.05] = np.nan
            numeric_ids.append(f)
            columns.append(FeatureColumn(f"x{f}", "numeric", vals))
    table = DataTable(tuple(columns))

    if numeric_ids and rng.random() < 0.7:
        # concentrate the target inside a half-open band of one numeric feature
        f = int(rng.choice(numeric_ids))
        v = table.columns[f].values
        finite = v[~np.isnan(v)]
        cut = float(np.quantile(finite, rng.uniform(0.4, 0.8)))
        inside = np.nan_to_num(v, nan=-np.inf) >= cut
        p = np.where(inside, rng.uniform(0.6, 0.95), rng.uniform(0.02, 0.2))
        flags = rng.random(n) < p
    else:
        flags = rng.random(n) < rng.uniform(0.1, 0.5)
    if not flags.any():
        flags[int(rng.integers(n))] = True
    return table, TargetIndicator(flags=flags)


def random_config(rng: np.random.Generator, table: DataTable) -> ExtractionConfig:
    return ExtractionConfig(
        min_support=int(rng.integers(5, max(6, table.n_rows // 4))),
        max_rules=int(rng.integers(1, min(3, len(table.columns)) + 1)),
        n_grids=int(rng.integers(3, 9)),
        max_branches=int(rng.integers(1, 4)),
        strategy=("uniform", "kmeans", "quantile")[rng.integers(3)],
        min_confidence=0.8,
        seed=int(rng.integers(1 << 16)),
    )


def two_level_instance(rng: np.random.Generator):
    """1-feature table where one contiguous grid block has constant per-grid
    confidence > 1/2 over a constant sub-1/2 background.

    Values are pinned so uniform edges land on exact integers; for this family
    the block is the unique max-fitness contiguous interval with feasible
    support, and the greedy growth returns exactly it.
    """
    n_g = int(rng.integers(3, 9))
    while True:
        a = int(rng.integers(0, n_g))
        b = int(rng.integers(a, n_g))
        if (a, b) != (0, n_g - 1):
            break
    q_in = int(rng.integers(2, 7))
    p_in = int(rng.integers(q_in // 2 + 1, q_in + 1))
    if rng.random() < 0.4:
        p_out, q_out = 0, 1
    else:
        q_out = int(rng.integers(2, 7))
        p_out = int(rng.integers(0, (q_out + 1) // 2))  # strictly below 1/2

    values, flags = [], []
    for g in range(n_g):
        inside = a <= g <= b
        m = int(rng.integers(1, 5))
        n_rows = (q_in if inside else q_out) * m
        t_rows = (p_in if inside else p_out) * m
        if q_out == 1 and not inside:
            n_rows = int(rng.integers(1, 9))
            t_rows = 0
        for j in range(n_rows):
            values.append(g + (j + 1) / (n_rows + 1))
            flags.append(j < t_rows)
    values[0] = 0.0  # pin the range to [0, n_g] so uniform edges are integers
    values[-1] = float(n_g)

    order = np.argsort(np.asarray(values), kind="stable")
    values = np.asarray(values)[order]
    flags = np.asarray(flags, dtype=bool)[order]

    table = numeric_table(values)
    target = TargetIndicator(flags=flags)

    block_n = 0
    block_t = 0
    g_of = np.clip(np.floor(values).astype(int), 0, n_g - 1)
    for g in range(a, b + 1):
        block_n += int((g_of == g).sum())
        block_t += int((flags & (g_of == g)).sum())
    s_min = int(rng.integers(1, block_n + 1))
    expected_fitness = Fraction(2 * block_t - block_n, int(flags.sum()))
    return table, target, n_g, s_min, expected_fitness
