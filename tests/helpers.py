"""Shared builders and independent oracles used across the test modules."""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from regionrules import DataTable, FeatureColumn, FrequentItemset, TargetIndicator, binning
from regionrules.attribution import DEFAULT_COVERAGE, ImportanceMatrix, _required_rows
from regionrules.errors import (
    EmptyMatrixError,
    EmptyResultError,
    NoFeatureError,
    ParseError,
    SchemaError,
)
from regionrules.extraction import ExtractionConfig
from regionrules.tabular import KINDS, NUMERIC, target_flags


def column_histogram(col: FeatureColumn, target_rows, rows, config: ExtractionConfig):
    """:func:`binning.node_histogram` of one numeric column over ``rows``
    (``None``: every row), binned as ``config`` says."""
    return binning.node_histogram(
        col.values, rows, target_rows, col.has_missing,
        config.n_grids, config.strategy, config.seed,
    )


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


class _FPNode:
    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item, parent):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict = {}


def _ref_fp_tree(weighted, c_min: int):
    """Build an FP-tree; returns (header-table, per-item frequent counts)."""
    counts: Counter = Counter()
    for items, w in weighted:
        for it in items:
            counts[it] += w
    freq = {it: c for it, c in counts.items() if c >= c_min}
    # descending global frequency, ties by ascending item, for a compact tree
    rank = {it: r for r, it in enumerate(sorted(freq, key=lambda it: (-freq[it], it)))}

    root = _FPNode(None, None)
    header: dict = defaultdict(list)
    for items, w in weighted:
        path = sorted((it for it in items if it in freq), key=rank.__getitem__)
        node = root
        for it in path:
            child = node.children.get(it)
            if child is None:
                child = _FPNode(it, node)
                node.children[it] = child
                header[it].append(child)
            child.count += w
            node = child
    return header, freq


def _ref_fp_mine(weighted, c_min: int, k_max: int, suffix: frozenset, out: list) -> None:
    header, freq = _ref_fp_tree(weighted, c_min)
    for item, count in freq.items():
        itemset = suffix | {item}
        out.append(FrequentItemset(items=itemset, count=count))
        if len(itemset) >= k_max:
            continue
        base = []
        for node in header[item]:
            path = []
            cur = node.parent
            while cur is not None and cur.item is not None:
                path.append(cur.item)
                cur = cur.parent
            if path:
                base.append((frozenset(path), node.count))
        if base:
            _ref_fp_mine(base, c_min, k_max, itemset, out)


def ref_fp_growth(transactions, c_min: int, k_max: int) -> list[FrequentItemset]:
    """FP-Growth (Han, Pei & Yin, SIGMOD 2000) over a tree of Python nodes,
    the miner ``itemsets`` used before it mined boolean columns; same
    canonical output order."""
    weighted = [(frozenset(t), 1) for t in transactions]
    out: list[FrequentItemset] = []
    if weighted:
        _ref_fp_mine(weighted, c_min, k_max, frozenset(), out)
    out.sort(key=lambda s: (len(s.items), -s.count, s.sorted_items()))
    return out


def hit_transactions(matrix: ImportanceMatrix, j_th: float) -> list[frozenset[int]]:
    """Per matrix row, the features scoring >= ``j_th``; rows with none are
    dropped."""
    hits = matrix.scores >= j_th
    return [frozenset(np.flatnonzero(row).tolist()) for row in hits if row.any()]


def ref_brute_force_best(table, target, n_g, l_max, s_min, strategy="uniform", seed=0):
    """The exhaustive oracle as it was before it shared the search's parts:
    full-table interval masks of its own, and a rank key of fitness, then
    larger support, then fewer rules. The option checks and the size guard
    are left out."""
    from regionrules import make_grids
    from regionrules.extraction import CategoryEquals, Interval, Rule, RuleSet, RuleStats

    flags = target_flags(target, table.n_rows)
    target_count = int(flags.sum())
    if target_count == 0:
        raise EmptyResultError("target subgroup is empty")
    per_feature = []
    for f, col in enumerate(table.columns):
        options = []
        if col.kind == NUMERIC:
            vals = col.values
            present = ~np.isnan(vals)
            edges = make_grids(vals[present], n_g, strategy, seed)
            g = len(edges) - 1
            for a in range(g):
                for b in range(a, g):
                    rule = Rule(f, Interval(float(edges[a]), float(edges[b + 1])))
                    mask = present & (vals >= edges[a]) & (vals <= edges[b + 1])
                    options.append((rule, mask))
        else:
            for tok in col.vocabulary:
                options.append((Rule(f, CategoryEquals(tok)), col.equals_mask(tok)))
        per_feature.append(options)

    best = None
    for size in range(1, l_max + 1):
        for subset in combinations(range(len(table.columns)), size):
            for combo in product(*(per_feature[f] for f in subset)):
                mask = combo[0][1].copy()
                for _, m in combo[1:]:
                    mask &= m
                n = int(mask.sum())
                if n < s_min:
                    continue
                tp = int((mask & flags).sum())
                rules = tuple(r for r, _ in combo)
                key = (-(2 * tp - n), -n, len(rules), tuple(sorted(r.sort_key() for r in rules)))
                if best is None or key < best[0]:
                    best = (key, rules, n, tp)
    if best is None:
        raise EmptyResultError(f"no conjunction reaches support {s_min}")
    _, rules, n, tp = best
    return RuleSet(rules=rules, stats=RuleStats(n, tp, target_count))


def per_row_equals(col, token) -> np.ndarray:
    """Category match by a per-row ``==`` scan, the reference for the codes."""
    return np.array([v == token for v in col.values], dtype=bool)


# The mask-based numeric kernel the sorted kernel replaced, kept verbatim in
# behaviour: every count is taken by a pass over the full-length arrays.


def ref_make_grids(values, n_g: int, strategy: str = "uniform", seed: int = 0) -> np.ndarray:
    """Grid edges with the range and distinct count taken from ``np.unique``."""
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
        centers = ref_kmeans_1d(vals, min(n_g, len(distinct)), seed)
        edges = np.concatenate(([lo], (centers[:-1] + centers[1:]) / 2.0, [hi]))
    return np.unique(edges)


def ref_kmeans_1d(values: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded 1-D k-means (k-means++ init, Lloyd to convergence or 100 iters).

    The array form the scalar kernel replaced, drawing each seed with
    ``Generator.choice``.
    """
    rng = np.random.default_rng(seed)
    centers = np.empty(k, dtype=np.float64)
    centers[0] = values[rng.integers(len(values))]
    d2 = (values - centers[0]) ** 2
    n_centers = k
    for i in range(1, k):
        total = d2.sum()
        if total == 0.0:
            n_centers = i  # remaining mass sits exactly on chosen centers
            break
        centers[i] = values[rng.choice(len(values), p=d2 / total)]
        d2 = np.minimum(d2, (values - centers[i]) ** 2)
    centers = np.unique(centers[:n_centers])

    # Lloyd on sorted values: cluster sums come from prefix sums, ties at a
    # midpoint stay with the left cluster
    vs = np.sort(values)
    prefix = np.concatenate(([0.0], np.cumsum(vs)))
    for _ in range(100):
        mids = (centers[:-1] + centers[1:]) / 2.0
        bounds = np.concatenate(
            ([0], np.searchsorted(vs, mids, side="right"), [len(vs)])
        )
        counts = np.diff(bounds)
        keep = counts > 0
        sums = prefix[bounds[1:]] - prefix[bounds[:-1]]
        new = np.unique(sums[keep] / counts[keep])
        if len(new) == len(centers) and np.array_equal(new, centers):
            break
        centers = new
    return centers


def ref_grid_counts(edges, vals, flags, cond):
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
        condition_total=int(cond.sum()),
        condition_target=int((cond & flags).sum()),
    )


# The Fraction-based grid merge, peak finder and interval growth the integer
# cross-multiplications replaced, kept verbatim in behaviour: every ratio
# comparison builds exact Fractions, an empty grid's ratio being Fraction(0).


def ref_find_peaks(ratios) -> list[int]:
    """:func:`regionrules.find_peaks` on a list of per-grid Fraction ratios
    (:func:`regionrules.grid_ratios`): local maxima with ratio > 1, ordered
    by ratio descending then index."""
    peaks = []
    g = len(ratios)
    for i, r in enumerate(ratios):
        if r <= 1:
            continue
        if i > 0 and not r > ratios[i - 1]:
            continue
        if i < g - 1 and not r > ratios[i + 1]:
            continue
        peaks.append(i)
    peaks.sort(key=lambda i: (-ratios[i], i))
    return peaks


def range_support(hist, grown) -> int:
    """The rows in a grown interval's grid range of ``hist``."""
    return sum(hist.total_counts[grown.lo_grid : grown.hi_grid + 1])


def range_ratio(hist, grown) -> Fraction:
    """The exact ratio of a grown interval's grid range of ``hist``."""
    span = slice(grown.lo_grid, grown.hi_grid + 1)
    t, n = sum(hist.target_counts[span]), sum(hist.total_counts[span])
    return Fraction(t * hist.condition_total, n * hist.condition_target)


def _ref_share(t: int, n: int) -> Fraction:
    return Fraction(t, n) if n else Fraction(0)


def ref_merge_grids(hist):
    """:func:`regionrules.merge_grids` on Fraction shares."""
    from regionrules import GridHistogram

    edges = list(hist.edges)
    tc = list(hist.target_counts)
    nc = list(hist.total_counts)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(nc) - 1:
            if _ref_share(tc[i], nc[i]) == _ref_share(tc[i + 1], nc[i + 1]):
                tc[i] += tc[i + 1]
                nc[i] += nc[i + 1]
                del tc[i + 1], nc[i + 1], edges[i + 1]
                changed = True
            else:
                i += 1
        i = 0
        while i < len(nc):
            if nc[i] == 0 and len(nc) > 1:
                if i == 0:
                    j = i + 1
                elif i == len(nc) - 1:
                    j = i - 1
                else:
                    right_higher = _ref_share(tc[i + 1], nc[i + 1]) > _ref_share(
                        tc[i - 1], nc[i - 1]
                    )
                    j = i + 1 if right_higher else i - 1
                tc[j] += tc[i]
                nc[j] += nc[i]
                del tc[i], nc[i]
                del edges[i + 1 if j > i else i]
                changed = True
            else:
                i += 1
    return GridHistogram(
        edges=tuple(edges),
        target_counts=tuple(tc),
        total_counts=tuple(nc),
        condition_total=hist.condition_total,
        condition_target=hist.condition_target,
    )


def ref_gen_feature_interval(hist, peak: int, min_support: int):
    """:func:`regionrules.gen_feature_interval` on Fraction ratios."""
    from regionrules.errors import DomainError, NoTargetError
    from regionrules.extraction import GrownInterval

    g = hist.n_grids
    if not 0 <= peak < g:
        raise DomainError(f"peak grid {peak} out of range for {g} grids")
    tc, nc = hist.target_counts, hist.total_counts
    ct, cn = hist.condition_target, hist.condition_total
    if ct < 1:
        raise NoTargetError("no target rows satisfy the conditioning rules")
    if cn < 1:
        raise NoTargetError("no rows satisfy the conditioning rules")
    ratios = [Fraction(t * cn, n * ct) if n else Fraction(0) for t, n in zip(tc, nc)]

    lo = hi = peak
    cur_t, cur_n = tc[peak], nc[peak]

    def cur_ratio() -> Fraction:
        return Fraction(cur_t * cn, cur_n * ct) if cur_n else Fraction(0)

    while cur_n < min_support or cur_ratio() > 1:
        left = lo - 1 if lo > 0 else None
        right = hi + 1 if hi < g - 1 else None
        if left is None and right is None:
            break
        pick = None
        if cur_n < min_support:
            if left is None:
                pick = right
            elif right is None:
                pick = left
            elif ratios[left] != ratios[right]:
                pick = left if ratios[left] > ratios[right] else right
            elif nc[left] != nc[right]:
                pick = left if nc[left] > nc[right] else right
            else:
                pick = left
        else:
            r = cur_ratio()
            if left is None:
                pick = right if ratios[right] > r else None
            elif right is None:
                pick = left if ratios[left] > r else None
            elif ratios[left] > ratios[right] and ratios[left] > r:
                pick = left
            elif ratios[right] > ratios[left] and ratios[right] > r:
                pick = right
            if pick is None:
                break
        cur_t += tc[pick]
        cur_n += nc[pick]
        if pick == left:
            lo = pick
        else:
            hi = pick

    if cur_n < min_support or cur_ratio() <= 1:
        return None
    return GrownInterval(lo_grid=lo, hi_grid=hi)


def ref_screen_interval(vals, flags, cond, lo: float, hi: float) -> tuple[int, int]:
    """(rows, target rows) under ``cond`` whose value lies in [lo, hi]."""
    pm = cond & ~np.isnan(vals) & (vals >= lo) & (vals <= hi)
    return int(pm.sum()), int((pm & flags).sum())


def ref_scan_threshold(matrix: ImportanceMatrix, gamma: float = DEFAULT_COVERAGE) -> float:
    """Scan score values upward for the smallest threshold leaving one qualifying feature.

    If the qualifying-feature count drops from >= 2 straight to 0, the largest
    threshold still keeping >= 2 features is returned instead.
    """
    if matrix.n_rows == 0:
        raise EmptyMatrixError("cannot scan an empty importance matrix")
    required = _required_rows(gamma, matrix.n_rows)

    thresholds = np.unique(matrix.scores)
    thresholds = thresholds[thresholds > 0.0]
    if len(thresholds) == 0:
        raise NoFeatureError("matrix has no positive scores")

    counts = np.empty((matrix.n_features, len(thresholds)), dtype=np.int64)
    for f in range(matrix.n_features):
        col = np.sort(matrix.scores[:, f])
        counts[f] = matrix.n_rows - np.searchsorted(col, thresholds, side="left")
    qual = (counts >= required).sum(axis=0)  # non-increasing in the threshold

    ones = np.nonzero(qual == 1)[0]
    if len(ones):
        return float(thresholds[ones[0]])
    multi = np.nonzero(qual >= 2)[0]
    if len(multi):
        return float(thresholds[multi[-1]])
    raise NoFeatureError("no feature clears the frequency requirement at any threshold")


def qual_count(scores: np.ndarray, threshold: float, gamma: float) -> int:
    """Brute-force count of features meeting the coverage requirement, with
    ``gamma`` read as the decimal it prints as."""
    required = math.ceil(Fraction(str(gamma)) * scores.shape[0])
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


# ---------------------------------------------------------------------------
# The per-cell CSV readers the chunked reader replaced, kept verbatim in
# behaviour: csv.reader over the file, every row's width checked first, then
# one float() and one isfinite() per numeric cell, column by column. A header
# that repeats a name is a SchemaError in both.


def _ref_unique_header(header) -> None:
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise SchemaError(f"duplicate header names {dupes}")


def ref_load_csv(path, schema, missing_token: str = "") -> DataTable:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty (no header row)") from None
        _ref_unique_header(header)
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


def ref_load_importance_matrix(path) -> ImportanceMatrix:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("importance matrix file is empty") from None
        _ref_unique_header(header)
        rows = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(
                    f"row {i} has {len(row)} cells, expected {len(header)}", row=i
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ParseError(f"unparseable number in row {i}", row=i) from None
    scores = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    return ImportanceMatrix(scores=scores, feature_names=tuple(header))
