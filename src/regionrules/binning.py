"""Per-feature value grids, occupancy counts, and grid merging.

Grids are half-open ``[edges[i], edges[i+1])`` except the last one, which is
closed on the right. All occupancy counts are plain integers so downstream
ratio comparisons can be done exactly. :func:`node_histogram` alone decides
how a search node's values are counted (binary searches over sorted values,
or comparison passes over cache-sized blocks in any order), and it hands the
search the merged histogram and an on-edge counter, never the values.
``kmeans`` seeds are the draws of ``Generator.choice``, located on block sums
and replayed in full only when rounding could move them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np

from .errors import ConfigError, DegenerateFeatureError, DomainError

STRATEGIES = ("uniform", "kmeans", "quantile")
# Most grids per feature: merging is quadratic in the grid count, and the
# edges of a huge count would not fit in memory.
MAX_GRIDS = 1000
# k-means++ seeding: values per block sum, the certainty margin per value
# (see _seed_index), and the block-sum total above which a draw replays choice
_BLOCK = 2048
_MARGIN_PER_VALUE = 64 * 2.0**-53
_HUGE = 2.0**1000
# values per block of the comparison counts: 512 KiB of float64, which stays
# in a core's L2 cache while every interior edge's pass reads it
_COUNT_BLOCK = 1 << 16
# the fixed cost of one interior edge's counting calls, in values compared
_PASS_OVERHEAD = 8192


@dataclass(frozen=True)
class GridHistogram:
    """Occupancy of one feature's grids among condition-satisfying rows.

    ``condition_total``/``condition_target`` count every row satisfying the
    previous rules (target-flagged or not); rows missing this feature are
    excluded from the per-grid counts only.
    """

    edges: tuple[float, ...]
    target_counts: tuple[int, ...]
    total_counts: tuple[int, ...]
    condition_total: int
    condition_target: int

    def __post_init__(self):
        for name, cast in (("edges", float), ("target_counts", int), ("total_counts", int)):
            object.__setattr__(self, name, tuple(map(cast, getattr(self, name))))
        for name in ("condition_total", "condition_target"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if len(self.edges) != len(self.total_counts) + 1:
            raise ConfigError("edges must have one more entry than counts")
        if len(self.target_counts) != len(self.total_counts):
            raise ConfigError("target and total counts must align")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ConfigError("edges must be strictly ascending")
        if any(not 0 <= t <= n for t, n in zip(self.target_counts, self.total_counts)):
            raise ConfigError("a grid's target count must be non-negative and within its total")

    @property
    def n_grids(self) -> int:
        return len(self.total_counts)


def share_above(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether ``a = (target, total)`` has a higher target share than ``b``, by
    cross-multiplication; an empty grid ``(0, 0)`` compares as ``0 / 1``."""
    return a[0] * (b[1] or 1) > b[0] * (a[1] or 1)


def make_grids(values, n_g: int, strategy: str = "uniform", seed: int = 0) -> np.ndarray:
    """Build ``n_g`` grid edges over the non-missing values of one feature.

    Returns a strictly ascending edge array spanning [min, max]; duplicate
    edges are collapsed so fewer than ``n_g`` grids may come back. ``kmeans``
    seeds from the values in the order given. A range too wide for finite
    edges raises DomainError.
    """
    vals = np.asarray(values, dtype=np.float64)
    return grid_edges(vals[~np.isnan(vals)], n_g, strategy, seed)


def grid_edges(vals: np.ndarray, n_g: int, strategy: str, seed: int) -> np.ndarray:
    """:func:`make_grids` over ``vals``, a feature's present values in row
    order. ``kmeans`` sorts them in place once seeding no longer needs that
    order, ``quantile`` reorders them as it selects, ``uniform`` not at all."""
    if n_g < 2:
        raise ConfigError(f"n_g must be >= 2, got {n_g}")
    if n_g > MAX_GRIDS:
        raise ConfigError(f"n_g must be <= {MAX_GRIDS}, got {n_g}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown binning strategy {strategy!r}")
    lo, hi = (float(vals.min()), float(vals.max())) if len(vals) else (0.0, 0.0)
    n_distinct = min(len(vals), 1 + (lo < hi))  # 0, 1 or at least 2
    if n_distinct < 2:
        raise DegenerateFeatureError(
            f"need at least 2 distinct values to bin, got {n_distinct}"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # a huge range is checked below
        if strategy == "kmeans":
            centers = _kmeans_1d(vals, n_g, seed)
            edges = np.array([lo, *((a + b) / 2.0 for a, b in pairwise(centers)), hi])
        elif strategy == "uniform":
            edges = np.linspace(lo, hi, n_g + 1)
        else:  # order statistics by selection in place
            edges = np.quantile(vals, np.linspace(0.0, 1.0, n_g + 1), overwrite_input=True)
    if not np.isfinite(edges).all():
        raise DomainError(f"values from {lo!r} to {hi!r} give non-finite grid edges")
    return np.unique(edges)


def _kmeans_1d(values: np.ndarray, k: int, seed: int) -> list[float]:
    """Seeded 1-D k-means: k-means++ init, Lloyd to convergence or 100 iters.

    Sorts ``values`` in place after seeding from their order. Seeding stops
    once every value sits on a center, so ``k`` may exceed the distinct count.
    Each seed is the one ``Generator.choice`` would draw, found by
    :func:`_seed_index`.
    """
    rng = np.random.default_rng(seed)
    c = values[rng.integers(len(values))]
    centers = [float(c)]
    d2 = np.square(values - c)
    buf = np.empty_like(values)
    starts = np.arange(0, len(values), _BLOCK)
    margin = _MARGIN_PER_VALUE * len(values)
    for draw in range(1, k):
        prefix = np.cumsum(np.add.reduceat(d2, starts))
        if prefix[-1] == 0.0:  # a sum of non-negative values is 0 only if all are
            break
        if not prefix[-1] < _HUGE and not np.isfinite(d2.sum()):
            raise DomainError("squared distances between values overflow in kmeans binning")
        c = values[_seed_index(d2, prefix, rng.random(), margin, buf)]
        centers.append(float(c))
        if draw < k - 1:  # the last draw's distances are never read
            np.square(np.subtract(values, c, out=buf), out=buf)
            np.minimum(d2, buf, out=d2)
    del d2, buf
    centers = sorted(set(centers))

    # Lloyd on sorted values: cluster sums come from prefix sums, ties at a
    # midpoint stay with the left cluster
    values.sort()
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    for _ in range(100):
        mids = [(a + b) / 2.0 for a, b in pairwise(centers)]
        bounds = [0, *values.searchsorted(mids, side="right").tolist(), len(values)]
        sums = prefix[bounds].tolist()
        pairs = zip(pairwise(sums), pairwise(bounds))
        new = sorted({(s1 - s0) / (b1 - b0) for (s0, s1), (b0, b1) in pairs if b1 > b0})
        if new == centers:
            break
        centers = new
    return centers


def _seed_index(
    d2: np.ndarray, prefix: np.ndarray, r: float, margin: float, buf: np.ndarray
) -> int:
    """``Generator.choice(len(d2), p=d2 / d2.sum())`` for the uniform draw ``r``.

    Choice returns the first index whose ``cdf`` (the cumulative sum of
    ``d2 / d2.sum()``, over its last entry) exceeds ``r``. Here ``prefix``
    holds the running sums of ``d2``'s blocks, and only the block that holds
    ``r`` of the whole gets a cumulative sum, ``local``. Every term is
    non-negative, so each of ``cdf`` and ``local`` lies within a relative
    ``2 n 2**-53`` plus a few roundings of the exact prefix share (Higham,
    SIAM J. Sci. Comput. 1993), and the two lie within about ``4 n 2**-53``
    of each other. Both are monotone, so an index whose ``local`` clears
    ``r`` by ``margin`` (``64 n 2**-53``), with its predecessor at least
    ``margin`` below ``r``, is choice's index. Any other draw replays choice
    in full, as does a whole of ``2**1000`` or more, where the two sums could
    overflow differently. A draw replays with a probability of about
    ``2 n margin``, which grows with ``n**2``: no draw of the mixed benchmark
    (up to 200k values per call) replays, and about 1% do at 1M values.
    """
    whole = prefix[-1]
    b = int(prefix.searchsorted(r * whole, side="right")) if whole < _HUGE else len(prefix)
    if b < len(prefix):
        base = prefix[b - 1] if b else 0.0
        local = (np.cumsum(d2[b * _BLOCK : (b + 1) * _BLOCK]) + base) / whole
        j = int(local.searchsorted(r, side="right"))
        before = local[j - 1] if j else base / whole
        if j < len(local) and local[j] > r + margin and before <= r - margin:
            return b * _BLOCK + j
    return _replayed_choice(d2, r, buf)


def _replayed_choice(d2: np.ndarray, r: float, buf: np.ndarray) -> int:
    """Choice's own draw, operation for operation, with ``buf`` as scratch."""
    np.divide(d2, d2.sum(), out=buf)
    np.cumsum(buf, out=buf)
    buf /= buf[-1]
    return int(buf.searchsorted(r, side="right"))


def node_histogram(values, rows, target_rows, has_missing, n_grids, strategy, seed):
    """The merged grid histogram of column ``values`` over a search node's
    ascending ``rows`` (``None``: every row) and its ``target_rows``, and
    ``on_edge(x)``: the ``(rows, target rows)`` of the node whose value is
    exactly ``x``. Missing values (only when ``has_missing``) are left out of
    the grids. When :func:`_sorts_to_count` holds, the values are sorted and
    both are counted by binary searches, else by :func:`_passes` in any order.
    The column is copied only for a node that reorders it (a sort, ``kmeans``
    or ``quantile``); a gathered or compressed array is the node's own."""
    s = values if rows is None else values[rows]
    st = values[target_rows]
    if has_missing:
        s, st = s[~np.isnan(s)], st[~np.isnan(st)]
    ascending = _sorts_to_count(n_grids, strategy, len(s))
    if s is values and (ascending or strategy == "quantile"):
        s = s.copy()  # reordered in place below
    edges = grid_edges(s, n_grids, strategy, seed)
    if ascending:
        if strategy != "kmeans":  # k-means edges leave ``s`` sorted
            s.sort()
        st.sort()
    count = _sorted_counts if ascending else _blocked_counts
    hist = GridHistogram(
        edges=edges.tolist(),
        target_counts=count(edges, st),
        total_counts=count(edges, s),
        condition_total=len(values) if rows is None else len(rows),
        condition_target=len(target_rows),
    )

    def on_edge(x: float) -> tuple[int, int]:
        if ascending:
            return tuple(int(a.searchsorted(x, "right") - a.searchsorted(x)) for a in (s, st))
        return tuple(_passes(np.equal, [x], a)[0] for a in (s, st))

    return merge_grids(hist), on_edge


def _sorts_to_count(n_grids: int, strategy: str, m: int) -> bool:
    """Whether a histogram over ``m`` present values sorts them: always for
    ``kmeans``, whose edges need the order, else when that is cheaper.
    Counting reads the values once per interior edge, plus ``_PASS_OVERHEAD``
    per edge for its numpy calls, and a sort costs about ``2 m log2(m)``: at
    10 grids, below 4,775 values sort (CHANGES.md has the timings)."""
    if strategy == "kmeans":
        return True
    return (n_grids - 1) * (m + _PASS_OVERHEAD) > 2 * m * math.log2(max(m, 1))


def _sorted_counts(edges: np.ndarray, a: np.ndarray) -> list[int]:
    """Per-grid counts of the ascending values ``a``: two binary searches per
    edge, after a sort that takes about log2(len(a)) passes over ``a``."""
    bounds = np.searchsorted(a, edges)
    bounds[-1] = np.searchsorted(a, edges[-1], side="right")
    return [hi - lo for lo, hi in pairwise(bounds.tolist())]


def _blocked_counts(edges: np.ndarray, a: np.ndarray) -> list[int]:
    """:func:`_sorted_counts` of ``a`` in any order, every value within
    [edges[0], edges[-1]]: grid ``i`` holds the values below ``edges[i + 1]``
    less those below ``edges[i]``, counted by ``<`` :func:`_passes`."""
    below = [0, *_passes(np.less, edges[1:-1].tolist(), a), len(a)]
    return [hi - lo for lo, hi in pairwise(below)]


def _passes(op, xs: list[float], a: np.ndarray) -> list[int]:
    """For each ``x`` of ``xs``, how many values ``v`` of ``a`` have
    ``op(v, x)`` (``np.less`` or ``np.equal``), with no copy or sort of ``a``.
    The passes run over blocks of ``_COUNT_BLOCK`` values, every ``x``'s pass
    on one block before the next, so each value is read from memory once, not
    once per ``x``; the only scratch is one block-long bool buffer."""
    buf = np.empty(min(len(a), _COUNT_BLOCK), dtype=bool)
    counts = [0] * len(xs)
    for start in range(0, len(a), _COUNT_BLOCK):
        block = a[start : start + _COUNT_BLOCK]
        out = buf[: len(block)]
        counts = [c + int(np.count_nonzero(op(block, x, out=out))) for c, x in zip(counts, xs)]
    return counts


def grid_counts(edges, feature_values, target_flags, condition_mask) -> GridHistogram:
    """Count condition-satisfying rows per grid, split by target membership.

    Rows missing the feature are skipped; values exactly equal to the top
    edge land in the last grid.
    """
    edges = np.asarray(edges, dtype=np.float64)
    vals = np.asarray(feature_values, dtype=np.float64)
    target = np.asarray(target_flags, dtype=bool)
    cond = np.asarray(condition_mask, dtype=bool)
    present = cond & ~np.isnan(vals)
    return GridHistogram(
        edges=edges.tolist(),
        target_counts=_sorted_counts(edges, np.sort(vals[present & target])),
        total_counts=_sorted_counts(edges, np.sort(vals[present])),
        condition_total=int(cond.sum()),
        condition_target=int((cond & target).sum()),
    )


def merge_grids(hist: GridHistogram) -> GridHistogram:
    """Merge equal-ratio neighbours, fold empty grids into the better side,
    then merge equal-ratio neighbours again.

    Ratios are compared exactly on integer counts by cross-multiplication
    (:func:`share_above`; empty grids count as ratio zero). Empty grids join
    the neighbour with the higher ratio, ties going left. After the first
    merge no two neighbours share a ratio, so every empty grid left has only
    neighbours with target rows, and folding it changes no grid's counts.
    After the second merge no grid is empty (unless it is the only one) and
    no neighbours share a ratio, so a further pass would change nothing: the
    operation is idempotent and conserves all counts. A histogram with
    nothing to merge comes back as is.
    """
    edges = list(hist.edges)
    tc = list(hist.target_counts)
    nc = list(hist.total_counts)

    def absorb(i: int, j: int) -> None:
        """Grid ``j`` takes grid ``i``'s counts; the edge between them goes."""
        tc[j] += tc[i]
        nc[j] += nc[i]
        del tc[i], nc[i], edges[max(i, j)]

    def merge_equal() -> None:
        i = 0
        while i < len(nc) - 1:
            if tc[i] * (nc[i + 1] or 1) == tc[i + 1] * (nc[i] or 1):
                absorb(i + 1, i)
            else:
                i += 1

    merge_equal()
    # right to left, so a fold never moves a grid still to visit
    for i in reversed(range(len(nc))):
        if nc[i] == 0 and len(nc) > 1:
            right = i == 0 or (
                i < len(nc) - 1 and share_above((tc[i + 1], nc[i + 1]), (tc[i - 1], nc[i - 1]))
            )
            absorb(i, i + 1 if right else i - 1)
    merge_equal()

    if len(nc) == hist.n_grids:  # every pass only ever removes grids
        return hist
    return replace(hist, edges=edges, target_counts=tc, total_counts=nc)
