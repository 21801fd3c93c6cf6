"""Per-feature value grids, occupancy counts, and grid merging.

Grids are half-open ``[edges[i], edges[i+1])`` except the last one, which is
closed on the right. All occupancy counts are plain integers so downstream
ratio comparisons can be done exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateFeatureError

STRATEGIES = ("uniform", "kmeans", "quantile")
# Most grids per feature: merging is quadratic in the grid count, and the
# edges of a huge count would not fit in memory.
MAX_GRIDS = 1000


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
    feature: int
    condition_total: int
    condition_target: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
        object.__setattr__(self, "target_counts", tuple(int(t) for t in self.target_counts))
        object.__setattr__(self, "total_counts", tuple(int(t) for t in self.total_counts))
        if len(self.edges) != len(self.total_counts) + 1:
            raise ConfigError("edges must have one more entry than counts")
        if len(self.target_counts) != len(self.total_counts):
            raise ConfigError("target and total counts must align")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ConfigError("edges must be strictly ascending")
        if any(t > n for t, n in zip(self.target_counts, self.total_counts)):
            raise ConfigError("target count exceeds total count in a grid")

    @property
    def n_grids(self) -> int:
        return len(self.total_counts)


def _grid_fraction(t: int, n: int) -> Fraction:
    """Exact target share of a grid; empty grids count as zero."""
    return Fraction(t, n) if n else Fraction(0)


def make_grids(values, n_g: int, strategy: str = "uniform", seed: int = 0) -> np.ndarray:
    """Build ``n_g`` grid edges over the non-missing values of one feature.

    Returns a strictly ascending edge array spanning [min, max]; duplicate
    edges are collapsed so fewer than ``n_g`` grids may come back. ``kmeans``
    seeds from the values in the order given.
    """
    if n_g < 2:
        raise ConfigError(f"n_g must be >= 2, got {n_g}")
    if n_g > MAX_GRIDS:
        raise ConfigError(f"n_g must be <= {MAX_GRIDS}, got {n_g}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown binning strategy {strategy!r}")
    vals = np.asarray(values, dtype=np.float64)
    missing = np.isnan(vals)
    vals = vals[~missing] if missing.any() else vals
    lo, hi = (float(vals.min()), float(vals.max())) if len(vals) else (0.0, 0.0)
    if strategy == "kmeans":
        n_distinct = len(np.unique(vals))
    else:  # only the range matters: 0, 1 or at least 2 distinct values
        n_distinct = min(len(vals), 1 + (lo < hi))
    if n_distinct < 2:
        raise DegenerateFeatureError(
            f"need at least 2 distinct values to bin, got {n_distinct}"
        )

    if strategy == "uniform":
        edges = np.linspace(lo, hi, n_g + 1)
    elif strategy == "quantile":
        edges = np.quantile(vals, np.linspace(0.0, 1.0, n_g + 1))
    else:
        centers = _kmeans_1d(vals, min(n_g, n_distinct), seed)
        inner = (centers[:-1] + centers[1:]) / 2.0
        edges = np.concatenate(([lo], inner, [hi]))

    edges = np.unique(edges)
    return edges


def _kmeans_1d(values: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded 1-D k-means (k-means++ init, Lloyd to convergence or 100 iters)."""
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


def sorted_grid_counts(
    edges, s, st, feature: int, condition_total: int, condition_target: int
) -> GridHistogram:
    """:func:`grid_counts` from ``s`` and ``st``, the ascending present values
    of the condition rows and of its target rows."""
    edges = np.asarray(edges, dtype=np.float64)

    def per_grid(ascending: np.ndarray) -> np.ndarray:
        bounds = np.searchsorted(ascending, edges)
        bounds[-1] = np.searchsorted(ascending, edges[-1], side="right")
        return np.diff(bounds)

    return GridHistogram(
        edges=tuple(edges),
        target_counts=tuple(per_grid(st)),
        total_counts=tuple(per_grid(s)),
        feature=feature,
        condition_total=condition_total,
        condition_target=condition_target,
    )


def grid_counts(
    edges,
    feature_values,
    target_flags,
    condition_mask,
    feature: int = 0,
) -> GridHistogram:
    """Count condition-satisfying rows per grid, split by target membership.

    Rows missing the feature are skipped; values exactly equal to the top
    edge land in the last grid.
    """
    vals = np.asarray(feature_values, dtype=np.float64)
    target = np.asarray(target_flags, dtype=bool)
    cond = np.asarray(condition_mask, dtype=bool)
    present = cond & ~np.isnan(vals)
    s, st = np.sort(vals[present]), np.sort(vals[present & target])
    n, t = int(cond.sum()), int((cond & target).sum())
    return sorted_grid_counts(edges, s, st, feature, n, t)


def merge_grids(hist: GridHistogram) -> GridHistogram:
    """Merge equal-ratio neighbours, then fold empty grids into the better side.

    Ratio equality is decided exactly on integer counts (cross-multiplication,
    empty grids counting as ratio zero). Empty grids join the neighbour with
    the higher ratio, ties going left. The two passes repeat until nothing
    changes, which makes the operation idempotent and conserves all counts.
    """
    edges = list(hist.edges)
    tc = list(hist.target_counts)
    nc = list(hist.total_counts)

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(nc) - 1:
            if _grid_fraction(tc[i], nc[i]) == _grid_fraction(tc[i + 1], nc[i + 1]):
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
                    right_higher = _grid_fraction(tc[i + 1], nc[i + 1]) > _grid_fraction(
                        tc[i - 1], nc[i - 1]
                    )
                    j = i + 1 if right_higher else i - 1
                tc[j] += tc[i]
                nc[j] += nc[i]
                del tc[i], nc[i]
                # drop the edge shared with the absorbing neighbour
                del edges[i + 1 if j > i else i]
                changed = True
            else:
                i += 1

    return GridHistogram(
        edges=tuple(edges),
        target_counts=tuple(tc),
        total_counts=tuple(nc),
        feature=hist.feature,
        condition_total=hist.condition_total,
        condition_target=hist.condition_target,
    )
