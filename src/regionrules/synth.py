"""Synthetic multi-mode datasets and an exhaustive small-instance oracle.

The generator plants axis-aligned rectangles of high target purity on a low
background rate. The oracle enumerates every grid-aligned conjunction up to
a tractability guard and cross-checks the greedy search: it shares the
search's input checks, rule masks, counts and ranking, so only the
enumeration is its own.
Randomness comes from ``numpy.random.default_rng`` (PCG64) under a fixed
seed; tests that must survive generator changes load stored CSV fixtures
instead of regenerating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .binning import make_grids
from .errors import ConfigError, DegenerateFeatureError, EmptyResultError, SpecError
from .errors import TooLargeError
from .extraction import CategoryEquals, ExtractionConfig, Interval, Rule, RuleSet, RuleStats
from .extraction import _rank, _search_inputs, rule_mask
from .tabular import NUMERIC, DataTable, FeatureColumn, TargetIndicator


@dataclass(frozen=True)
class PlantedMode:
    """One rectangle: per-feature (lo, hi) bounds, inside purity, row weight."""

    bounds: tuple[tuple[float, float], ...]
    purity: float
    weight: float


# the most rows whose (n_rows, 3) float64 arrays numpy can index
MAX_ROWS = np.iinfo(np.intp).max // (3 * 8)


@dataclass(frozen=True)
class PlantedSpec:
    """Recipe for a planted-rectangle dataset with a Bernoulli background."""

    n_rows: int
    n_features: int
    modes: tuple[PlantedMode, ...]
    background_rate: float = 0.0
    seed: int = 0
    domain: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 1 <= self.n_rows <= MAX_ROWS:
            raise SpecError(f"n_rows must be between 1 and {MAX_ROWS}")
        if not 1 <= self.n_features <= 3:
            raise SpecError("n_features must be between 1 and 3")
        dom = self.domain or tuple((0.0, 1.0) for _ in range(self.n_features))
        if len(dom) != self.n_features:
            raise SpecError("domain must give bounds for every feature")
        for lo, hi in dom:
            if not lo < hi:
                raise SpecError(f"empty domain ({lo}, {hi})")
        object.__setattr__(self, "domain", tuple((float(a), float(b)) for a, b in dom))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not 0.0 <= self.background_rate <= 1.0:
            raise SpecError("background_rate must be in [0, 1]")
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")
        total_weight = 0.0
        for m in self.modes:
            if len(m.bounds) != self.n_features:
                raise SpecError("mode bounds must cover every feature")
            if not 0.0 <= m.purity <= 1.0:
                raise SpecError("purity must be in [0, 1]")
            if not 0.0 <= m.weight <= 1.0:
                raise SpecError("weight must be in [0, 1]")
            total_weight += m.weight
            for (lo, hi), (dlo, dhi) in zip(m.bounds, self.domain):
                if not (dlo <= lo < hi <= dhi):
                    raise SpecError("rectangle must lie inside the feature domain")
        if total_weight > 1.0 + 1e-12:
            raise SpecError("mode weights must sum to at most 1")
        for a, b in combinations(range(len(self.modes)), 2):
            if _rects_overlap(self.modes[a].bounds, self.modes[b].bounds):
                raise SpecError(f"modes {a} and {b} overlap")


def _rects_overlap(a, b) -> bool:
    return all(alo < bhi and blo < ahi for (alo, ahi), (blo, bhi) in zip(a, b))


@dataclass(frozen=True)
class PlantedSummary:
    """Realized occupancy of one planted rectangle."""

    bounds: tuple[tuple[float, float], ...]
    rows_inside: int
    target_inside: int


def gen_synthetic(
    spec: PlantedSpec,
) -> tuple[DataTable, TargetIndicator, tuple[PlantedSummary, ...]]:
    """Draw the dataset described by ``spec``; deterministic under its seed.

    Row positions are uniform within their assigned region (a mode rectangle
    or the whole domain); the target label is Bernoulli with the rectangle's
    purity for points inside a rectangle and the background rate elsewhere.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_rows, spec.n_features
    dom = np.asarray(spec.domain, dtype=np.float64)  # (d, 2)

    weights = np.array([m.weight for m in spec.modes], dtype=np.float64)
    cuts = np.cumsum(weights)
    u = rng.random(n)
    assignment = np.searchsorted(cuts, u, side="right")  # len(modes) = background

    lo = np.tile(dom[:, 0], (n, 1))
    hi = np.tile(dom[:, 1], (n, 1))
    for j, mode in enumerate(spec.modes):
        rows = assignment == j
        b = np.asarray(mode.bounds, dtype=np.float64)
        lo[rows] = b[:, 0]
        hi[rows] = b[:, 1]
    coords = lo + rng.random((n, d)) * (hi - lo)

    p_target = np.full(n, spec.background_rate, dtype=np.float64)
    inside_masks = []
    for mode in spec.modes:
        inside = np.ones(n, dtype=bool)
        for f, (blo, bhi) in enumerate(mode.bounds):
            inside &= (coords[:, f] >= blo) & (coords[:, f] <= bhi)
        inside_masks.append(inside)
        p_target[inside] = mode.purity
    flags = rng.random(n) < p_target

    columns = tuple(
        FeatureColumn(name=f"f{f}", kind=NUMERIC, values=coords[:, f]) for f in range(d)
    )
    table = DataTable(columns)
    target = TargetIndicator(flags=flags, target_label="1")
    summaries = tuple(
        PlantedSummary(
            bounds=mode.bounds,
            rows_inside=int(inside.sum()),
            target_inside=int((inside & flags).sum()),
        )
        for mode, inside in zip(spec.modes, inside_masks)
    )
    return table, target, summaries


def _options(col: FeatureColumn, f: int, n_g: int, strategy: str, seed: int) -> list[Rule]:
    """Every rule on feature ``f``: each interval between two of its grid
    edges, or each category; none for a feature too constant to bin."""
    if col.kind != NUMERIC:
        return [Rule(f, CategoryEquals(tok)) for tok in col.vocabulary]
    try:
        edges = make_grids(col.values, n_g, strategy, seed).tolist()
    except DegenerateFeatureError:
        return []  # the search skips such a feature too
    return [Rule(f, Interval(lo, hi)) for lo, hi in combinations(edges, 2)]


def brute_force_best(
    table: DataTable,
    target,
    n_g: int,
    l_max: int,
    s_min: int,
    strategy: str = "uniform",
    seed: int = 0,
) -> RuleSet:
    """The best grid-aligned conjunction with support >= s_min, exhaustively.

    Tries every feature subset of size <= l_max, with every contiguous grid
    interval of a numeric feature (grids built once per feature, over all of
    its values) and every category of a categorical one. Inputs are checked
    as :func:`~regionrules.extraction.build_rule_tree` checks them, and the
    answer is the first conjunction in the search's ranking (fitness, then
    confidence, then fewer rules, then support). Guarded to <= 3 features,
    n_g <= 8, l_max <= 2.
    """
    if l_max < 1 or s_min < 1:
        raise ConfigError(f"l_max and s_min must be >= 1, got {l_max} and {s_min}")
    n_features = len(table.columns)
    if n_features > 3 or n_g > 8 or l_max > 2:
        raise TooLargeError(
            f"guard exceeded: features={n_features} (<=3), n_g={n_g} (<=8), "
            f"l_max={l_max} (<=2)"
        )
    # the search's own checks of n_g, strategy and seed
    ExtractionConfig(
        min_support=s_min, max_rules=l_max, n_grids=n_g, strategy=strategy, seed=seed
    )
    flags, _, target_count = _search_inputs(table, target, range(n_features), s_min)
    options = [
        [(rule, rule_mask(table, rule)) for rule in _options(col, f, n_g, strategy, seed)]
        for f, col in enumerate(table.columns)
    ]

    sets = []
    for size in range(1, l_max + 1):
        for subset in combinations(options, size):
            for combo in product(*subset):
                mask = np.logical_and.reduce([m for _, m in combo])
                n = int(np.count_nonzero(mask))
                if n >= s_min:
                    tp = int(np.count_nonzero(mask & flags))
                    stats = RuleStats(n, tp, target_count)
                    sets.append(RuleSet(tuple(r for r, _ in combo), stats))
    if not sets:
        raise EmptyResultError(f"no conjunction reaches support {s_min}")
    return min(sets, key=_rank)
