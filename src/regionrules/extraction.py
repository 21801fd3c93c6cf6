"""Regional rule search: ratio estimation, interval growth, and the rule tree.

The search greedily grows value intervals around peaks of the per-grid
probability ratio (target share over overall share, conditioned on the rules
already chosen) and explores the best candidates breadth-first in a K-branch
tree. All ranking comparisons are exact: counts stay integers and ratios are
:class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .binning import MAX_GRIDS, GridHistogram, make_grids, merge_grids, sorted_grid_counts
from .binning import grid_counts  # noqa: F401  (unused here; perfbench patches this name)
from .errors import (
    ConfigError,
    DegenerateFeatureError,
    DomainError,
    EmptyResultError,
    InfeasibleConfigError,
    NoTargetError,
    SchemaError,
    ZeroSupportError,
)
from .tabular import CATEGORICAL, NUMERIC, DataTable, FeatureColumn, target_flags

_NO_SAMPLE = object()


def _is_missing_value(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


# ---------------------------------------------------------------------------
# Rules and their statistics


@dataclass(frozen=True)
class Interval:
    """Closed numeric interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError(f"interval lo {self.lo} exceeds hi {self.hi}")


@dataclass(frozen=True)
class CategoryEquals:
    token: str


@dataclass(frozen=True)
class Rule:
    """One predicate on one feature (by column index)."""

    feature: int
    predicate: Interval | CategoryEquals

    def sort_key(self):
        if isinstance(self.predicate, Interval):
            return (self.feature, 0, self.predicate.lo, self.predicate.hi)
        return (self.feature, 1, str(self.predicate.token))


@dataclass(frozen=True)
class RuleStats:
    """Exact counts behind a rule set's support/confidence/fitness."""

    support: int
    tp: int
    target_count: int
    table_rows: int
    step_ratios: tuple[Fraction, ...] = ()

    @property
    def confidence(self) -> Fraction:
        if self.support == 0:
            raise ZeroSupportError("confidence undefined at zero support")
        return Fraction(self.tp, self.support)

    @property
    def fitness(self) -> Fraction:
        if self.target_count == 0:
            raise NoTargetError("fitness undefined with an empty target subgroup")
        return Fraction(2 * self.tp - self.support, self.target_count)


@dataclass(frozen=True)
class RuleSet:
    """Conjunction of per-feature rules, kept in extraction order."""

    rules: tuple[Rule, ...]
    stats: RuleStats

    def canonical_key(self):
        return tuple(sorted(r.sort_key() for r in self.rules))


@dataclass(frozen=True)
class ExtractionConfig:
    """Search knobs: support floor, rule-count cap, binning, and branching."""

    min_support: int
    max_rules: int
    n_grids: int = 7
    max_branches: int = 3
    strategy: str = "uniform"
    min_confidence: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.min_support < 1:
            raise ConfigError(f"min_support must be >= 1, got {self.min_support}")
        if self.max_rules < 1:
            raise ConfigError(f"max_rules must be >= 1, got {self.max_rules}")
        if self.n_grids < 2:
            raise ConfigError(f"n_grids must be >= 2, got {self.n_grids}")
        if self.n_grids > MAX_GRIDS:
            raise ConfigError(f"n_grids must be <= {MAX_GRIDS}, got {self.n_grids}")
        if self.max_branches < 1:
            raise ConfigError(f"max_branches must be >= 1, got {self.max_branches}")
        if self.strategy not in ("uniform", "kmeans", "quantile"):
            raise ConfigError(f"unknown binning strategy {self.strategy!r}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )


def rule_mask(table: DataTable, rule: Rule) -> np.ndarray:
    """Rows satisfying the rule; rows missing the feature never satisfy it."""
    col = table.column(rule.feature)
    if isinstance(rule.predicate, Interval):
        if col.kind != NUMERIC:
            raise SchemaError(f"interval rule on non-numeric column {col.name!r}")
        vals = col.values
        return ~np.isnan(vals) & (vals >= rule.predicate.lo) & (vals <= rule.predicate.hi)
    if col.kind != CATEGORICAL:
        raise SchemaError(f"category rule on non-categorical column {col.name!r}")
    return col.equals_mask(rule.predicate.token)


def rule_set_mask(table: DataTable, rules: Iterable[Rule]) -> np.ndarray:
    mask = np.ones(table.n_rows, dtype=bool)
    for r in rules:
        mask &= rule_mask(table, r)
    return mask


# ---------------------------------------------------------------------------
# Histograms, ratios, peaks, interval growth


def numeric_histogram(
    col: FeatureColumn,
    flags: np.ndarray,
    rows: np.ndarray,
    config: ExtractionConfig,
    feature: int,
) -> tuple[GridHistogram, np.ndarray, np.ndarray]:
    """Merged grid histogram of a numeric feature over the ascending ``rows``,
    with the ascending present values of those rows and of their target rows."""
    vals = col.values[rows]
    hit = flags[rows]
    present = ~np.isnan(vals)
    s, st = vals[present], vals[present & hit]
    # kmeans seeds from the row order, so the values are sorted only afterwards
    edges = make_grids(s, config.n_grids, config.strategy, config.seed)
    s.sort()
    st.sort()
    hist = sorted_grid_counts(edges, s, st, feature, len(rows), int(hit.sum()))
    return merge_grids(hist), s, st


def count_ratios(
    target_counts: Sequence[int],
    total_counts: Sequence[int],
    condition_total: int,
    condition_target: int,
) -> list[Fraction]:
    """Per-bin probability ratio (target share over overall share), exactly.

    Empty bins get ratio 0 by convention.
    """
    if condition_target < 1:
        raise NoTargetError("no target rows satisfy the conditioning rules")
    if condition_total < 1:
        raise NoTargetError("no rows satisfy the conditioning rules")
    return [
        Fraction(t * condition_total, n * condition_target) if n else Fraction(0)
        for t, n in zip(target_counts, total_counts)
    ]


def grid_ratios(hist: GridHistogram) -> list[Fraction]:
    """Per-grid :func:`count_ratios` of a histogram."""
    return count_ratios(
        hist.target_counts, hist.total_counts, hist.condition_total, hist.condition_target
    )


def find_peaks(ratios: Sequence[Fraction]) -> list[int]:
    """Local maxima with ratio > 1, ordered by ratio descending then index."""
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


@dataclass(frozen=True)
class GrownInterval:
    """A contiguous grid range with its combined exact ratio and support."""

    lo_grid: int
    hi_grid: int
    ratio: Fraction
    support: int


def gen_feature_interval(
    hist: GridHistogram, peak: int, min_support: int
) -> GrownInterval | None:
    """Grow an interval from a peak grid by annexing neighbour grids.

    While the interval's support is below ``min_support`` the neighbour with
    the larger ratio is annexed (ties: larger support, then left). Once the
    support is sufficient, a neighbour is annexed only when its ratio exceeds
    both the other neighbour's and the interval's current ratio. Returns
    ``None`` when the final interval still lacks support or its ratio is not
    above 1.
    """
    g = hist.n_grids
    if not 0 <= peak < g:
        raise DomainError(f"peak grid {peak} out of range for {g} grids")
    tc, nc = hist.target_counts, hist.total_counts
    ct, cn = hist.condition_target, hist.condition_total
    ratios = count_ratios(tc, nc, cn, ct)

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
    return GrownInterval(lo_grid=lo, hi_grid=hi, ratio=cur_ratio(), support=cur_n)


# ---------------------------------------------------------------------------
# Candidate rules


@dataclass(frozen=True)
class Candidate:
    """A screened rule with its exact conditioned statistics."""

    rule: Rule
    ratio: Fraction
    support: int
    tp: int

    def _order_key(self):
        if isinstance(self.rule.predicate, Interval):
            start = (0, self.rule.predicate.lo)
        else:
            start = (1, str(self.rule.predicate.token))
        return (-self.ratio, -self.support, self.rule.feature, start)


def _screen_interval(
    feature: int,
    s: np.ndarray,
    st: np.ndarray,
    hist: GridHistogram,
    grown: GrownInterval,
    min_support: int,
) -> Candidate | None:
    """Re-evaluate a grown grid range of ``hist`` as a closed interval; screen it.

    The emitted rule is the inclusive interval [edges[lo], edges[hi+1]], so
    counts are recomputed from that predicate (they can pick up rows sitting
    exactly on the top edge); the candidate is kept only if it still clears
    the support floor with a ratio above 1. This keeps cached statistics
    identical to any later re-evaluation of the emitted rule. ``s``/``st`` are
    as returned by :func:`numeric_histogram`.
    """
    lo = float(hist.edges[grown.lo_grid])
    hi = float(hist.edges[grown.hi_grid + 1])
    n, tp = (
        int(np.searchsorted(a, hi, side="right") - np.searchsorted(a, lo)) for a in (s, st)
    )
    if n < min_support or n == 0:
        return None
    ratio = Fraction(tp * hist.condition_total, n * hist.condition_target)
    if ratio <= 1:
        return None
    return Candidate(
        rule=Rule(feature=feature, predicate=Interval(lo, hi)),
        ratio=ratio,
        support=n,
        tp=tp,
    )


def _numeric_candidates(
    table: DataTable,
    flags: np.ndarray,
    feature: int,
    rows: np.ndarray,
    config: ExtractionConfig,
    sample_value=_NO_SAMPLE,
) -> list[Candidate]:
    col = table.column(feature)
    merged, s, st = numeric_histogram(col, flags, rows, config, feature)
    ratios = grid_ratios(merged)

    grown: dict[tuple[int, int], GrownInterval] = {}
    for p in find_peaks(ratios):
        res = gen_feature_interval(merged, p, config.min_support)
        if res is not None:
            grown.setdefault((res.lo_grid, res.hi_grid), res)

    if sample_value is not _NO_SAMPLE:
        # force the interval to cover the sample's grid (clamped to the range)
        g = merged.n_grids
        s_grid = int(np.searchsorted(merged.edges, float(sample_value), side="right")) - 1
        s_grid = min(max(s_grid, 0), g - 1)
        covering = {
            k: v for k, v in grown.items() if v.lo_grid <= s_grid <= v.hi_grid
        }
        if covering:
            grown = covering
        else:
            res = gen_feature_interval(merged, s_grid, config.min_support)
            grown = (
                {(res.lo_grid, res.hi_grid): res} if res is not None else {}
            )

    out = []
    for res in grown.values():
        cand = _screen_interval(feature, s, st, merged, res, config.min_support)
        if cand is not None:
            out.append(cand)
    return out


def _categorical_candidates(
    table: DataTable,
    flags: np.ndarray,
    feature: int,
    rows: np.ndarray,
    config: ExtractionConfig,
    sample_value=_NO_SAMPLE,
) -> list[Candidate]:
    col = table.column(feature)
    hit = rows[flags[rows]]
    tc, nc = col.category_counts(hit), col.category_counts(rows)
    ratios = count_ratios(tc, nc, len(rows), len(hit))
    codes = range(len(nc))
    if sample_value is not _NO_SAMPLE:
        k = col.code_of(sample_value)
        codes = [k] if k >= 0 else []

    vocab = col.vocabulary
    return [
        Candidate(
            rule=Rule(feature=feature, predicate=CategoryEquals(vocab[k])),
            ratio=ratios[k],
            support=nc[k],
            tp=tc[k],
        )
        for k in codes
        if nc[k] >= config.min_support and ratios[k] > 1
    ]


def get_candidate_rules(
    table: DataTable,
    target,
    feature: int,
    condition,
    config: ExtractionConfig,
    sample_value=_NO_SAMPLE,
) -> list[Candidate]:
    """Up to ``max_branches`` screened rules for one feature, best ratio first.

    Numeric features go through binning, merging, peak detection, and
    interval growth; every category of a categorical feature is its own
    candidate. Candidates must clear the support floor with ratio > 1.
    When ``sample_value`` is given, numeric growth starts from (or keeps
    intervals covering) the sample's grid and categorical candidates are
    restricted to the sample's category. ``condition`` is a boolean row mask
    or the ascending indices of the rows satisfying the rules so far.
    """
    flags = target_flags(target)
    rows = np.asarray(condition)
    rows = np.flatnonzero(rows) if rows.dtype == bool else rows.astype(np.intp, copy=False)
    if not len(rows):
        raise ConfigError("condition mask selects no rows")
    col = table.column(feature)
    feature_idx = table.column_index(col.name)
    build = _numeric_candidates if col.kind == NUMERIC else _categorical_candidates
    out = build(table, flags, feature_idx, rows, config, sample_value)
    out.sort(key=Candidate._order_key)
    return out[: config.max_branches]


# ---------------------------------------------------------------------------
# Rule-tree search


@dataclass(eq=False)
class RuleTreeNode:
    """One step of the search: the rule taken and the exact counts of its path."""

    rule: Rule | None
    support: int
    tp: int
    ratio: Fraction | None
    depth: int
    children: list["RuleTreeNode"] = field(default_factory=list)


def _add_rules(
    table: DataTable,
    flags: np.ndarray,
    node: RuleTreeNode,
    rows: np.ndarray,
    remaining: frozenset[int],
    config: ExtractionConfig,
    samples: Mapping[int, object] | None,
) -> None:
    if not remaining or node.depth >= config.max_rules:
        return
    pool: list[Candidate] = []
    for f in sorted(remaining):
        sample_value = samples[f] if samples is not None else _NO_SAMPLE
        try:
            cands = get_candidate_rules(table, flags, f, rows, config, sample_value)
        except DegenerateFeatureError:
            continue  # constant within this branch: nothing to split on
        pool.extend(cands)
    pool.sort(key=Candidate._order_key)
    for cand in pool[: config.max_branches]:
        child = RuleTreeNode(
            rule=cand.rule,
            support=cand.support,
            tp=cand.tp,
            ratio=cand.ratio,
            depth=node.depth + 1,
        )
        node.children.append(child)
        # the child's rows live only while its subtree is searched
        _add_rules(
            table,
            flags,
            child,
            rows[rule_mask(table, cand.rule)[rows]],
            remaining - {cand.rule.feature},
            config,
            samples,
        )


def _collect_rule_sets(root: RuleTreeNode) -> list[RuleSet]:
    # the root covers every row and every target row
    target_count, table_rows = root.tp, root.support
    out: list[RuleSet] = []

    def walk(node: RuleTreeNode, rules: tuple[Rule, ...], ratios: tuple[Fraction, ...]):
        for child in node.children:
            crules = rules + (child.rule,)
            cratios = ratios + (child.ratio,)
            stats = RuleStats(child.support, child.tp, target_count, table_rows, cratios)
            out.append(RuleSet(rules=crules, stats=stats))
            walk(child, crules, cratios)

    walk(root, (), ())
    return out


def _dedupe(rule_sets: list[RuleSet]) -> list[RuleSet]:
    # identical conjunctions reached along different paths carry identical
    # stats (same row mask), so keeping the first is enough
    seen: dict = {}
    for rs in rule_sets:
        seen.setdefault(rs.canonical_key(), rs)
    return list(seen.values())


def _final_order(rs: RuleSet):
    return (-rs.stats.fitness, -rs.stats.confidence, -rs.stats.support, rs.canonical_key())


def build_rule_tree(
    table: DataTable,
    target,
    feature_set: Iterable[int],
    config: ExtractionConfig,
    samples: Mapping[int, object] | None = None,
) -> RuleTreeNode:
    """Run the K-branch search and return the root of the explored tree."""
    flags = target_flags(target)
    if len(flags) != table.n_rows:
        raise SchemaError("target indicator length does not match the table")
    features = frozenset(int(f) for f in feature_set)
    if not features:
        raise ConfigError("feature set must not be empty")
    for f in features:
        table.column(f)  # raises SchemaError on unknown features
    if config.min_support > table.n_rows:
        raise InfeasibleConfigError(
            f"min_support {config.min_support} exceeds table rows {table.n_rows}"
        )
    target_count = int(flags.sum())
    if target_count == 0:
        raise NoTargetError("target subgroup is empty")
    if samples is not None:
        missing = [f for f in features if f not in samples or _is_missing_value(samples[f])]
        if missing:
            raise ConfigError(f"sample lacks values for features {sorted(missing)}")
        for f in features:
            if table.column(f).kind == NUMERIC:
                try:
                    float(samples[f])
                except (TypeError, ValueError):
                    raise DomainError(
                        f"sample value {samples[f]!r} for numeric feature {f} "
                        "is not a number"
                    ) from None

    root = RuleTreeNode(
        rule=None,
        support=table.n_rows,
        tp=target_count,
        ratio=None,
        depth=0,
    )
    _add_rules(table, flags, root, np.arange(table.n_rows), features, config, samples)
    return root


def extract_rule_sets(
    table: DataTable,
    target,
    feature_set: Iterable[int],
    config: ExtractionConfig,
) -> list[RuleSet]:
    """All candidate rule sets found by the tree search, best fitness first.

    Every emitted set satisfies the support floor and the rule-count cap;
    equivalent conjunctions reached along different branches are reported
    once.
    """
    root = build_rule_tree(table, target, feature_set, config)
    sets = _dedupe(_collect_rule_sets(root))
    sets.sort(key=_final_order)
    return sets


def extract_local(
    table: DataTable,
    target,
    feature_set: Iterable[int],
    sample: Mapping[int, object],
    config: ExtractionConfig,
) -> RuleSet | None:
    """Best rule set whose intervals cover the given sample's feature values.

    Numeric interval growth starts from (or keeps intervals covering) the
    grid holding the sample's value, clamped to the boundary grid if the
    value sits outside the observed range; categorical rules must equal the
    sample's category. Returns ``None`` when no valid rules exist.
    """
    samples = {int(k): v for k, v in sample.items()}
    root = build_rule_tree(table, target, feature_set, config, samples=samples)
    sets = _dedupe(_collect_rule_sets(root))
    if not sets:
        return None
    return select_best(sets, config.min_confidence)


def select_best(rule_sets: Sequence[RuleSet], min_confidence: float) -> RuleSet:
    """Max-fitness rule set among those clearing the confidence floor.

    Falls back to the overall max-fitness set when none qualifies. Ties are
    broken by higher confidence, fewer rules, then larger support.
    """
    if not rule_sets:
        raise EmptyResultError("no rule sets to select from")
    qualifying = [rs for rs in rule_sets if rs.stats.confidence >= min_confidence]
    pool = qualifying if qualifying else list(rule_sets)
    return min(
        pool,
        key=lambda rs: (
            -rs.stats.fitness,
            -rs.stats.confidence,
            len(rs.rules),
            -rs.stats.support,
            rs.canonical_key(),
        ),
    )
