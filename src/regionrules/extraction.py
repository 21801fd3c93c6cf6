"""Regional rule search: ratio estimation, interval growth, and the rule tree.

The search greedily grows value intervals around peaks of the per-grid
probability ratio (target share over overall share, conditioned on the rules
already chosen) and explores the best candidates breadth-first in a K-branch
tree. All ranking comparisons are exact: counts stay integers, ratios are
compared by integer cross-multiplication, and only a kept candidate's ratio
becomes a :class:`fractions.Fraction`. A numeric feature's values reach the
search only through :func:`~regionrules.binning.node_histogram`: its merged
histogram, and its count of the node's rows on an interval's top edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .binning import MAX_GRIDS, STRATEGIES, GridHistogram, node_histogram, share_above
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
from .tabular import CATEGORICAL, NUMERIC, DataTable, target_flags

_NO_SAMPLE = object()


def _is_missing_value(v, numeric: bool) -> bool:
    """``None``, float NaN, and for a numeric feature text such as ``"nan"``."""
    try:
        return v is None or (math.isnan(float(v)) and (numeric or isinstance(v, float)))
    except (TypeError, ValueError, OverflowError):
        return False  # not a number: rejected after the missing values


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

    NO_SUPPORT = "rule set is satisfied by no row"
    NO_TARGET = "target subgroup is empty"

    support: int
    tp: int
    target_count: int
    step_ratios: tuple[Fraction, ...] = ()

    @property
    def confidence(self) -> Fraction:
        if self.support == 0:
            raise ZeroSupportError(self.NO_SUPPORT)
        return Fraction(self.tp, self.support)

    @property
    def fitness(self) -> Fraction:
        if self.target_count == 0:
            raise NoTargetError(self.NO_TARGET)
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
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown binning strategy {self.strategy!r}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError(
                f"min_confidence must be in [0, 1], got {float(self.min_confidence)}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def rule_mask(table: DataTable, rule: Rule, rows=None) -> np.ndarray:
    """Which of ``rows`` (default: all rows) satisfy the rule; rows missing
    the feature never satisfy it."""
    col = table.column(rule.feature)
    if isinstance(rule.predicate, Interval):
        if col.kind != NUMERIC:
            raise SchemaError(f"interval rule on non-numeric column {col.name!r}")
        vals = col.values if rows is None else col.values[rows]
        return (vals >= rule.predicate.lo) & (vals <= rule.predicate.hi)  # NaN fails both
    if col.kind != CATEGORICAL:
        raise SchemaError(f"category rule on non-categorical column {col.name!r}")
    return col.equals_mask(rule.predicate.token, rows)


def rule_set_mask(table: DataTable, rules: Iterable[Rule]) -> np.ndarray:
    mask = np.ones(table.n_rows, dtype=bool)
    for r in rules:
        mask &= rule_mask(table, r)
    return mask


# ---------------------------------------------------------------------------
# Ratios, peaks, interval growth


def _check_condition(condition_total: int, condition_target: int) -> None:
    """Ratios are defined only when the condition holds target rows."""
    if condition_target < 1:
        raise NoTargetError("no target rows satisfy the conditioning rules")
    if condition_total < 1:
        raise NoTargetError("no rows satisfy the conditioning rules")


def count_ratios(
    target_counts: Sequence[int],
    total_counts: Sequence[int],
    condition_total: int,
    condition_target: int,
) -> list[Fraction]:
    """Per-bin probability ratio (target share over overall share), exactly,
    for reports: the search compares counts instead (:func:`find_peaks`).

    Empty bins get ratio 0 by convention.
    """
    _check_condition(condition_total, condition_target)
    return [
        Fraction(t * condition_total, n * condition_target) if n else Fraction(0)
        for t, n in zip(target_counts, total_counts)
    ]


def grid_ratios(hist: GridHistogram) -> list[Fraction]:
    """Per-grid :func:`count_ratios` of a histogram."""
    return count_ratios(
        hist.target_counts, hist.total_counts, hist.condition_total, hist.condition_target
    )


def find_peaks(hist: GridHistogram) -> list[int]:
    """Grids with ratio > 1 (``t condition_total > n condition_target``) and
    a higher ratio than each neighbour (:func:`share_above`), ordered by ratio
    descending then index. Only the peaks' shares become Fractions."""
    cn, ct = hist.condition_total, hist.condition_target
    _check_condition(cn, ct)
    grids = list(zip(hist.target_counts, hist.total_counts))
    peaks = [
        i for i, (t, n) in enumerate(grids)
        if t * cn > n * ct
        and (i == 0 or share_above(grids[i], grids[i - 1]))
        and (i == len(grids) - 1 or share_above(grids[i], grids[i + 1]))
    ]
    return sorted(peaks, key=lambda i: (-Fraction(*grids[i]), i))


@dataclass(frozen=True)
class GrownInterval:
    """A contiguous grid range."""

    lo_grid: int
    hi_grid: int


def gen_feature_interval(
    hist: GridHistogram, peak: int, min_support: int
) -> GrownInterval | None:
    """Grow an interval from a peak grid by annexing neighbour grids.

    While the interval's support is below ``min_support`` the neighbour with
    the larger ratio is annexed (ties: larger support, then left). Once the
    support is sufficient, a neighbour is annexed only when its ratio exceeds
    both the other neighbour's and the interval's current ratio. Returns
    ``None`` when the final interval still lacks support or its ratio is not
    above 1. Ratios are compared as target shares (:func:`share_above`; the
    positive factor ``condition_total / condition_target`` cancels), and a
    ratio above 1 is ``t condition_total > n condition_target``.
    """
    g = hist.n_grids
    if not 0 <= peak < g:
        raise DomainError(f"peak grid {peak} out of range for {g} grids")
    tc, nc = hist.target_counts, hist.total_counts
    ct, cn = hist.condition_target, hist.condition_total
    _check_condition(cn, ct)
    grids = list(zip(tc, nc))

    lo = hi = peak
    cur_t, cur_n = tc[peak], nc[peak]
    while cur_n < min_support or cur_t * cn > cur_n * ct:
        left = lo - 1 if lo > 0 else None
        right = hi + 1 if hi < g - 1 else None
        if left is None and right is None:
            break
        tie = False
        if left is None or right is None:
            pick = right if left is None else left
        elif share_above(grids[left], grids[right]):
            pick = left
        elif share_above(grids[right], grids[left]):
            pick = right
        else:
            pick, tie = (right if nc[right] > nc[left] else left), True
        if cur_n >= min_support and (tie or not share_above(grids[pick], (cur_t, cur_n))):
            break
        cur_t += tc[pick]
        cur_n += nc[pick]
        if pick == left:
            lo = pick
        else:
            hi = pick

    if cur_n < min_support or cur_t * cn <= cur_n * ct:
        return None
    return GrownInterval(lo_grid=lo, hi_grid=hi)


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


def _kept(rule: Rule, tp: int, n: int, cn: int, ct: int, min_support: int) -> Candidate | None:
    """``rule``, with ``n`` rows and ``tp`` target rows, as a candidate if it
    clears the support floor with ratio ``tp cn / (n ct)`` above 1, else None."""
    if n < min_support or tp * cn <= n * ct:  # ratio <= 1, or no row at all
        return None
    return Candidate(rule, Fraction(tp * cn, n * ct), n, tp)


def _screen_interval(
    feature: int,
    hist: GridHistogram,
    grown: GrownInterval,
    min_support: int,
    on_edge: Callable[[float], tuple[int, int]],
) -> Candidate | None:
    """Re-evaluate a grown grid range of ``hist`` as a closed interval; screen it.

    The emitted rule is the inclusive interval [edges[lo], edges[hi+1]], so
    its counts are the range's grids plus, when the top edge is interior, the
    rows sitting exactly on it (the last grid is closed already); the
    candidate is kept only if it still clears the support floor with a ratio
    above 1 (:func:`_kept`). This keeps cached statistics identical to any
    later re-evaluation of the emitted rule. ``on_edge`` is the node's counter
    from :func:`~regionrules.binning.node_histogram`.
    """
    top = grown.hi_grid + 1
    lo, hi = float(hist.edges[grown.lo_grid]), float(hist.edges[top])
    n = sum(hist.total_counts[grown.lo_grid : top])
    tp = sum(hist.target_counts[grown.lo_grid : top])
    if top < hist.n_grids:  # the histogram put these rows in the next grid
        edge_n, edge_tp = on_edge(hi)
        n, tp = n + edge_n, tp + edge_tp
    rule = Rule(feature=feature, predicate=Interval(lo, hi))
    return _kept(rule, tp, n, hist.condition_total, hist.condition_target, min_support)


def _numeric_candidates(
    table: DataTable,
    target_rows: np.ndarray,
    feature: int,
    rows: np.ndarray,
    config: ExtractionConfig,
    sample_value=_NO_SAMPLE,
) -> tuple[list[Candidate | None], tuple]:
    col = table.column(feature)
    merged, on_edge = node_histogram(
        col.values, rows, target_rows, col.has_missing,
        config.n_grids, config.strategy, config.seed,
    )
    grown: dict[tuple[int, int], GrownInterval] = {}
    for p in find_peaks(merged):
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

    out = [
        _screen_interval(feature, merged, res, config.min_support, on_edge)
        for res in grown.values()
    ]
    return out, (merged.edges, merged.target_counts, merged.total_counts)


def _categorical_candidates(
    table: DataTable,
    target_rows: np.ndarray,
    feature: int,
    rows: np.ndarray,
    config: ExtractionConfig,
    sample_value=_NO_SAMPLE,
) -> tuple[list[Candidate | None], tuple]:
    col = table.column(feature)
    tc, nc = col.category_counts(target_rows), col.category_counts(rows)
    n, ct = table.n_rows if rows is None else len(rows), len(target_rows)
    _check_condition(n, ct)
    codes = range(len(nc))
    if sample_value is not _NO_SAMPLE:
        k = col.code_of(sample_value)
        codes = [k] if k >= 0 else []

    vocab = col.vocabulary
    return [
        _kept(Rule(feature, CategoryEquals(vocab[k])), tc[k], nc[k], n, ct, config.min_support)
        for k in codes
    ], (vocab, tc, nc)


def get_candidate_rules(
    table: DataTable,
    target,
    feature: int,
    condition,
    config: ExtractionConfig,
    sample_value=_NO_SAMPLE,
    *,
    target_rows: np.ndarray | None = None,
    histograms: dict | None = None,
) -> list[Candidate]:
    """Up to ``max_branches`` screened rules for one feature, best ratio first.

    Numeric features go through binning, merging, peak detection, and
    interval growth; every category of a categorical feature is its own
    candidate. Candidates must clear the support floor with ratio > 1.
    When ``sample_value`` is given, numeric growth starts from (or keeps
    intervals covering) the sample's grid and categorical candidates are
    restricted to the sample's category. ``condition`` holds the rows
    satisfying the rules so far: ``None`` for every row, a boolean row mask,
    or strictly ascending row indices. ``target_rows`` are the target rows
    among them; when they are not given, they are selected here and index
    conditions are checked to ascend. ``histograms``, when given, receives
    under the feature's column index its histogram over the condition's rows:
    ``(edges or vocabulary, target_counts, total_counts)``.
    """
    n = table.n_rows
    flags = target_flags(target, n)
    rows = None if condition is None else np.asarray(condition)
    if rows is not None and (rows.ndim != 1 or (len(rows) and rows.dtype.kind not in "biu")):
        raise ConfigError("condition must be a boolean mask or integer row indices")
    if rows is not None and rows.dtype == bool:
        if len(rows) != n:
            raise SchemaError("condition mask length does not match the table")
        rows = np.flatnonzero(rows)
    elif rows is not None:
        rows = rows.astype(np.intp, copy=False)
        if target_rows is None and (np.diff(rows) <= 0).any():
            raise ConfigError("condition row indices must be strictly ascending")
        if len(rows) and (rows[0] < 0 or rows[-1] >= n):
            raise ConfigError(f"condition row index out of range for {n} rows")
    if (n if rows is None else len(rows)) == 0:
        raise ConfigError("condition mask selects no rows")
    if target_rows is None:
        target_rows = np.flatnonzero(flags) if rows is None else rows[flags[rows]]
    col = table.column(feature)
    feature_idx = table.column_index(col.name)
    build = _numeric_candidates if col.kind == NUMERIC else _categorical_candidates
    out, hist = build(table, target_rows, feature_idx, rows, config, sample_value)
    if histograms is not None:
        histograms[feature_idx] = hist
    out = sorted((c for c in out if c is not None), key=Candidate._order_key)  # None: screened out
    return out[: config.max_branches]


# ---------------------------------------------------------------------------
# Rule-tree search


@dataclass(eq=False)
class RuleTreeNode:
    """One step of the search: the rule taken and the exact counts of its path.

    An expanded node keeps, per searched feature, the counts of the histogram
    that :func:`get_candidate_rules` built over its rows, or the message of
    the feature's :class:`DegenerateFeatureError`. The histogram's ratios are
    :func:`count_ratios` of those counts, ``support`` and ``tp``.
    """

    rule: Rule | None
    support: int
    tp: int
    ratio: Fraction | None
    depth: int
    children: list["RuleTreeNode"] = field(default_factory=list)
    histograms: dict[int, tuple | str] = field(default_factory=dict)


def _add_rules(
    table: DataTable,
    flags: np.ndarray,
    node: RuleTreeNode,
    rows: np.ndarray | None,
    remaining: frozenset[int],
    config: ExtractionConfig,
    samples: Mapping[int, object] | None,
) -> None:
    """Expand ``node``. ``rows`` are its parent's (``None``: every row); the
    node narrows them by its rule only once it is known to be expanded."""
    if not remaining or node.depth >= config.max_rules:
        return
    if node.rule is not None:
        mask = rule_mask(table, node.rule, rows)
        rows = np.flatnonzero(mask) if rows is None else rows[mask]
    hit = np.flatnonzero(flags) if rows is None else rows[flags[rows]]  # for every feature
    pool: list[Candidate] = []
    for f in sorted(remaining):
        sample = samples[f] if samples is not None else _NO_SAMPLE
        try:
            cands = get_candidate_rules(
                table, flags, f, rows, config, sample, target_rows=hit, histograms=node.histograms
            )
        except DegenerateFeatureError as exc:
            node.histograms[f] = str(exc)  # constant within this branch: nothing to split on
            continue
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
        _add_rules(table, flags, child, rows, remaining - {cand.rule.feature}, config, samples)


def _collect_rule_sets(root: RuleTreeNode) -> list[RuleSet]:
    target_count = root.tp  # the root covers every target row
    out: list[RuleSet] = []

    def walk(node: RuleTreeNode, rules: tuple[Rule, ...], ratios: tuple[Fraction, ...]):
        for child in node.children:
            crules = rules + (child.rule,)
            cratios = ratios + (child.ratio,)
            stats = RuleStats(child.support, child.tp, target_count, cratios)
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


def _rank(rs: RuleSet):
    """Best first: fitness, then confidence, then fewer rules, then support."""
    s = rs.stats
    return (-s.fitness, -s.confidence, len(rs.rules), -s.support, rs.canonical_key())


def _ranked(root: RuleTreeNode) -> list[RuleSet]:
    """The distinct rule sets of a searched tree in :func:`_rank` order."""
    return sorted(_dedupe(_collect_rule_sets(root)), key=_rank)


def _search_inputs(table: DataTable, target, feature_set: Iterable[int], min_support: int):
    """A search's (target flags, feature set, target row count), input-checked."""
    flags = target_flags(target, table.n_rows)
    features = frozenset(int(f) for f in feature_set)
    if not features:
        raise ConfigError("feature set must not be empty")
    for f in features:
        table.column(f)  # raises SchemaError on unknown features
    if min_support > table.n_rows:
        raise InfeasibleConfigError(
            f"min_support {min_support} exceeds table rows {table.n_rows}"
        )
    target_count = int(flags.sum())
    if target_count == 0:
        raise NoTargetError(RuleStats.NO_TARGET)
    return flags, features, target_count


def build_rule_tree(
    table: DataTable,
    target,
    feature_set: Iterable[int],
    config: ExtractionConfig,
    samples: Mapping[int, object] | None = None,
) -> RuleTreeNode:
    """Run the K-branch search and return the root of the explored tree."""
    flags, features, target_count = _search_inputs(
        table, target, feature_set, config.min_support
    )
    if samples is not None:
        missing = [
            f for f in features
            if f not in samples or _is_missing_value(samples[f], table.column(f).kind == NUMERIC)
        ]
        if missing:
            names = [table.column(f).name for f in sorted(missing)]
            raise ConfigError(f"sample lacks values for features {names}")
        for f in features:
            if table.column(f).kind == NUMERIC:
                try:
                    float(samples[f])
                except (TypeError, ValueError, OverflowError):
                    raise DomainError(
                        f"sample value {samples[f]!r} for numeric feature "
                        f"{table.column(f).name!r} is not a number"
                    ) from None

    root = RuleTreeNode(
        rule=None,
        support=table.n_rows,
        tp=target_count,
        ratio=None,
        depth=0,
    )
    _add_rules(table, flags, root, None, features, config, samples)
    return root


def extract_rule_sets(
    table: DataTable,
    target,
    feature_set: Iterable[int],
    config: ExtractionConfig,
) -> list[RuleSet]:
    """All candidate rule sets found by the tree search, best first.

    Sets are ranked by fitness, then confidence, then fewer rules, then
    support. Every emitted set satisfies the support floor and the
    rule-count cap; equivalent conjunctions reached along different branches
    are reported once.
    """
    return _ranked(build_rule_tree(table, target, feature_set, config))


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
    sets = _ranked(build_rule_tree(table, target, feature_set, config, samples=samples))
    return select_best(sets, config.min_confidence) if sets else None


def select_best(rule_sets: Sequence[RuleSet], min_confidence: float) -> RuleSet:
    """The first set in :func:`extract_rule_sets` order whose confidence is
    at least ``min_confidence``, read as the decimal it prints as (0.8 is
    4/5); the first set overall when none is."""
    if not rule_sets:
        raise EmptyResultError("no rule sets to select from")
    floor = Fraction(str(min_confidence))
    qualifying = [rs for rs in rule_sets if rs.stats.confidence >= floor]
    return min(qualifying or rule_sets, key=_rank)
