"""Rule-set quality metrics and the evaluation report.

All three criteria are evaluated against the target indicator the caller
supplies, which for model explanation is the model's *predicted* membership
in the class of interest, not the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoTargetError
from .extraction import CategoryEquals, Rule, RuleSet, RuleStats, rule_set_mask
from .serialize import rule_to_dict
from .tabular import NUMERIC, DataTable, target_flags


def _rules_of(rule_set) -> Sequence[Rule]:
    return rule_set.rules if isinstance(rule_set, RuleSet) else tuple(rule_set)


def support(table: DataTable, rule_set) -> int:
    """Rows satisfying every rule; the empty conjunction covers the whole table."""
    return int(rule_set_mask(table, _rules_of(rule_set)).sum())


def rule_set_stats(table: DataTable, target, rule_set) -> RuleStats:
    """Exact support, covered target rows and target subgroup size of a rule set."""
    flags = target_flags(target, table.n_rows)
    mask = rule_set_mask(table, _rules_of(rule_set))
    tp = int((mask & flags).sum())
    return RuleStats(int(mask.sum()), tp, int(flags.sum()))


def confidence(table: DataTable, target, rule_set) -> float:
    """Share of rule-satisfying rows that belong to the target subgroup."""
    return float(rule_set_stats(table, target, rule_set).confidence)


def fitness(table: DataTable, target, rule_set) -> float:
    """(covered target rows - covered non-target rows) / target subgroup size."""
    return float(rule_set_stats(table, target, rule_set).fitness)


@dataclass(frozen=True)
class RuleSetEvaluation:
    rules: tuple[Rule, ...]
    support: int
    tp: int
    confidence: float
    fitness: float


@dataclass(frozen=True)
class EvaluationReport:
    entries: tuple[RuleSetEvaluation, ...]
    target_count: int
    table_rows: int


def evaluate(table: DataTable, target, rule_sets) -> EvaluationReport:
    """Recompute support/confidence/fitness for each rule set from scratch."""
    flags = target_flags(target, table.n_rows)
    if not flags.any():
        raise NoTargetError(RuleStats.NO_TARGET)
    entries = []
    for rs in rule_sets:
        rules = tuple(_rules_of(rs))
        stats = rule_set_stats(table, flags, rules)
        entries.append(
            RuleSetEvaluation(
                rules=rules,
                support=stats.support,
                tp=stats.tp,
                confidence=float(stats.confidence),
                fitness=float(stats.fitness),
            )
        )
    return EvaluationReport(
        entries=tuple(entries), target_count=int(flags.sum()), table_rows=table.n_rows
    )


def format_rule(
    table: DataTable, rule: Rule, sig_digits: int = 6, ranges: dict | None = None
) -> str:
    """Human-readable predicate; intervals reaching the feature's observed
    min/max are rendered one-sided. ``ranges`` keeps each column's observed
    (min, max) across calls, so a report scans a column once."""
    col = table.column(rule.feature)
    if isinstance(rule.predicate, CategoryEquals):
        return f"{col.name} == {rule.predicate.token!r}"
    lo, hi = rule.predicate.lo, rule.predicate.hi
    fmt = lambda v: f"{v:.{sig_digits}g}"
    if col.kind == NUMERIC:
        ranges = {} if ranges is None else ranges
        if col.name not in ranges:
            vals = col.values[~np.isnan(col.values)]
            ranges[col.name] = (float(vals.min()), float(vals.max())) if len(vals) else None
        if ranges[col.name] is not None:
            vmin, vmax = ranges[col.name]
            if lo <= vmin and hi >= vmax:
                return f"{col.name}: any value"
            if lo <= vmin:
                return f"{col.name} <= {fmt(hi)}"
            if hi >= vmax:
                return f"{col.name} >= {fmt(lo)}"
    return f"{fmt(lo)} <= {col.name} <= {fmt(hi)}"


def report_text(table: DataTable, report: EvaluationReport) -> str:
    """Aligned text table, one row per rule set."""
    header = ("rules", "support", "confidence", "fitness")
    rows = []
    ranges: dict = {}  # each column's (min, max), scanned once per report
    for e in report.entries:
        text = " AND ".join(format_rule(table, r, ranges=ranges) for r in e.rules) or "(all rows)"
        rows.append((text, str(e.support), f"{e.confidence:.3f}", f"{e.fitness:.3f}"))
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    lines.append(
        f"target rows: {report.target_count} / {report.table_rows}"
    )
    return "\n".join(lines)


def report_json(table: DataTable, report: EvaluationReport) -> dict:
    return {
        "target_count": report.target_count,
        "table_rows": report.table_rows,
        "rule_sets": [
            {
                "rules": [rule_to_dict(table, r) for r in e.rules],
                "support": e.support,
                "confidence": e.confidence,
                "fitness": e.fitness,
            }
            for e in report.entries
        ],
    }
