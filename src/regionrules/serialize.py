"""JSON-facing encoding of rules and rule sets.

Interval bounds are written at full float precision so that re-evaluating a
written rule set reproduces the original statistics exactly; the text report
in :mod:`regionrules.metrics` is where display rounding happens.
"""

from __future__ import annotations

from .errors import SchemaError
from .extraction import CategoryEquals, Interval, Rule, RuleSet
from .tabular import DataTable


def rule_to_dict(table: DataTable, rule: Rule) -> dict:
    name = table.column(rule.feature).name
    if isinstance(rule.predicate, Interval):
        return {
            "feature": name,
            "op": "in_interval",
            "lo": rule.predicate.lo,
            "hi": rule.predicate.hi,
        }
    return {"feature": name, "op": "eq", "value": rule.predicate.token}


def rule_from_dict(table: DataTable, d: dict) -> Rule:
    try:
        feature = table.column_index(d["feature"])
        op = d.get("op")
        if op == "in_interval":
            return Rule(feature, Interval(float(d["lo"]), float(d["hi"])))
        if op == "eq":
            return Rule(feature, CategoryEquals(d["value"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        raise SchemaError(f"malformed rule {d!r}") from None
    raise SchemaError(f"unknown rule op {op!r}")


def rule_set_to_dict(table: DataTable, rs: RuleSet) -> dict:
    return {
        "rules": [rule_to_dict(table, r) for r in rs.rules],
        "support": rs.stats.support,
        "confidence": float(rs.stats.confidence),
        "fitness": float(rs.stats.fitness),
        "step_ratios": [float(r) for r in rs.stats.step_ratios],
    }


def rules_from_dict(table: DataTable, d: dict) -> tuple[Rule, ...]:
    if not isinstance(d, dict) or "rules" not in d:
        raise SchemaError(f"rule set {d!r} has no 'rules' list")
    return tuple(rule_from_dict(table, r) for r in d["rules"])
