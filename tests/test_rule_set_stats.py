"""One counter behind every metric: ``metrics.rule_set_stats``."""

import numpy as np
import pytest

from regionrules import Interval, Rule, RuleStats, TargetIndicator, confidence, evaluate, fitness
from regionrules.errors import NoTargetError, ZeroSupportError
from regionrules.metrics import rule_set_stats

from helpers import random_table

NO_ROW = (Rule(0, Interval(50.0, 60.0)),)


def test_counts_on_the_fixture(grid_table):
    table, target = grid_table
    stats = rule_set_stats(table, target, (Rule(0, Interval(1.0, 3.0)),))
    assert stats == RuleStats(support=10, tp=8, target_count=10)


def test_metrics_are_the_counts_rounded_once():
    rng = np.random.default_rng(31)
    for _ in range(40):
        table, target = random_table(rng, max_rows=120)
        numeric = [i for i, c in enumerate(table.columns) if c.kind == "numeric"]
        if not numeric:
            continue
        v = table.columns[numeric[0]].values
        finite = np.sort(v[~np.isnan(v)])
        lo, hi = finite[len(finite) // 4], finite[-1]
        rules = (Rule(numeric[0], Interval(float(lo), float(hi))),)
        stats = rule_set_stats(table, target, rules)
        assert confidence(table, target, rules) == stats.tp / stats.support
        assert fitness(table, target, rules) == (2 * stats.tp - stats.support) / stats.target_count
        (entry,) = evaluate(table, target, [rules]).entries
        assert (entry.support, entry.tp) == (stats.support, stats.tp)


def test_errors_carry_one_message_each(grid_table):
    table, target = grid_table
    with pytest.raises(ZeroSupportError, match="^rule set is satisfied by no row$"):
        confidence(table, target, NO_ROW)
    with pytest.raises(ZeroSupportError, match="^rule set is satisfied by no row$"):
        evaluate(table, target, [NO_ROW])
    empty = TargetIndicator(flags=np.zeros(20, bool))
    with pytest.raises(NoTargetError, match="^target subgroup is empty$"):
        fitness(table, empty, ())
    with pytest.raises(NoTargetError, match="^target subgroup is empty$"):
        evaluate(table, empty, [()])


def test_evaluate_checks_the_target_before_any_rule_set(grid_table):
    table, _ = grid_table
    with pytest.raises(NoTargetError):
        evaluate(table, TargetIndicator(flags=np.zeros(20, bool)), [NO_ROW])
