import numpy as np
import pytest

from regionrules import (
    DataTable,
    FeatureColumn,
    Interval,
    Rule,
    TargetIndicator,
    confidence,
    evaluate,
    fitness,
    support,
)
from regionrules.errors import NoTargetError, SchemaError, ZeroSupportError
from regionrules.metrics import format_rule, report_json, report_text, rule_set_stats

from helpers import random_table

RULE_12 = (Rule(feature=0, predicate=Interval(1.0, 3.0)),)


class TestSupport:
    def test_empty_rule_set_covers_everything(self, grid_table):
        table, _ = grid_table
        assert support(table, ()) == 20

    def test_excluding_rule(self, grid_table):
        table, _ = grid_table
        assert support(table, (Rule(0, Interval(100.0, 200.0)),)) == 0

    def test_fixture_conjunction(self, grid_table):
        table, _ = grid_table
        assert support(table, RULE_12) == 10

    def test_unknown_feature(self, grid_table):
        table, _ = grid_table
        with pytest.raises(SchemaError):
            support(table, (Rule(5, Interval(0.0, 1.0)),))

    def test_missing_values_never_satisfy(self):
        vals = np.array([0.5, np.nan, 0.7])
        table = DataTable((FeatureColumn("x", "numeric", vals),))
        assert support(table, (Rule(0, Interval(0.0, 1.0)),)) == 2

    def test_adding_rules_never_increases_support(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            table, _ = random_table(rng, max_rows=120)
            numeric = [i for i, c in enumerate(table.columns) if c.kind == "numeric"]
            if not numeric:
                continue
            f = int(rng.choice(numeric))
            v = table.columns[f].values
            finite = v[~np.isnan(v)]
            if len(finite) < 2:
                continue
            lo, hi = np.quantile(finite, [0.2, 0.8])
            rules = [Rule(f, Interval(float(lo), float(hi)))]
            s1 = support(table, rules)
            g = int(rng.choice(numeric))
            w = table.columns[g].values
            finite_g = w[~np.isnan(w)]
            lo2, hi2 = np.quantile(finite_g, [0.1, 0.6])
            if g == f:
                continue
            s2 = support(table, rules + [Rule(g, Interval(float(lo2), float(hi2)))])
            assert s2 <= s1


class TestConfidence:
    def test_direct_formula(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0, 9.0])
        table = DataTable((FeatureColumn("x", "numeric", vals),))
        target = TargetIndicator(flags=np.array([True, True, True, False, True]))
        assert confidence(table, target, (Rule(0, Interval(0.0, 3.0)),)) == 0.75

    def test_whole_space_gives_prior(self, grid_table):
        table, target = grid_table
        assert confidence(table, target, ()) == 0.5

    def test_fixture_conjunction(self, grid_table):
        table, target = grid_table
        assert confidence(table, target, RULE_12) == 0.8

    def test_zero_support(self, grid_table):
        table, target = grid_table
        with pytest.raises(ZeroSupportError):
            confidence(table, target, (Rule(0, Interval(50.0, 60.0)),))


class TestFitness:
    def test_direct_formula(self, grid_table):
        table, target = grid_table
        # fixture conjunction: TP 8, FP 2, target 10
        assert fitness(table, target, RULE_12) == 0.6

    def test_negative_when_covering_nontarget(self, grid_table):
        table, target = grid_table
        # grid 3 rows beyond the single target at 3.2: values in [3.4, 4.0]
        rules = (Rule(0, Interval(3.4, 4.0)),)
        assert fitness(table, target, rules) < 0

    def test_empty_target(self, grid_table):
        table, _ = grid_table
        with pytest.raises(NoTargetError):
            fitness(table, TargetIndicator(flags=np.zeros(20, bool)), RULE_12)

    def test_consistency_with_reported_reference_values(self):
        # support 2736 at confidence 0.993 over a 13379-row subgroup
        assert abs(2736 * (2 * 0.993 - 1) / 13379 - 0.202) < 1e-3

    def test_identity_with_support_and_confidence(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            table, target = random_table(rng, max_rows=150)
            numeric = [i for i, c in enumerate(table.columns) if c.kind == "numeric"]
            if not numeric:
                continue
            f = int(rng.choice(numeric))
            v = table.columns[f].values
            finite = np.sort(v[~np.isnan(v)])
            if len(finite) < 2:
                continue
            lo, hi = sorted(rng.choice(finite, 2))
            rules = (Rule(f, Interval(float(lo), float(hi))),)
            s = support(table, rules)
            if s == 0:
                continue
            c = confidence(table, target, rules)
            fit = fitness(table, target, rules)
            assert abs(fit - s * (2 * c - 1) / target.count) < 1e-12
            assert 0.0 <= c <= 1.0
            assert fit <= s / target.count <= table.n_rows / target.count


class TestTargetLength:
    """A target that does not cover the table row for row is a SchemaError,
    as it is for the search, not a numpy broadcast error."""

    @pytest.mark.parametrize("length", [0, 19, 21])
    @pytest.mark.parametrize("measure", [confidence, fitness, rule_set_stats])
    def test_per_rule_set_measures(self, grid_table, length, measure):
        table, target = grid_table
        flags = np.resize(target.flags, length)
        with pytest.raises(SchemaError, match="length does not match"):
            measure(table, flags, RULE_12)

    @pytest.mark.parametrize("length", [0, 19, 21])
    def test_evaluate(self, grid_table, length):
        table, target = grid_table
        flags = TargetIndicator(flags=np.resize(target.flags, length))
        with pytest.raises(SchemaError, match="length does not match"):
            evaluate(table, flags, [RULE_12])

    def test_two_dimensional_flags(self, grid_table):
        table, target = grid_table
        with pytest.raises(SchemaError, match="length does not match"):
            evaluate(table, target.flags[:, None], [RULE_12])


class TestReport:
    def test_evaluate_and_render(self, grid_table):
        table, target = grid_table
        report = evaluate(table, target, [RULE_12, ()])
        assert report.entries[0].support == 10
        assert report.entries[0].confidence == 0.8
        assert report.entries[1].support == 20

        text = report_text(table, report)
        assert "support" in text and "(all rows)" in text
        payload = report_json(table, report)
        assert payload["rule_sets"][0]["fitness"] == 0.6
        assert payload["target_count"] == 10

    def test_one_sided_rendering_at_observed_extremes(self, grid_table):
        table, _ = grid_table
        assert format_rule(table, Rule(0, Interval(1.0, 4.0))) == "x >= 1"
        assert format_rule(table, Rule(0, Interval(0.0, 3.0))) == "x <= 3"
        assert format_rule(table, Rule(0, Interval(1.0, 3.0))) == "1 <= x <= 3"
        assert format_rule(table, Rule(0, Interval(0.0, 4.0))) == "x: any value"

    def test_ranges_are_kept_across_calls(self, grid_table):
        table, _ = grid_table
        ranges = {}
        assert format_rule(table, Rule(0, Interval(1.0, 3.0)), ranges=ranges) == "1 <= x <= 3"
        assert ranges == {"x": (0.0, 4.0)}
        ranges["x"] = (1.0, 3.0)  # a kept range is used, not recomputed
        assert format_rule(table, Rule(0, Interval(1.0, 3.0)), ranges=ranges) == "x: any value"

    def test_report_renders_each_rule_as_format_rule_does(self, grid_table):
        table, target = grid_table
        sets = [RULE_12, (Rule(0, Interval(1.0, 4.0)),), (Rule(0, Interval(0.0, 3.0)),), ()]
        lines = report_text(table, evaluate(table, target, sets)).splitlines()
        for line, rules in zip(lines[2:], sets):
            text = " AND ".join(format_rule(table, r) for r in rules) or "(all rows)"
            assert line.startswith(text + " ")

    def test_rendering_uses_six_significant_digits(self, grid_table):
        table, _ = grid_table
        rule = Rule(0, Interval(1.2345678901, 2.9876543210))
        assert format_rule(table, rule) == "1.23457 <= x <= 2.98765"

    def test_categorical_rule_rendering(self):
        from regionrules import CategoryEquals, DataTable, FeatureColumn

        table = DataTable(
            (FeatureColumn("sex", "categorical", np.array(["f", "m"], dtype=object)),)
        )
        target = TargetIndicator(flags=np.array([True, False]))
        rules = (Rule(0, CategoryEquals("f")),)
        assert format_rule(table, rules[0]) == "sex == 'f'"
        report = evaluate(table, target, [rules])
        assert report.entries[0].confidence == 1.0
        assert "sex == 'f'" in report_text(table, report)
