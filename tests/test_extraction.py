import json
from fractions import Fraction

import numpy as np
import pytest

from regionrules import (
    CategoryEquals,
    DataTable,
    ExtractionConfig,
    FeatureColumn,
    Interval,
    Rule,
    RuleSet,
    RuleStats,
    TargetIndicator,
    extract_local,
    extract_rule_sets,
    find_peaks,
    gen_feature_interval,
    get_candidate_rules,
    grid_ratios,
    rule_set_mask,
    select_best,
)
from regionrules.errors import (
    ConfigError,
    EmptyResultError,
    InfeasibleConfigError,
    NoTargetError,
)
from regionrules.serialize import rule_set_to_dict

from helpers import random_config, random_table

F = Fraction


def cfg(**kw):
    base = dict(min_support=8, max_rules=1, n_grids=4, max_branches=3,
                strategy="uniform", min_confidence=0.8, seed=0)
    base.update(kw)
    return ExtractionConfig(**base)


class TestGridRatios:
    def test_fixture_ratios(self, grid_hist):
        assert grid_ratios(grid_hist) == [F(2, 5), F(6, 5), F(2, 1), F(2, 5)]

    def test_uniform_density_gives_ones(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2), target_counts=(2, 4), total_counts=(4, 8),
            feature=0, condition_target=6, condition_total=12,
        )
        assert grid_ratios(hist) == [F(1), F(1)]

    def test_empty_grid_ratio_zero(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2), target_counts=(0, 5), total_counts=(0, 10),
            feature=0, condition_target=5, condition_total=10,
        )
        assert grid_ratios(hist)[0] == 0

    def test_no_target_error(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1), target_counts=(0,), total_counts=(5,),
            feature=0, condition_target=0, condition_total=5,
        )
        with pytest.raises(NoTargetError):
            grid_ratios(hist)


class TestFindPeaks:
    def test_single_interior_peak(self):
        assert find_peaks([F(2, 5), F(6, 5), F(2), F(2, 5)]) == [2]

    def test_boundary_peaks_sorted_by_ratio(self):
        assert find_peaks([F(2), F(1, 2), F(9, 5)]) == [0, 2]

    def test_nothing_above_one(self):
        assert find_peaks([F(1), F(9, 10)]) == []

    def test_plateau_is_not_a_peak(self):
        assert find_peaks([F(3, 2), F(3, 2), F(1, 2)]) == []


class TestGenFeatureInterval:
    def test_fixture_growth(self, grid_hist):
        grown = gen_feature_interval(grid_hist, peak=2, min_support=8)
        assert (grown.lo_grid, grown.hi_grid) == (1, 2)
        assert grown.ratio == F(8, 5)
        assert grown.support == 10

    def test_no_expansion_when_peak_suffices(self, grid_hist):
        grown = gen_feature_interval(grid_hist, peak=2, min_support=5)
        assert (grown.lo_grid, grown.hi_grid) == (2, 2)
        assert grown.ratio == F(2)
        assert grown.support == 5

    def test_infeasible_support(self, grid_hist):
        assert gen_feature_interval(grid_hist, peak=2, min_support=21) is None

    def test_growth_from_low_ratio_edge_fails(self, grid_hist):
        # forced growth from grid 0 ends at counts (4, 10): ratio 0.8 <= 1
        assert gen_feature_interval(grid_hist, peak=0, min_support=8) is None

    def test_growth_from_right_edge_is_valid(self, grid_hist):
        # from grid 3 the only neighbour is the strong grid 2; the combined
        # interval (6, 10) has ratio 1.2 > 1, so a valid interval comes back
        grown = gen_feature_interval(grid_hist, peak=3, min_support=8)
        assert (grown.lo_grid, grown.hi_grid) == (2, 3)
        assert grown.ratio == F(6, 5)

    def test_support_strictly_increases_during_forced_growth(self, grid_hist):
        # growing to min_support 20 must annex every grid
        grown = gen_feature_interval(grid_hist, peak=2, min_support=20)
        assert grown is None or grown.support == 20

    def test_forced_growth_terminates_across_empty_grids(self):
        # two condition rows miss this feature, so the full range keeps ratio > 1
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2, 3, 4),
            target_counts=(3, 0, 0, 1),
            total_counts=(3, 0, 0, 4),
            feature=0, condition_target=4, condition_total=9,
        )
        grown = gen_feature_interval(hist, peak=0, min_support=6)
        assert grown is not None
        assert (grown.lo_grid, grown.hi_grid) == (0, 3)
        assert grown.support == 7
        assert grown.ratio == F(9, 7)

    def test_whole_range_interval_has_unit_ratio_and_fails(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2),
            target_counts=(3, 1),
            total_counts=(4, 6),
            feature=0, condition_target=4, condition_total=10,
        )
        # forced to annex everything: the full range is the whole condition,
        # ratio exactly 1, so no valid interval exists
        assert gen_feature_interval(hist, peak=0, min_support=9) is None


def categorical_table():
    vals = np.array(["A"] * 5 + ["B"] * 5, dtype=object)
    flags = np.array([True] * 4 + [False] + [True] + [False] * 4)
    table = DataTable((FeatureColumn("cat", "categorical", vals),))
    return table, TargetIndicator(flags=flags)


class TestGetCandidateRules:
    def test_categorical_example(self):
        table, target = categorical_table()
        cands = get_candidate_rules(
            table, target, 0, np.ones(10, bool), cfg(min_support=5, n_grids=2)
        )
        assert len(cands) == 1
        assert cands[0].rule.predicate == CategoryEquals("A")
        assert cands[0].ratio == F(8, 5)
        assert cands[0].support == 5

    def test_numeric_fixture_top_one(self, grid_table):
        table, target = grid_table
        cands = get_candidate_rules(
            table, target, 0, np.ones(20, bool), cfg(max_branches=1)
        )
        assert len(cands) == 1
        assert cands[0].rule.predicate == Interval(1.0, 3.0)
        assert cands[0].ratio == F(8, 5)
        assert cands[0].support == 10

    def test_uniform_categories_discarded(self):
        vals = np.array(["A"] * 4 + ["B"] * 4, dtype=object)
        flags = np.array([True, True, False, False] * 2)
        table = DataTable((FeatureColumn("cat", "categorical", vals),))
        cands = get_candidate_rules(
            table, TargetIndicator(flags=flags), 0, np.ones(8, bool),
            cfg(min_support=1, n_grids=2),
        )
        assert cands == []


class TestExtractRuleSets:
    def test_planted_two_mode_fixture(self, two_mode):
        table, target, meta = two_mode
        config = ExtractionConfig(min_support=150, max_rules=2, n_grids=10,
                                  max_branches=3, strategy="uniform")
        sets = extract_rule_sets(table, target, [0, 1], config)
        prior = target.count / table.n_rows
        two_rules = [rs for rs in sets if len(rs.rules) == 2]
        assert two_rules
        assert any(rs.stats.confidence > prior for rs in two_rules)

    def test_target_everywhere_gives_no_rules(self, grid_table):
        table, _ = grid_table
        target = TargetIndicator(flags=np.ones(20, bool))
        assert extract_rule_sets(table, target, [0], cfg()) == []

    def test_infeasible_min_support(self, grid_table):
        table, target = grid_table
        with pytest.raises(InfeasibleConfigError):
            extract_rule_sets(table, target, [0], cfg(min_support=21))

    def test_empty_target_rejected(self, grid_table):
        table, _ = grid_table
        with pytest.raises(NoTargetError):
            extract_rule_sets(table, TargetIndicator(flags=np.zeros(20, bool)), [0], cfg())

    def test_empty_feature_set_rejected(self, grid_table):
        table, target = grid_table
        with pytest.raises(ConfigError):
            extract_rule_sets(table, target, [], cfg())

    def test_emitted_stats_match_reevaluation(self, two_mode):
        table, target, _ = two_mode
        config = ExtractionConfig(min_support=150, max_rules=2, n_grids=10)
        for rs in extract_rule_sets(table, target, [0, 1], config):
            mask = rule_set_mask(table, rs.rules)
            assert rs.stats.support == int(mask.sum())
            assert rs.stats.tp == int((mask & target.flags).sum())

    def test_confidence_recurrence_along_paths(self, two_mode):
        table, target, _ = two_mode
        config = ExtractionConfig(min_support=150, max_rules=2, n_grids=10)
        for rs in extract_rule_sets(table, target, [0, 1], config):
            conf = F(target.count, table.n_rows)
            mask = np.ones(table.n_rows, bool)
            for rule, ratio in zip(rs.rules, rs.stats.step_ratios):
                from regionrules import rule_mask

                mask &= rule_mask(table, rule)
                step_conf = F(int((mask & target.flags).sum()), int(mask.sum()))
                assert step_conf == conf * ratio
                assert step_conf > conf
                conf = step_conf

    def test_deterministic_output(self, two_mode):
        table, target, _ = two_mode
        config = ExtractionConfig(min_support=150, max_rules=2, n_grids=10,
                                  strategy="kmeans", seed=13)
        a = extract_rule_sets(table, target, [0, 1], config)
        b = extract_rule_sets(table, target, [0, 1], config)
        dump = lambda sets: json.dumps([rule_set_to_dict(table, rs) for rs in sets])
        assert dump(a) == dump(b)

    def test_constraints_on_random_tables(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            table, target = random_table(rng, max_rows=150)
            config = random_config(rng, table)
            sets = extract_rule_sets(table, target, range(len(table.columns)), config)
            for rs in sets:
                assert len(rs.rules) <= config.max_rules
                assert rs.stats.support >= config.min_support
                assert len({r.feature for r in rs.rules}) == len(rs.rules)
                assert all(r > 1 for r in rs.stats.step_ratios)

    def test_missing_values_keep_recurrence_exact(self):
        # rows missing a feature stay in the conditioned totals but can never
        # satisfy a rule on it; the step-ratio recurrence must still be exact
        rng = np.random.default_rng(7)
        n = 400
        x = rng.uniform(-2, 2, size=n)
        y = rng.uniform(-2, 2, size=n)
        y[::7] = np.nan
        inside = (x > 0) & (x < 1) & (np.nan_to_num(y, nan=-9.0) > 0) & (y < 1)
        flags = np.where(inside, rng.random(n) < 0.95, rng.random(n) < 0.03)
        table = DataTable((
            FeatureColumn("x", "numeric", x),
            FeatureColumn("y", "numeric", y),
        ))
        target = TargetIndicator(flags=flags)
        config = ExtractionConfig(min_support=10, max_rules=2, n_grids=4)
        sets = extract_rule_sets(table, target, [0, 1], config)
        two_rule = [rs for rs in sets if len(rs.rules) == 2]
        assert two_rule
        for rs in two_rule:
            if any(r.feature == 1 for r in rs.rules):
                covered_y = y[rule_set_mask(table, rs.rules)]
                assert not np.isnan(covered_y).any()
        for rs in sets:
            conf = F(target.count, n)
            mask = np.ones(n, bool)
            for rule, ratio in zip(rs.rules, rs.stats.step_ratios):
                from regionrules import rule_mask

                mask &= rule_mask(table, rule)
                step = F(int((mask & target.flags).sum()), int(mask.sum()))
                assert step == conf * ratio
                conf = step

    def test_boundary_row_joins_recomputed_interval_stats(self):
        # a row sitting exactly on the interval's top edge belongs to the next
        # grid but satisfies the emitted closed interval; cached stats must
        # already include it so re-evaluation agrees
        values = np.array([0.0, 0.5, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 2.7, 3.0])
        flags = np.array([False, False, True, True, True, True, False,
                          False, False, False])
        table = DataTable((FeatureColumn("x", "numeric", values),))
        target = TargetIndicator(flags=flags)
        config = ExtractionConfig(min_support=2, max_rules=1, n_grids=3)
        # uniform edges [0, 1, 2, 3]: the target block fills grid 1 = [1, 2)
        sets = extract_rule_sets(table, target, [0], config)
        best = sets[0]
        assert best.rules[0].predicate == Interval(1.0, 2.0)
        assert best.stats.support == 5  # includes the row at exactly 2.0
        mask = rule_set_mask(table, best.rules)
        assert best.stats.support == int(mask.sum())
        assert best.stats.tp == int((mask & target.flags).sum())
        assert best.stats.confidence == F(4, 5)

    def test_tree_structure_invariants(self, two_mode):
        table, target, _ = two_mode
        config = ExtractionConfig(min_support=150, max_rules=2, n_grids=10,
                                  max_branches=2)
        from regionrules.extraction import build_rule_tree, rule_set_mask

        root = build_rule_tree(table, target, [0, 1], config)
        assert root.support == table.n_rows and root.tp == target.count

        def walk(node, path):
            # the tree keeps counts only; rows are recomputed from the rule path
            assert not any(isinstance(v, np.ndarray) for v in vars(node).values())
            assert len(node.children) <= config.max_branches
            assert node.depth <= config.max_rules
            mask = rule_set_mask(table, path)
            for child in node.children:
                child_mask = rule_set_mask(table, path + [child.rule])
                assert (child_mask <= mask).all()  # child covers a subset
                assert child.support == int(child_mask.sum())
                assert child.tp == int((child_mask & target.flags).sum())
                assert child.depth == node.depth + 1
                walk(child, path + [child.rule])

        walk(root, [])
        assert root.children  # the planted data always yields a first rule


class TestExtractLocal:
    def test_inactive_constraint_matches_global_path(self, grid_table):
        table, target = grid_table
        config = cfg()
        global_sets = extract_rule_sets(table, target, [0], config)
        local = extract_local(table, target, [0], {0: 2.5}, config)
        assert local is not None
        assert local.rules == global_sets[0].rules
        assert local.stats == global_sets[0].stats

    def test_outlier_sample_yields_none(self, grid_table):
        # growth from grid 0 ends with ratio 0.8 <= 1: no valid local rules
        table, target = grid_table
        assert extract_local(table, target, [0], {0: 0.5}, cfg()) is None

    def test_sample_in_weak_right_grid_gets_widened_interval(self, grid_table):
        table, target = grid_table
        local = extract_local(table, target, [0], {0: 3.5}, cfg())
        assert local is not None
        assert local.rules[0].predicate == Interval(2.0, 4.0)
        assert local.stats.confidence == F(6, 10)

    def test_out_of_range_sample_clamps_to_boundary_grid(self, grid_table):
        table, target = grid_table
        low = extract_local(table, target, [0], {0: -5.0}, cfg())
        assert low is None  # clamped to grid 0, same dead end as inside it
        high = extract_local(table, target, [0], {0: 99.0}, cfg())
        assert high is not None
        assert high.rules[0].predicate == Interval(2.0, 4.0)

    def test_missing_sample_value_rejected(self, grid_table):
        table, target = grid_table
        with pytest.raises(ConfigError):
            extract_local(table, target, [0], {}, cfg())

    def test_local_sample_in_smaller_mode_gets_that_mode(self, two_mode):
        # the globally best rules cover the larger planted mode; a sample
        # inside the smaller one must pull the search onto its own rectangle
        table, target, meta = two_mode
        config = ExtractionConfig(min_support=100, max_rules=2, n_grids=10)
        small = min(meta["modes"], key=lambda m: m["rows_inside"])
        (f0_lo, f0_hi), (f1_lo, f1_hi) = small["bounds"]
        sample = {0: (f0_lo + f0_hi) / 2, 1: (f1_lo + f1_hi) / 2}
        local = extract_local(table, target, [0, 1], sample, config)
        assert local is not None
        mask = rule_set_mask(table, local.rules)
        inside = np.ones(table.n_rows, bool)
        for f, (lo, hi) in enumerate(small["bounds"]):
            v = table.columns[f].values
            inside &= (v >= lo) & (v <= hi)
        assert (mask & inside).sum() >= 0.8 * inside.sum()
        # and the global winner covers the larger mode instead
        global_best = select_best(
            extract_rule_sets(table, target, [0, 1], config), 0.8
        )
        gmask = rule_set_mask(table, global_best.rules)
        assert (gmask & inside).sum() < 0.2 * inside.sum()

    def test_local_categorical_restricted_to_sample_category(self):
        table, target = categorical_table()
        config = cfg(min_support=1, n_grids=2)
        local = extract_local(table, target, [0], {0: "A"}, config)
        assert local.rules[0].predicate == CategoryEquals("A")
        assert extract_local(table, target, [0], {0: "B"}, config) is None


def stats(support, tp, target_count, n_rules=1):
    rules = tuple(
        Rule(feature=i, predicate=Interval(float(i), float(i + 1)))
        for i in range(n_rules)
    )
    return RuleSet(
        rules=rules,
        stats=RuleStats(support=support, tp=tp, target_count=target_count,
                        table_rows=70000),
    )


class TestSelectBest:
    def test_confidence_floor_filters_first(self):
        strong = stats(2736, 2717, 13379)   # conf 0.993, fitness 0.202
        weak = stats(14501, 7468, 13379)    # conf 0.515, fitness 0.033
        assert select_best([weak, strong], 0.8) is strong

    def test_fallback_to_max_fitness(self):
        strong = stats(2736, 2717, 13379)
        weak = stats(14501, 7468, 13379)
        assert select_best([weak, strong], 0.999) is strong

    def test_tie_breaks_prefer_fewer_rules(self):
        a = stats(100, 90, 1000, n_rules=1)
        b = stats(100, 90, 1000, n_rules=2)
        assert select_best([b, a], 0.5) is a

    def test_empty_input(self):
        with pytest.raises(EmptyResultError):
            select_best([], 0.8)
