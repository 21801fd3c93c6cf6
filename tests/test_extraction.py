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
    build_rule_tree,
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
    SchemaError,
)
from regionrules.serialize import rule_set_to_dict

from helpers import random_config, random_table, range_ratio, range_support

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
            condition_target=6, condition_total=12,
        )
        assert grid_ratios(hist) == [F(1), F(1)]

    def test_empty_grid_ratio_zero(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2), target_counts=(0, 5), total_counts=(0, 10),
            condition_target=5, condition_total=10,
        )
        assert grid_ratios(hist)[0] == 0

    def test_no_target_error(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1), target_counts=(0,), total_counts=(5,),
            condition_target=0, condition_total=5,
        )
        with pytest.raises(NoTargetError):
            grid_ratios(hist)


def counts_hist(target_counts, total_counts, condition_total, condition_target):
    from regionrules import GridHistogram

    return GridHistogram(
        edges=tuple(range(len(total_counts) + 1)), target_counts=target_counts,
        total_counts=total_counts, condition_total=condition_total,
        condition_target=condition_target,
    )


class TestFindPeaks:
    def test_single_interior_peak(self, grid_hist):
        assert grid_ratios(grid_hist) == [F(2, 5), F(6, 5), F(2), F(2, 5)]
        assert find_peaks(grid_hist) == [2]

    def test_boundary_peaks_sorted_by_ratio(self):
        hist = counts_hist((2, 1, 9), (5, 10, 25), 60, 12)
        assert grid_ratios(hist) == [F(2), F(1, 2), F(9, 5)]
        assert find_peaks(hist) == [0, 2]

    def test_nothing_above_one(self):
        hist = counts_hist((1, 9), (2, 20), 22, 11)
        assert grid_ratios(hist) == [F(1), F(9, 10)]
        assert find_peaks(hist) == []

    def test_plateau_is_not_a_peak(self):
        hist = counts_hist((3, 3, 1), (4, 4, 4), 14, 7)
        assert grid_ratios(hist) == [F(3, 2), F(3, 2), F(1, 2)]
        assert find_peaks(hist) == []

    def test_an_empty_neighbour_ranks_below_any_peak(self):
        hist = counts_hist((0, 1, 0), (0, 2, 0), 4, 1)
        assert grid_ratios(hist) == [F(0), F(2), F(0)]
        assert find_peaks(hist) == [1]

    def test_no_target_error(self):
        with pytest.raises(NoTargetError):
            find_peaks(counts_hist((0,), (5,), 5, 0))


class TestGenFeatureInterval:
    def test_fixture_growth(self, grid_hist):
        grown = gen_feature_interval(grid_hist, peak=2, min_support=8)
        assert (grown.lo_grid, grown.hi_grid) == (1, 2)
        assert range_ratio(grid_hist, grown) == F(8, 5)
        assert range_support(grid_hist, grown) == 10

    def test_no_expansion_when_peak_suffices(self, grid_hist):
        grown = gen_feature_interval(grid_hist, peak=2, min_support=5)
        assert (grown.lo_grid, grown.hi_grid) == (2, 2)
        assert range_ratio(grid_hist, grown) == F(2)
        assert range_support(grid_hist, grown) == 5

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
        assert range_ratio(grid_hist, grown) == F(6, 5)

    def test_support_strictly_increases_during_forced_growth(self, grid_hist):
        # growing to min_support 20 must annex every grid
        grown = gen_feature_interval(grid_hist, peak=2, min_support=20)
        assert grown is None or range_support(grid_hist, grown) == 20

    def test_forced_growth_terminates_across_empty_grids(self):
        # two condition rows miss this feature, so the full range keeps ratio > 1
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2, 3, 4),
            target_counts=(3, 0, 0, 1),
            total_counts=(3, 0, 0, 4),
            condition_target=4, condition_total=9,
        )
        grown = gen_feature_interval(hist, peak=0, min_support=6)
        assert grown is not None
        assert (grown.lo_grid, grown.hi_grid) == (0, 3)
        assert range_support(hist, grown) == 7
        assert range_ratio(hist, grown) == F(9, 7)

    def test_whole_range_interval_has_unit_ratio_and_fails(self):
        from regionrules import GridHistogram

        hist = GridHistogram(
            edges=(0, 1, 2),
            target_counts=(3, 1),
            total_counts=(4, 6),
            condition_target=4, condition_total=10,
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

    def test_none_condition_is_every_row(self, grid_table):
        table, target = grid_table
        config = cfg(max_branches=3)
        want = get_candidate_rules(table, target, 0, np.ones(20, bool), config)
        assert get_candidate_rules(table, target, 0, None, config) == want
        assert get_candidate_rules(table, target, 0, np.arange(20), config) == want

    @pytest.mark.parametrize("length", [5, 12])
    def test_wrong_length_mask_is_rejected(self, length):
        # 5 used to search the first 5 rows only and find nothing; 12 ended
        # in an IndexError
        table, target = categorical_table()
        with pytest.raises(SchemaError, match="condition mask length"):
            get_candidate_rules(table, target, 0, np.ones(length, bool), cfg(min_support=1))

    def test_short_target_is_rejected(self):
        table, target = categorical_table()
        with pytest.raises(SchemaError, match="target indicator length"):
            get_candidate_rules(table, target.flags[:5], 0, None, cfg(min_support=1))

    @pytest.mark.parametrize(
        "rows", [np.r_[np.arange(20), np.arange(20)], np.arange(20)[::-1]],
        ids=["repeated", "descending"],
    )
    def test_unordered_indices_are_rejected(self, grid_table, rows):
        # repeated rows used to count twice: a support of 10 rows from 5
        table, target = grid_table
        with pytest.raises(ConfigError, match="strictly ascending"):
            get_candidate_rules(table, target, 0, rows, cfg())

    @pytest.mark.parametrize(
        "rows",
        [np.arange(20) + 0.9, np.arange(20).reshape(4, 5), np.array(True)],
        ids=["float", "2-d", "0-d"],
    )
    def test_indices_that_are_not_integer_rows_are_rejected(self, grid_table, rows):
        # float indices used to be truncated; a 2-d array ended in a
        # ValueError, a 0-d one in a TypeError
        table, target = grid_table
        with pytest.raises(ConfigError, match="integer row indices"):
            get_candidate_rules(table, target, 0, rows, cfg())

    @pytest.mark.parametrize(
        "rows", [np.zeros(20, bool), np.array([], dtype=np.intp)], ids=["mask", "indices"]
    )
    def test_a_condition_with_no_row_is_rejected(self, grid_table, rows):
        table, target = grid_table
        with pytest.raises(ConfigError, match="condition mask selects no rows"):
            get_candidate_rules(table, target, 0, rows, cfg())

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_out_of_range_indices_are_rejected(self, grid_table, bad):
        # -1 used to read the last row; 20 ended in an IndexError
        table, target = grid_table
        rows = np.sort(np.r_[bad, 3, 5, 7, 9])
        with pytest.raises(ConfigError, match="out of range for 20 rows"):
            get_candidate_rules(table, target, 0, rows, cfg(min_support=1))


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            cfg(strategy="kmeans", seed=-1)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (dict(max_branches=0), "max_branches must be >= 1, got 0"),
            (dict(min_confidence=-0.5), r"min_confidence must be in \[0, 1\], got -0.5"),
            (dict(min_confidence=1.5), r"min_confidence must be in \[0, 1\], got 1.5"),
        ],
    )
    def test_out_of_range_knobs_rejected(self, knobs, message):
        with pytest.raises(ConfigError, match=message):
            cfg(**knobs)

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

    def test_fitness_and_confidence_ties_list_fewer_rules_first(self):
        # c=a & d=p selects the same four target rows as d=p alone, so the two
        # sets tie on every count; the one-rule set must come first
        groups = [("a", "p", "y", True, 4), ("a", "q", "y", False, 4),
                  ("b", "q", "z", True, 4), ("b", "q", "y", False, 20)]
        cells = [g for g in groups for _ in range(g[4])]
        table = DataTable(tuple(
            FeatureColumn(name, "categorical", np.array([c[i] for c in cells], dtype=object))
            for i, name in enumerate("cde")
        ))
        target = TargetIndicator(flags=np.array([c[3] for c in cells]))
        config = ExtractionConfig(min_support=4, max_rules=2, n_grids=4)
        sets = extract_rule_sets(table, target, [0, 1, 2], config)
        shown = [sorted(f"{table.column(r.feature).name}={r.predicate.token}" for r in rs.rules)
                 for rs in sets]
        assert shown == [["d=p"], ["e=z"], ["c=a", "d=p"], ["c=a"]]
        counts = [(rs.stats.support, rs.stats.tp) for rs in sets]
        assert counts[0] == counts[2] == (4, 4)

    def test_select_best_is_the_first_set_clearing_the_floor(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(40):
            table, target = random_table(rng, max_rows=150)
            config = random_config(rng, table)
            sets = extract_rule_sets(table, target, range(len(table.columns)), config)
            if not sets:
                continue
            for floor in (0.0, 0.5, config.min_confidence, 1.0):
                expected = next((rs for rs in sets if rs.stats.confidence >= floor), sets[0])
                assert select_best(sets, floor) is expected
                assert select_best(sets[::-1], floor) is expected
            checked += 1
        assert checked >= 20

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
        stats=RuleStats(support=support, tp=tp, target_count=target_count),
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

    def test_a_confidence_equal_to_the_floor_reaches_it(self):
        # confidence 4/5 reaches 0.8, though the double 0.8 lies just above 4/5
        exact = stats(5, 4, 10)  # fitness 3/10
        pure = stats(2, 2, 10)  # confidence 1, fitness 2/10
        assert select_best([exact, pure], 0.8) is exact
        assert select_best([exact, pure], 0.81) is pure

    def test_empty_input(self):
        with pytest.raises(EmptyResultError):
            select_best([], 0.8)


def mixed_table(rng, n_rows, n_numeric, n_categorical):
    """Normal numeric columns and 4-level categorical ones, with a target
    that leans on the first column of each kind."""
    cols = [FeatureColumn(f"x{f}", "numeric", rng.normal(size=n_rows)) for f in range(n_numeric)]
    cols += [
        FeatureColumn(f"c{f}", "categorical", rng.choice(list("abcd"), n_rows).astype(object))
        for f in range(n_categorical)
    ]
    table = DataTable(tuple(cols))
    lean = (cols[0].values > 0.5) | (cols[-1].values == "a")
    flags = rng.random(n_rows) < np.where(lean, 0.6, 0.1)
    return table, TargetIndicator(flags=flags)


def expanded_nodes(root):
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out += [node] if node.histograms else []
        stack.extend(node.children)
    return out


def test_the_search_builds_no_per_grid_ratios(monkeypatch):
    """Peaks, growth and both screens decide on counts: a search that
    cannot build a ratio list still finds numeric and categorical rules."""
    from regionrules import extraction

    table, target = mixed_table(np.random.default_rng(3), 600, 3, 2)
    config = ExtractionConfig(min_support=30, max_rules=2, n_grids=8)
    want = extract_rule_sets(table, target, range(5), config)

    def refuse(*args, **kwargs):
        raise AssertionError("the search built a ratio list")

    monkeypatch.setattr(extraction, "count_ratios", refuse)
    monkeypatch.setattr(extraction, "grid_ratios", refuse)
    root = extraction.build_rule_tree(table, target, range(5), config)
    assert extraction._ranked(root) == want
    kinds = {type(r.predicate) for rs in want for r in rs.rules}
    assert kinds == {Interval, CategoryEquals}
    for node in expanded_nodes(root):
        # no cell is missing, so a node's counts add up to its support and tp
        for bins, tc, nc in node.histograms.values():
            assert len(bins) in (len(nc), len(nc) + 1)
            assert (sum(tc), sum(nc)) == (node.tp, node.support)


@pytest.mark.parametrize("strategy", ("uniform", "quantile", "kmeans"))
def test_a_search_tree_keeps_counts_not_ratios(strategy):
    """The retained tree holds each expanded node's histograms as counts:
    under 900 bytes per (expanded node x searched feature) at 10 grids on a
    2,000-row table of 30 features (about 720-810; 1,570-1,920 when the
    histograms also held their exact ratios)."""
    import tracemalloc

    table, target = mixed_table(np.random.default_rng(4), 2000, 25, 5)
    config = ExtractionConfig(min_support=50, max_rules=2, n_grids=10, strategy=strategy)
    extract_rule_sets(table, target, range(30), config)  # first-use column caches
    tracemalloc.start()
    try:
        root = build_rule_tree(table, target, range(30), config)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = expanded_nodes(root)
    assert len(nodes) == 1 + config.max_branches
    slots = sum(len(node.histograms) for node in nodes)
    assert retained < 900 * slots
