import numpy as np
import pytest

from regionrules import (
    DataTable,
    ExtractionConfig,
    FeatureColumn,
    Interval,
    PlantedMode,
    PlantedSpec,
    Rule,
    TargetIndicator,
    brute_force_best,
    extract_rule_sets,
    gen_synthetic,
)
from regionrules.errors import (
    ConfigError,
    EmptyResultError,
    InfeasibleConfigError,
    NoTargetError,
    SchemaError,
    SpecError,
    TooLargeError,
)
from regionrules.extraction import _rank

from helpers import numeric_table, random_table, ref_brute_force_best


def one_mode_spec(**kw):
    base = dict(
        n_rows=500,
        n_features=2,
        modes=(PlantedMode(bounds=((0.2, 0.5), (0.3, 0.6)), purity=1.0, weight=0.3),),
        background_rate=0.0,
        seed=7,
    )
    base.update(kw)
    return PlantedSpec(**base)


def with_missing_cells(rng, col):
    """``col`` with about a tenth of its cells missing."""
    vals = col.values.copy()
    vals[rng.random(len(vals)) < 0.1] = np.nan if col.kind == "numeric" else None
    return FeatureColumn(col.name, col.kind, vals)


def check_oracle_bounds_greedy_at_one_rule(rng, table, target):
    """At one rule the search bins each feature over all of its values, as
    the oracle does, and merging only removes edges, so every set it returns
    is among the oracle's options: the exhaustive fitness is an upper bound."""
    n_g = int(rng.integers(2, 9))
    s_min = int(rng.integers(2, table.n_rows // 2))
    strategy = ("uniform", "kmeans", "quantile")[rng.integers(3)]
    seed = int(rng.integers(100))
    config = ExtractionConfig(min_support=s_min, max_rules=1, n_grids=n_g, strategy=strategy,
                              seed=seed, max_branches=int(rng.integers(1, 4)))
    sets = extract_rule_sets(table, target, range(len(table.columns)), config)
    try:
        oracle = brute_force_best(table, target, n_g=n_g, l_max=1, s_min=s_min,
                                  strategy=strategy, seed=seed)
    except EmptyResultError:
        assert sets == []
        return
    assert all(rs.stats.fitness <= oracle.stats.fitness for rs in sets)


class TestGenSynthetic:
    def test_pure_modes_on_clean_background(self):
        table, target, summaries = gen_synthetic(one_mode_spec())
        inside = np.ones(500, bool)
        for f, (lo, hi) in enumerate(summaries[0].bounds):
            inside &= (table.columns[f].values >= lo) & (table.columns[f].values <= hi)
        assert (target.flags <= inside).all()  # every target row lies inside
        assert summaries[0].target_inside == target.count

    def test_zero_weight_mode_is_absent(self):
        spec = one_mode_spec(
            modes=(
                PlantedMode(bounds=((0.2, 0.5), (0.3, 0.6)), purity=1.0, weight=0.3),
                PlantedMode(bounds=((0.7, 0.9), (0.7, 0.9)), purity=1.0, weight=0.0),
            ),
            background_rate=0.0,
        )
        table, target, summaries = gen_synthetic(spec)
        # only stray background points can sit in the zero-weight rectangle
        assert summaries[1].rows_inside < summaries[0].rows_inside

    def test_deterministic_under_seed(self):
        a_table, a_target, _ = gen_synthetic(one_mode_spec(seed=7, n_rows=2000))
        b_table, b_target, _ = gen_synthetic(one_mode_spec(seed=7, n_rows=2000))
        for ca, cb in zip(a_table.columns, b_table.columns):
            assert np.array_equal(ca.values, cb.values)
        assert np.array_equal(a_target.flags, b_target.flags)

    def test_negative_seed_rejected(self):
        with pytest.raises(SpecError, match="seed"):
            one_mode_spec(seed=-1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(n_rows=0), "n_rows must be between 1 and"),
            (dict(n_features=4), "n_features must be between 1 and 3"),
            (dict(domain=((0.0, 1.0),)), "domain must give bounds for every feature"),
            (dict(domain=((0.0, 1.0), (2.0, 2.0))), r"empty domain \(2.0, 2.0\)"),
            (dict(background_rate=1.5), r"background_rate must be in \[0, 1\]"),
            (dict(modes=(PlantedMode(((0.2, 0.5),), 1.0, 0.3),)),
             "mode bounds must cover every feature"),
            (dict(modes=(PlantedMode(((0.2, 0.5), (0.3, 0.6)), 1.5, 0.3),)),
             r"purity must be in \[0, 1\]"),
            (dict(modes=(PlantedMode(((0.2, 0.5), (0.3, 0.6)), 1.0, -0.3),)),
             r"weight must be in \[0, 1\]"),
        ],
        ids=["n_rows", "n_features", "domain-length", "empty-domain", "background",
             "mode-bounds", "purity", "weight"],
    )
    def test_each_field_is_checked(self, fields, message):
        with pytest.raises(SpecError, match=message):
            one_mode_spec(**fields)

    def test_overlapping_rectangles_rejected(self):
        with pytest.raises(SpecError):
            one_mode_spec(
                modes=(
                    PlantedMode(bounds=((0.2, 0.5), (0.3, 0.6)), purity=1.0, weight=0.2),
                    PlantedMode(bounds=((0.4, 0.7), (0.5, 0.8)), purity=1.0, weight=0.2),
                )
            )

    def test_rectangle_outside_domain_rejected(self):
        with pytest.raises(SpecError):
            one_mode_spec(
                modes=(PlantedMode(bounds=((0.5, 1.5), (0.3, 0.6)), purity=1.0, weight=0.2),)
            )

    def test_weights_above_one_rejected(self):
        with pytest.raises(SpecError):
            one_mode_spec(
                modes=(
                    PlantedMode(bounds=((0.1, 0.2), (0.1, 0.2)), purity=1.0, weight=0.6),
                    PlantedMode(bounds=((0.5, 0.6), (0.5, 0.6)), purity=1.0, weight=0.6),
                )
            )


class TestBruteForceBest:
    def test_fixture_single_feature(self, grid_table):
        table, target = grid_table
        best = brute_force_best(table, target, n_g=4, l_max=1, s_min=8)
        assert best.stats.support == 10
        assert float(best.stats.fitness) == 0.6
        assert best.rules[0].predicate.lo == 1.0
        assert best.rules[0].predicate.hi == 3.0

    def test_recovers_planted_rectangle(self):
        table, target, summaries = gen_synthetic(one_mode_spec(n_rows=800))
        best = brute_force_best(table, target, n_g=6, l_max=2, s_min=20)
        mask = np.ones(800, bool)
        from regionrules import rule_set_mask

        covered = rule_set_mask(table, best.rules)
        inside = np.ones(800, bool)
        for f, (lo, hi) in enumerate(summaries[0].bounds):
            inside &= (table.columns[f].values >= lo) & (table.columns[f].values <= hi)
        # the best box contains essentially the planted mass
        assert (covered & inside).sum() >= 0.8 * inside.sum()

    def test_infeasible_support(self, grid_table):
        table, target = grid_table
        with pytest.raises(InfeasibleConfigError):
            brute_force_best(table, target, n_g=4, l_max=1, s_min=21)

    def test_no_conjunction_reaches_support(self, grid_table):
        table, target = grid_table
        values = table.columns[0].values.copy()
        values[:5] = np.nan  # 15 rows keep a value, 20 rows remain
        with pytest.raises(EmptyResultError):
            brute_force_best(numeric_table(values), target, n_g=4, l_max=1, s_min=16)

    def test_fitness_ties_break_as_the_search_ranks(self):
        # [0, 0.75] (support 2, tp 2) and [0, 1.5] (support 4, tp 3) both
        # have fitness 2/3; the search ranks the more confident one first
        table = numeric_table([0, 0, 1, 1, 2, 2, 3, 3])
        target = TargetIndicator(flags=np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=bool))
        best = brute_force_best(table, target, n_g=4, l_max=1, s_min=1)
        assert best.rules == (Rule(0, Interval(0.0, 0.75)),)
        assert (best.stats.support, best.stats.tp) == (2, 2)
        config = ExtractionConfig(min_support=1, max_rules=1, n_grids=4)
        assert extract_rule_sets(table, target, [0], config)[0].rules == best.rules

    def test_constant_feature_gets_no_rules(self, grid_table):
        table, target = grid_table
        constant = FeatureColumn("c", "numeric", np.full(table.n_rows, 2.5))
        wider = DataTable(table.columns + (constant,))
        best = brute_force_best(wider, target, n_g=4, l_max=2, s_min=8)
        assert best == brute_force_best(table, target, n_g=4, l_max=2, s_min=8)

    def test_empty_target_is_rejected_as_the_search_does(self, grid_table):
        table, _ = grid_table
        with pytest.raises(NoTargetError):
            brute_force_best(table, np.zeros(table.n_rows, bool), n_g=4, l_max=1, s_min=8)

    def test_table_without_features_is_a_config_error(self):
        with pytest.raises(ConfigError, match="feature set"):
            brute_force_best(DataTable((), empty_rows=3), [1, 0, 1], n_g=4, l_max=1, s_min=1)

    def test_target_of_the_wrong_length_is_a_schema_error(self, grid_table):
        table, target = grid_table
        with pytest.raises(SchemaError, match="length"):
            brute_force_best(table, target.flags[:-1], n_g=4, l_max=1, s_min=8)

    def test_matches_the_reference_oracle_up_to_rank_ties(self):
        # same fitness as the oracle that kept its own rank key, and never a
        # pick that the search would rank after the reference's
        rng = np.random.default_rng(1212)
        for _ in range(300):
            table, target = random_table(rng, max_rows=120, max_features=3)
            if rng.random() < 0.3:
                table = DataTable(tuple(with_missing_cells(rng, c) for c in table.columns))
            args = dict(
                n_g=int(rng.integers(2, 9)),
                l_max=int(rng.integers(1, 3)),
                s_min=int(rng.integers(1, table.n_rows // 2)),
                strategy=("uniform", "kmeans", "quantile")[rng.integers(3)],
                seed=int(rng.integers(100)),
            )
            try:
                ref = ref_brute_force_best(table, target, **args)
            except EmptyResultError:
                with pytest.raises(EmptyResultError):
                    brute_force_best(table, target, **args)
                continue
            best = brute_force_best(table, target, **args)
            assert best.stats.fitness == ref.stats.fitness
            assert _rank(best) <= _rank(ref)

    @pytest.mark.parametrize("l_max, s_min", [(0, 5), (1, 0), (-1, -1)])
    def test_rule_cap_and_support_floor_below_one_rejected(self, grid_table, l_max, s_min):
        table, target = grid_table
        with pytest.raises(ConfigError):
            brute_force_best(table, target, n_g=4, l_max=l_max, s_min=s_min)

    @pytest.mark.parametrize(
        "args, match",
        [
            (dict(n_g=1), "n_grids must be >= 2"),
            (dict(n_g=-3), "n_grids must be >= 2"),
            (dict(n_g=4, strategy="bogus"), "unknown binning strategy"),
            (dict(n_g=4, seed=-1), "seed must be >= 0"),
        ],
    )
    def test_categorical_table_checks_the_binning_options_as_the_search_does(self, args, match):
        # no numeric feature, so no make_grids call checks them
        col = FeatureColumn("g", "categorical", np.array(list("aabbab"), dtype=object))
        target = np.array([1, 1, 0, 0, 1, 0], dtype=bool)
        with pytest.raises(ConfigError, match=match):
            brute_force_best(DataTable((col,)), target, l_max=1, s_min=1, **args)

    def test_negative_seed_with_a_kmeans_feature_is_a_config_error(self, grid_table):
        table, target = grid_table
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            brute_force_best(table, target, n_g=4, l_max=1, s_min=8, strategy="kmeans", seed=-1)

    def test_tractability_guard(self, grid_table):
        table, target = grid_table
        with pytest.raises(TooLargeError):
            brute_force_best(table, target, n_g=9, l_max=1, s_min=5)
        with pytest.raises(TooLargeError):
            brute_force_best(table, target, n_g=4, l_max=3, s_min=5)

    def test_oracle_stats_satisfy_fitness_identity(self, grid_table):
        table, target = grid_table
        best = brute_force_best(table, target, n_g=4, l_max=1, s_min=8)
        s, c, f = best.stats.support, best.stats.confidence, best.stats.fitness
        assert f == s * (2 * c - 1) / target.count

    def test_oracle_bounds_greedy_at_one_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            table, target = random_table(rng, max_rows=120, max_features=3)
            if rng.random() < 0.3:
                table = DataTable(tuple(with_missing_cells(rng, c) for c in table.columns))
            check_oracle_bounds_greedy_at_one_rule(rng, table, target)

    def test_oracle_bounds_greedy_at_one_rule_on_planted_tables(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            d = int(rng.integers(1, 4))
            modes = []
            for k in range(int(rng.integers(1, 3))):  # mode k keeps to its half of feature 0
                cuts = [np.sort(rng.uniform(size=2)) for _ in range(d)]
                cuts[0] = (k + cuts[0]) / 2
                modes.append(PlantedMode(bounds=tuple(map(tuple, cuts)),
                                         purity=rng.uniform(0.6, 1.0),
                                         weight=rng.uniform(0.05, 0.3)))
            spec = PlantedSpec(n_rows=int(rng.integers(200, 1500)), n_features=d,
                               modes=tuple(modes), background_rate=rng.uniform(0.0, 0.2),
                               seed=int(rng.integers(1000)))
            table, target, _ = gen_synthetic(spec)
            check_oracle_bounds_greedy_at_one_rule(rng, table, target)
