import numpy as np
import pytest

from regionrules import PlantedMode, PlantedSpec, brute_force_best, gen_synthetic
from regionrules.errors import ConfigError, EmptyResultError, SpecError, TooLargeError


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
        with pytest.raises(EmptyResultError):
            brute_force_best(table, target, n_g=4, l_max=1, s_min=21)

    @pytest.mark.parametrize("l_max, s_min", [(0, 5), (1, 0), (-1, -1)])
    def test_rule_cap_and_support_floor_below_one_rejected(self, grid_table, l_max, s_min):
        table, target = grid_table
        with pytest.raises(ConfigError):
            brute_force_best(table, target, n_g=4, l_max=l_max, s_min=s_min)

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

    def test_oracle_bounds_greedy_on_single_feature_tables(self):
        # with one feature and no conditioning, both searches share the same
        # unconditional grids, so the exhaustive fitness is an upper bound
        from regionrules import ExtractionConfig, extract_rule_sets
        from helpers import random_table

        rng = np.random.default_rng(31)
        compared = 0
        while compared < 25:
            table, target = random_table(rng, max_rows=120, max_features=1)
            if table.columns[0].kind != "numeric":
                continue
            n_g = int(rng.integers(2, 9))
            s_min = int(rng.integers(2, table.n_rows // 2))
            strategy = ("uniform", "kmeans", "quantile")[rng.integers(3)]
            config = ExtractionConfig(min_support=s_min, max_rules=1, n_grids=n_g,
                                      strategy=strategy, seed=3)
            sets = extract_rule_sets(table, target, [0], config)
            try:
                oracle = brute_force_best(table, target, n_g=n_g, l_max=1,
                                          s_min=s_min, strategy=strategy, seed=3)
            except EmptyResultError:
                assert sets == []
                compared += 1
                continue
            for rs in sets:
                assert rs.stats.fitness <= oracle.stats.fitness
            compared += 1
