import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regionrules import GridHistogram, grid_counts, make_grids, merge_grids
from regionrules.errors import ConfigError, DegenerateFeatureError, DomainError


class TestMakeGrids:
    def test_uniform_equal_width(self):
        edges = make_grids(np.array([0.0, 3.0, 7.0, 10.0]), 5, "uniform")
        assert edges.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_kmeans_two_point_masses(self):
        edges = make_grids(np.array([0.0, 0, 0, 10, 10, 10.0]), 2, "kmeans")
        assert edges.tolist() == [0.0, 5.0, 10.0]

    def test_quantile_linear_interpolation(self):
        values = np.arange(1.0, 9.0)
        edges = make_grids(values, 4, "quantile")
        expected = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert edges.tolist() == expected.tolist() == [1.0, 2.75, 4.5, 6.25, 8.0]

    def test_single_distinct_value_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            make_grids(np.array([3.0, 3.0, 3.0]), 4, "uniform")

    def test_duplicate_edges_collapse(self):
        # heavily skewed data: several identical quantiles collapse
        values = np.array([1.0] * 50 + [2.0] * 2)
        edges = make_grids(values, 4, "quantile")
        assert len(edges) < 5
        assert (np.diff(edges) > 0).all()

    def test_missing_values_ignored(self):
        edges = make_grids(np.array([0.0, np.nan, 10.0]), 2, "uniform")
        assert edges.tolist() == [0.0, 5.0, 10.0]

    def test_bad_n_g(self):
        with pytest.raises(ConfigError):
            make_grids(np.array([0.0, 1.0]), 1, "uniform")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="unknown binning strategy 'median'"):
            make_grids(np.array([0.0, 1.0]), 2, "median")

    def test_signed_zero_bounds_come_from_the_values_as_given(self):
        # min/max and np.quantile of the unsorted values can pick the other
        # zero than the sorted ends, and the sign reaches the JSON edges
        rng = np.random.default_rng(1)
        for _ in range(200):
            vals = rng.choice([-0.0, 0.0, -3.0], int(rng.integers(2, 300)))
            vals[:2] = [-3.0, 0.0]
            edges = make_grids(vals, 3, "uniform")
            assert np.signbit(edges[-1]) == np.signbit(vals.max())
            want = np.unique(np.quantile(vals, np.linspace(0.0, 1.0, 4)))
            assert make_grids(vals, 3, "quantile").tobytes() == want.tobytes()

    def test_kmeans_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=200)
        a = make_grids(values, 6, "kmeans", seed=9)
        b = make_grids(values, 6, "kmeans", seed=9)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("strategy", ["uniform", "quantile", "kmeans"])
    def test_range_too_wide_for_finite_edges(self, strategy):
        # uniform and quantile overflow in hi - lo, kmeans in the squared distances
        values = np.array([-1.7e308] * 3 + [1.7e308] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(DomainError):
                make_grids(values, 2, strategy)
            with pytest.raises(DomainError, match="overflow"):
                make_grids(np.array([0.0, 1e200, -1e200]), 4, "kmeans")
            # wide ranges whose arithmetic stays finite still bin
            assert make_grids(np.array([-1e307, 1e307]), 4, "uniform")[2] == 0.0
            assert len(make_grids(np.array([-1e153, 0.0, 1e153]), 4, "kmeans")) == 4

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50, unique=True),
        st.integers(2, 10),
        st.sampled_from(["uniform", "kmeans", "quantile"]),
    )
    def test_edges_are_valid_for_every_strategy(self, values, n_g, strategy):
        arr = np.asarray(values)
        edges = make_grids(arr, n_g, strategy, seed=1)
        assert len(edges) >= 2
        assert (np.diff(edges) > 0).all()
        assert edges[0] == arr.min()
        assert edges[-1] == arr.max()
        assert len(edges) <= n_g + 1


class TestGridCounts:
    def test_fixture_counts(self, grid_table):
        table, target = grid_table
        hist = grid_counts(
            [0.0, 1.0, 2.0, 3.0, 4.0],
            table.column("x").values,
            target.flags,
            np.ones(20, dtype=bool),
        )
        assert hist.target_counts == (1, 3, 5, 1)
        assert hist.total_counts == (5, 5, 5, 5)
        assert hist.condition_total == 20
        assert hist.condition_target == 10

    def test_empty_condition_mask(self, grid_table):
        table, target = grid_table
        hist = grid_counts(
            [0.0, 2.0, 4.0],
            table.column("x").values,
            target.flags,
            np.zeros(20, dtype=bool),
        )
        assert hist.total_counts == (0, 0)
        assert hist.condition_total == 0

    def test_all_values_in_one_grid(self):
        vals = np.array([1.1, 1.2, 1.3])
        hist = grid_counts([0.0, 1.0, 2.0], vals, [True, False, True], [True] * 3)
        assert hist.total_counts == (0, 3)
        assert hist.target_counts == (0, 2)

    def test_top_edge_lands_in_last_grid(self):
        hist = grid_counts([0.0, 1.0, 2.0], np.array([2.0]), [True], [True])
        assert hist.total_counts == (0, 1)

    def test_missing_rows_excluded_from_counts_only(self):
        vals = np.array([0.5, np.nan, 1.5])
        hist = grid_counts([0.0, 1.0, 2.0], vals, [True, True, False], [True] * 3)
        assert hist.total_counts == (1, 1)
        assert hist.condition_total == 3  # the missing row still conditions
        assert hist.condition_target == 2


def make_hist(pairs, condition=(10, 20)):
    t, n = zip(*pairs)
    return GridHistogram(
        edges=tuple(float(i) for i in range(len(pairs) + 1)),
        target_counts=t,
        total_counts=n,
        condition_target=condition[0],
        condition_total=condition[1],
    )


class TestMergeGrids:
    def test_worked_example(self):
        hist = make_hist([(1, 2), (2, 4), (0, 0), (3, 3)])
        merged = merge_grids(hist)
        assert list(zip(merged.target_counts, merged.total_counts)) == [(3, 6), (3, 3)]
        assert merged.edges == (0.0, 2.0, 4.0)

    def test_no_op_when_nothing_matches(self, grid_hist):
        merged = merge_grids(grid_hist)
        assert merged == grid_hist

    def test_all_empty_collapses_to_single_grid(self):
        merged = merge_grids(make_hist([(0, 0), (0, 0), (0, 0)]))
        assert merged.total_counts == (0,)
        assert merged.edges == (0.0, 3.0)

    def test_empty_grid_between_equal_ratios_reaches_fixed_point(self):
        merged = merge_grids(make_hist([(1, 2), (0, 0), (2, 4)]))
        assert list(zip(merged.target_counts, merged.total_counts)) == [(3, 6)]

    def test_empty_grid_does_not_merge_into_positive_ratio_in_pass_one(self):
        # (0,0) vs (0,5) are both ratio zero and merge; (0,0) vs (3,3) must not
        merged = merge_grids(make_hist([(0, 0), (0, 5), (3, 3)]))
        assert list(zip(merged.target_counts, merged.total_counts)) == [(0, 5), (3, 3)]

    def test_tie_between_neighbours_goes_left(self):
        merged = merge_grids(make_hist([(1, 4), (0, 0), (1, 4)]))
        # ratio tie: empty joins the left grid, then equal ratios merge anyway
        assert sum(merged.total_counts) == 8

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
                lambda p: (min(p), max(p))
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_conservation_idempotence_ascending_edges(self, pairs):
        hist = make_hist(pairs, condition=(25, 60))
        merged = merge_grids(hist)
        assert sum(merged.target_counts) == sum(hist.target_counts)
        assert sum(merged.total_counts) == sum(hist.total_counts)
        assert merge_grids(merged) == merged
        assert all(a < b for a, b in zip(merged.edges, merged.edges[1:]))
        # no adjacent equal ratios survive
        fr = [Fraction(t, n) if n else Fraction(0)
              for t, n in zip(merged.target_counts, merged.total_counts)]
        assert all(x != y for x, y in zip(fr, fr[1:]))
        # empty grids survive only in the degenerate all-empty case
        if sum(merged.total_counts) > 0:
            assert all(n > 0 for n in merged.total_counts)


class TestGridHistogram:
    def test_numpy_integer_condition_counts_become_ints(self):
        from regionrules import grid_ratios

        hist = GridHistogram(
            edges=(0.0, 1.0, 2.0), target_counts=(1, 3), total_counts=(4, 4),
            condition_total=np.int64(8), condition_target=np.int64(4),
        )
        assert type(hist.condition_total) is type(hist.condition_target) is int
        ratios = grid_ratios(hist)
        assert hash(tuple(ratios)) == hash((Fraction(1, 2), Fraction(3, 2)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            make_hist([(-1, 0), (1, 2)])

    @pytest.mark.parametrize(
        "edges, target_counts, message",
        [
            ((0.0, 1.0), (1, 1), "one more entry than counts"),
            ((0.0, 1.0, 2.0), (1,), "target and total counts must align"),
            ((0.0, 1.0, 1.0), (1, 1), "strictly ascending"),
        ],
    )
    def test_malformed_shapes_rejected(self, edges, target_counts, message):
        with pytest.raises(ConfigError, match=message):
            GridHistogram(edges=edges, target_counts=target_counts, total_counts=(2, 2),
                          condition_total=4, condition_target=2)

    def test_merge_without_change_returns_the_histogram(self, grid_hist):
        assert merge_grids(grid_hist) is grid_hist
