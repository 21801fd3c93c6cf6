import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regionrules import FrequentItemset, fp_growth, pick_feature_set
from regionrules.errors import ConfigError, EmptyResultError
from regionrules.itemsets import mine_itemsets

from helpers import brute_force_itemsets, ref_fp_growth


def as_dict(itemsets):
    return {s.items: s.count for s in itemsets}


class TestFpGrowth:
    def test_worked_example(self):
        tx = [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}, {"b"}]
        result = fp_growth(tx, c_min=2, k_max=3)
        assert as_dict(result) == {
            frozenset("b"): 4,
            frozenset("a"): 2,
            frozenset("c"): 2,
            frozenset("ab"): 2,
            frozenset("bc"): 2,
        }
        # canonical order: size asc, count desc, lexicographic
        assert [(s.sorted_items(), s.count) for s in result] == [
            (("b",), 4),
            (("a",), 2),
            (("c",), 2),
            (("a", "b"), 2),
            (("b", "c"), 2),
        ]

    def test_empty_transactions(self):
        assert fp_growth([], 1, 3) == []

    def test_single_transaction(self):
        assert as_dict(fp_growth([{"a"}], 1, 2)) == {frozenset("a"): 1}

    def test_k_max_truncates_size(self):
        tx = [{"a", "b", "c"}] * 3
        assert max(len(s.items) for s in fp_growth(tx, 1, 2)) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            fp_growth([{"a"}], 0, 2)
        with pytest.raises(ConfigError):
            fp_growth([{"a"}], 1, 0)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n_items = int(rng.integers(1, 10))
            n_tx = int(rng.integers(1, 40))
            p = rng.uniform(0.2, 0.6)
            tx = [
                {i for i in range(n_items) if rng.random() < p} for _ in range(n_tx)
            ]
            tx = [t for t in tx if t]
            c_min = int(rng.integers(1, 5))
            k_max = int(rng.integers(2, 6))
            assert as_dict(fp_growth(tx, c_min, k_max)) == brute_force_itemsets(
                tx, c_min, k_max
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=6), max_size=24),
        st.integers(1, 4),
        st.integers(2, 5),
    )
    def test_downward_closure(self, tx, c_min, k_max):
        result = fp_growth(tx, c_min, k_max)
        returned = {s.items for s in result}
        counts = as_dict(result)
        for s in returned:
            for item in s:
                smaller = s - {item}
                if smaller:
                    assert smaller in returned
                    assert counts[smaller] >= counts[s]


class TestColumnMiner:
    """The column miner returns what the FP-tree returned, in the same order."""

    def test_equals_the_fp_tree_on_random_matrices(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n_rows, n_items = int(rng.integers(0, 60)), int(rng.integers(0, 9))
            hits = rng.random((n_rows, n_items)) < rng.uniform(0.1, 0.9)
            c_min = int(rng.integers(1, n_rows + 3))  # above the row count too
            k_max = int(rng.integers(1, n_items + 2))
            rows = [frozenset(np.flatnonzero(row).tolist()) for row in hits]
            assert mine_itemsets(hits, c_min, k_max) == ref_fp_growth(rows, c_min, k_max)

    def test_equals_the_fp_tree_on_random_string_transactions(self):
        rng = np.random.default_rng(31)
        names = ["b", "a", "x1", "x10", "x2", "ab", "Z", ""]
        for _ in range(300):
            n_items = int(rng.integers(1, len(names) + 1))
            p = rng.uniform(0.1, 0.9)
            tx = [
                {names[i] for i in range(n_items) if rng.random() < p}  # may be empty
                for _ in range(int(rng.integers(0, 50)))
            ]
            c_min = int(rng.integers(1, len(tx) + 3))
            k_max = int(rng.integers(1, n_items + 2))
            assert fp_growth(tx, c_min, k_max) == ref_fp_growth(tx, c_min, k_max)

    def test_k_max_one_gives_the_frequent_items(self):
        hits = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
        assert mine_itemsets(hits, 2, 1) == [
            FrequentItemset(frozenset({0}), 3),
            FrequentItemset(frozenset({1}), 2),
        ]

    def test_c_min_above_the_row_count_finds_nothing(self):
        assert mine_itemsets(np.ones((4, 3), dtype=bool), 5, 3) == []
        assert fp_growth([{"a"}, set(), {"a", "b"}], 4, 2) == []

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            mine_itemsets(np.ones((2, 2), dtype=bool), 0, 2)
        with pytest.raises(ConfigError):
            mine_itemsets(np.ones((2, 2), dtype=bool), 1, 0)


class TestPickFeatureSet:
    def test_longest_then_most_frequent_then_lexicographic(self):
        sets = [
            FrequentItemset(frozenset("a"), 3),
            FrequentItemset(frozenset("ab"), 2),
            FrequentItemset(frozenset("bc"), 2),
        ]
        assert pick_feature_set(sets) == frozenset("ab")

    def test_single_candidate(self):
        assert pick_feature_set([FrequentItemset(frozenset("a"), 5)]) == frozenset("a")

    def test_frequency_breaks_length_ties(self):
        sets = [
            FrequentItemset(frozenset("ab"), 2),
            FrequentItemset(frozenset("bc"), 5),
        ]
        assert pick_feature_set(sets) == frozenset("bc")

    def test_empty_input(self):
        with pytest.raises(EmptyResultError):
            pick_feature_set([])
