"""The root of the search reads whole columns, and a node selects its rows
only when it is expanded.

The root passes ``None`` (every row) where it once built ``np.arange``; these
tests check that the whole-column path gives what the index path gives, that
no column is sorted in place, that leaves build no rows, and that a search's
peak memory no longer holds a per-row index array at the root.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from regionrules import DataTable, ExtractionConfig, FeatureColumn, extraction, make_grids
from regionrules.cli import _root_histograms
from regionrules.errors import DegenerateFeatureError, NoTargetError
from regionrules.extraction import build_rule_tree, count_ratios

from helpers import column_histogram, random_config, random_table

SEEDS = range(40)
STRATEGIES = ("uniform", "quantile", "kmeans")


def with_nans(rng, table):
    """The table with about 10% of every numeric column blanked."""
    cols = []
    for col in table.columns:
        vals = col.values
        if col.kind == "numeric":
            vals = vals.copy()
            vals[rng.random(len(vals)) < 0.1] = np.nan
        cols.append(FeatureColumn(col.name, col.kind, vals))
    return DataTable(tuple(cols))


def cases():
    """(table, target, config) per seed, as drawn and with blanked cells,
    under every binning strategy."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        table, target = random_table(rng)
        config = random_config(rng, table)
        for t in (table, with_nans(rng, table)):
            for strategy in STRATEGIES:
                yield t, target, replace(config, strategy=strategy)


def histogram_or_error(col, hit, rows, config):
    try:
        return column_histogram(col, hit, rows, config)
    except DegenerateFeatureError as exc:
        return str(exc)


def ref_root_histograms(table, target, feature_indices, config):
    """The ``extract`` histograms rebuilt on explicit row indices, as they
    were built before the root read whole columns and before ``extract``
    printed the search root's own histograms."""
    rows = np.arange(table.n_rows)
    hit = rows[target.flags]
    out = []
    for f in feature_indices:
        col = table.column(f)
        entry = {"feature": col.name}
        try:
            if col.kind == "numeric":
                hist = column_histogram(col, hit, rows, config)[0]
                tc, nc = list(hist.target_counts), list(hist.total_counts)
                entry["edges"] = [float(e) for e in hist.edges]
            else:
                tc, nc = col.category_counts(hit), col.category_counts(rows)
                entry["categories"] = col.vocabulary
            ratios = count_ratios(tc, nc, table.n_rows, target.count)
            entry.update(target_counts=tc, total_counts=nc, ratios=list(map(float, ratios)))
        except DegenerateFeatureError as exc:
            entry["skipped"] = str(exc)
        out.append(entry)
    return out


def test_whole_columns_match_the_index_path():
    for table, target, config in cases():
        rows = np.arange(table.n_rows)
        hit = np.flatnonzero(target.flags)
        for col in table.columns:
            if col.kind == "numeric":
                got = histogram_or_error(col, hit, None, config)
                want = histogram_or_error(col, hit, rows, config)
                if isinstance(want, str):
                    assert got == want
                    continue
                assert got[0] == want[0]
                edges = make_grids(col.values, config.n_grids, config.strategy, config.seed)
                assert [got[1](e) for e in edges] == [want[1](e) for e in edges]
            else:
                assert col.category_counts() == col.category_counts(rows)
        features = range(len(table.columns))
        root = build_rule_tree(table, target, features, config)
        assert _root_histograms(table, features, root) == ref_root_histograms(
            table, target, features, config
        )


def test_a_search_leaves_every_column_unchanged():
    for table, target, config in cases():
        before = [c.values.copy() for c in table.columns]
        try:
            extraction.extract_rule_sets(table, target, range(len(table.columns)), config)
        except NoTargetError:
            pass
        for col, old in zip(table.columns, before):
            if col.kind == "numeric":
                assert col.values.tobytes() == old.tobytes()
            else:
                assert col.values.tolist() == old.tolist()


def planted_table(n, seed=0):
    """``n`` rows of 3 uniform features; about 6% target rows, most inside
    a square of the first two features."""
    rng = np.random.default_rng(seed)
    x = rng.random((3, n))
    inside = (x[0] >= 0.3) & (x[0] <= 0.4) & (x[1] >= 0.6) & (x[1] <= 0.7)
    flags = rng.random(n) < np.where(inside, 0.9, 0.05)
    table = DataTable(tuple(FeatureColumn(f"x{j}", "numeric", x[j]) for j in range(3)))
    return table, flags


def tree_nodes(node):
    return 1 + sum(tree_nodes(c) for c in node.children)


@pytest.mark.parametrize("max_rules", [1, 2, 3])
def test_only_expanded_nodes_select_rows(monkeypatch, max_rules):
    calls = {"rule_mask": 0, "add_rules": 0}
    rule_mask, add_rules = extraction.rule_mask, extraction._add_rules

    def counted_mask(*args, **kwargs):
        calls["rule_mask"] += 1
        return rule_mask(*args, **kwargs)

    def counted_add(*args, **kwargs):
        calls["add_rules"] += 1
        return add_rules(*args, **kwargs)

    monkeypatch.setattr(extraction, "rule_mask", counted_mask)
    monkeypatch.setattr(extraction, "_add_rules", counted_add)
    table, flags = planted_table(5000)
    config = ExtractionConfig(min_support=50, max_rules=max_rules, n_grids=8)
    root = build_rule_tree(table, flags, range(3), config)
    # every node, leaves included, is visited once
    assert calls["add_rules"] == tree_nodes(root)
    # only nodes below the depth cap select their rows, one mask each
    depth_one = len(root.children)
    assert depth_one == config.max_branches
    expanded = {1: 0, 2: depth_one, 3: depth_one + sum(len(c.children) for c in root.children)}
    assert calls["rule_mask"] == expanded[max_rules]


@pytest.mark.parametrize("max_rules", [1, 2, 3])
def test_search_memory_holds_no_index_array_at_the_root(max_rules):
    n = 200_000
    config = ExtractionConfig(min_support=n // 100, max_rules=max_rules, n_grids=10)
    # a sorted copy of one column is 8 bytes per row; an index array is 8 more
    assert search_peak_per_row(n, config) < 12


def search_peak_per_row(n, config):
    """``tracemalloc`` peak per row of one search on the planted table."""
    table, flags = planted_table(n)
    small, small_flags = planted_table(500, seed=1)
    warm = replace(config, min_support=5)
    extraction.extract_rule_sets(small, small_flags, range(3), warm)  # first-use costs
    tracemalloc.start()
    try:
        assert extraction.extract_rule_sets(table, flags, range(3), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n


@pytest.mark.parametrize("max_rules", [1, 2, 3])
def test_uniform_search_memory_holds_no_column_copy(max_rules):
    # uniform edges are counted in place: a column copy alone is 8 bytes per
    # row, where the counts take a one-byte mask and the node's rows
    n = 200_000
    config = ExtractionConfig(
        min_support=n // 100, max_rules=max_rules, n_grids=10, strategy="uniform"
    )
    assert search_peak_per_row(n, config) < 5
