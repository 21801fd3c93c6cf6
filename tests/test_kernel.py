"""The sorted, row-compacted numeric kernel against the mask-based reference.

Every count of the search is taken from the ascending present values of a
node's rows; ``helpers`` keeps the earlier full-table mask kernel, and these
tests check that both agree on random tables, with missing cells and with
coarse values that sit exactly on grid edges.
"""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from regionrules import (
    DataTable,
    ExtractionConfig,
    FeatureColumn,
    get_candidate_rules,
    grid_counts,
    make_grids,
    merge_grids,
)
from regionrules.binning import MAX_GRIDS
from regionrules.errors import ConfigError, DegenerateFeatureError, NoTargetError
from regionrules.extraction import (
    find_peaks,
    gen_feature_interval,
    grid_ratios,
    numeric_histogram,
)

from helpers import (
    random_config,
    random_table,
    ref_grid_counts,
    ref_make_grids,
    ref_screen_interval,
)

SEEDS = range(60)
STRATEGIES = ("uniform", "quantile", "kmeans")


def numeric_cases(seed):
    """(values, flags, condition, config) per numeric column of a random table,
    as drawn and coarsened to multiples of 0.5, with about 10% blanked cells."""
    rng = np.random.default_rng(seed)
    table, target = random_table(rng)
    config = random_config(rng, table)
    for col in table.columns:
        if col.kind != "numeric":
            continue
        for vals in (col.values, np.round(col.values * 2) / 2):
            vals = vals.copy()
            vals[rng.random(len(vals)) < 0.1] = np.nan
            cond = rng.random(len(vals)) < rng.uniform(0.2, 1.0)
            yield vals, target.flags, cond, config


def edges_or_error(build, *args):
    try:
        return build(*args)
    except DegenerateFeatureError as exc:
        return str(exc)


def ref_candidates(vals, flags, cond, config):
    """Merged histogram and screened (lo, hi, support, tp) by full-table masks."""
    edges = ref_make_grids(vals[cond], config.n_grids, config.strategy, config.seed)
    hist = merge_grids(ref_grid_counts(edges, vals, flags, cond))
    out = set()
    for p in find_peaks(grid_ratios(hist)):
        grown = gen_feature_interval(hist, p, config.min_support)
        if grown is None:
            continue
        lo, hi = hist.edges[grown.lo_grid], hist.edges[grown.hi_grid + 1]
        n, tp = ref_screen_interval(vals, flags, cond, lo, hi)
        ratio = Fraction(tp * hist.condition_total, n * hist.condition_target) if n else 0
        if n >= config.min_support and ratio > 1:
            out.add((lo, hi, n, tp))
    return hist, out


@pytest.mark.parametrize("seed", SEEDS)
def test_make_grids_matches_the_unique_based_reference(seed):
    for vals, _, cond, config in numeric_cases(seed):
        for strategy in STRATEGIES:
            args = (vals[cond], config.n_grids, strategy, config.seed)
            got, want = edges_or_error(make_grids, *args), edges_or_error(ref_make_grids, *args)
            if isinstance(want, str):
                assert got == want  # same degenerate-feature message
            else:
                # equal values; a zero bound may differ in sign only
                assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_counts_match_the_bincount_reference(seed):
    for vals, flags, cond, config in numeric_cases(seed):
        grids = [np.arange(-3.0, 3.5, 0.5)]  # every coarse value sits on an edge
        for strategy in STRATEGIES:
            edges = edges_or_error(ref_make_grids, vals[cond], config.n_grids, strategy)
            if not isinstance(edges, str):
                grids.append(edges)
        for edges in grids:
            assert grid_counts(edges, vals, flags, cond) == ref_grid_counts(
                edges, vals, flags, cond
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_node_histogram_and_screening_match_the_mask_kernel(seed):
    for vals, flags, cond, config in numeric_cases(seed):
        table = DataTable((FeatureColumn("x", "numeric", vals),))
        rows = np.flatnonzero(cond)
        if not len(rows):
            continue
        for strategy in STRATEGIES:
            cfg = replace(config, strategy=strategy, max_branches=MAX_GRIDS)
            try:
                want_hist, want = ref_candidates(vals, flags, cond, cfg)
            except (DegenerateFeatureError, NoTargetError) as exc:
                with pytest.raises(type(exc)):
                    get_candidate_rules(table, flags, 0, rows, cfg)
                continue
            assert numeric_histogram(table.column(0), flags, rows, cfg, 0)[0] == want_hist
            got = get_candidate_rules(table, flags, 0, rows, cfg)
            assert {
                (c.rule.predicate.lo, c.rule.predicate.hi, c.support, c.tp) for c in got
            } == want
            # a boolean mask and the row indices it selects are the same condition
            assert get_candidate_rules(table, flags, 0, cond, cfg) == got


def test_n_grids_above_the_maximum_is_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="n_grids must be <= 1000"):
            ExtractionConfig(min_support=1, max_rules=1, n_grids=10**9)
        with pytest.raises(ConfigError, match="n_g must be <= 1000"):
            make_grids(np.array([0.0, 1.0]), 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert MAX_GRIDS == 1000
    ExtractionConfig(min_support=1, max_rules=1, n_grids=MAX_GRIDS)
    assert len(make_grids(np.linspace(0.0, 1.0, 5000), MAX_GRIDS)) == MAX_GRIDS + 1
