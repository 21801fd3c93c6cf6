"""The row-compacted numeric kernel against the mask-based reference.

Every count of the search is taken from the present values of a node's rows,
sorted or in row order; ``helpers`` keeps the earlier full-table mask kernel,
and these tests check that both agree on random tables, with missing cells
and with coarse values that sit exactly on grid edges.
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
    GridHistogram,
    get_candidate_rules,
    grid_counts,
    make_grids,
    merge_grids,
)
from regionrules import binning
from regionrules.binning import MAX_GRIDS, _sorts_to_count, grid_edges
from regionrules.errors import ConfigError, DegenerateFeatureError, DomainError, NoTargetError
from regionrules.extraction import find_peaks, gen_feature_interval, grid_ratios

from helpers import (
    column_histogram,
    random_config,
    random_table,
    range_ratio,
    range_support,
    ref_find_peaks,
    ref_gen_feature_interval,
    ref_grid_counts,
    ref_kmeans_1d,
    ref_make_grids,
    ref_merge_grids,
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
    """Merged histogram and screened (lo, hi, support, tp) by full-table masks
    and the Fraction-based merge, peaks and growth."""
    edges = ref_make_grids(vals[cond], config.n_grids, config.strategy, config.seed)
    hist = ref_merge_grids(ref_grid_counts(edges, vals, flags, cond))
    out = set()
    for p in ref_find_peaks(grid_ratios(hist)):
        grown = ref_gen_feature_interval(hist, p, config.min_support)
        if grown is None:
            continue
        lo, hi = hist.edges[grown.lo_grid], hist.edges[grown.hi_grid + 1]
        n, tp = ref_screen_interval(vals, flags, cond, lo, hi)
        ratio = Fraction(tp * hist.condition_total, n * hist.condition_target) if n else 0
        if n >= config.min_support and ratio > 1:
            out.add((lo, hi, n, tp))
    return hist, out


def random_histogram(rng):
    """1-12 grids mixing empty, zero-target and all-target grids with repeated
    shares and supports, under a condition that may hold no target row."""
    pairs = []
    for _ in range(int(rng.integers(1, 13))):
        kind = int(rng.integers(6))
        n = int(rng.integers(1, 9))
        if kind == 0:
            pairs.append((0, 0))
        elif kind == 1:
            pairs.append((0, n))
        elif kind == 2:
            pairs.append((n, n))
        elif kind == 3 and pairs:  # an earlier grid's share, scaled
            t, m = pairs[rng.integers(len(pairs))]
            k = int(rng.integers(1, 4))
            pairs.append((t * k, m * k))
        elif kind == 4 and pairs:  # an earlier grid's support
            m = pairs[rng.integers(len(pairs))][1]
            pairs.append((int(rng.integers(m + 1)), m))
        else:
            pairs.append((int(rng.integers(n + 1)), n))
    tc, nc = zip(*pairs)
    # rows missing the feature still count in the condition
    ct = sum(tc) + int(rng.integers(3)) if rng.random() > 0.1 else 0
    cn = sum(nc) + int(rng.integers(4)) if rng.random() > 0.05 else 0
    return GridHistogram(
        edges=tuple(float(i) for i in range(len(pairs) + 1)),
        target_counts=tc,
        total_counts=nc,
        condition_total=cn,
        condition_target=ct,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, NoTargetError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_integer_merge_and_growth_match_the_fraction_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        hist = random_histogram(rng)
        merged = merge_grids(hist)
        assert merged == ref_merge_grids(hist)
        total = sum(hist.total_counts)
        supports = {0, 1, total - 1, total, total + 1, int(rng.integers(total + 2))}
        for h in (hist, merged):
            for start in range(-1, h.n_grids + 1):
                for min_support in supports:
                    got = outcome(gen_feature_interval, h, start, min_support)
                    assert got == outcome(ref_gen_feature_interval, h, start, min_support)
                    if got is not None and not isinstance(got, tuple):
                        assert range_ratio(h, got) > 1
                        assert range_support(h, got) >= min_support


@pytest.mark.parametrize("seed", range(4))
def test_integer_peaks_match_the_fraction_reference(seed):
    """Peaks on counts equal the Fraction peak finder on :func:`grid_ratios`,
    the same error included, before and after merging."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        hist = random_histogram(rng)
        for h in (hist, merge_grids(hist)):
            assert outcome(find_peaks, h) == outcome(lambda: ref_find_peaks(grid_ratios(h)))


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
            hist = column_histogram(table.column(0), rows[flags[rows]], rows, cfg)[0]
            assert hist == want_hist
            # plain ints: numpy integers cannot hash the exact ratios built on them
            assert type(hist.condition_total) is type(hist.condition_target) is int
            got = get_candidate_rules(table, flags, 0, rows, cfg)
            assert {
                (c.rule.predicate.lo, c.rule.predicate.hi, c.support, c.tp) for c in got
            } == want
            # a boolean mask and the row indices it selects are the same condition
            assert get_candidate_rules(table, flags, 0, cond, cfg) == got


def edge_column(kind, m, rng):
    """``m`` present values of one kind, in row order: integers (on uniform
    edges), integers with NaN cells between them, a range with both signed
    zeros at its low or high end, or a range of two ulps."""
    if kind == "tiny range":  # linspace repeats edges that np.unique collapses
        return 1.0 + rng.integers(0, 3, m) * np.spacing(1.0)
    if kind.startswith("signed zero"):
        vals = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.0], m)
        vals[rng.permutation(m)[:2]] = (-0.0, 0.0)
        return -vals if kind.endswith("high") else vals
    vals = rng.integers(-5, 6, m).astype(float)
    if kind == "nan":
        vals = np.insert(vals, rng.integers(0, m + 1, m // 10), np.nan)
    return vals


def same_values(a, b):
    """Whether ``a`` and ``b`` hold the same values in any order, bit for bit
    (so ``-0.0`` and ``0.0`` differ)."""
    return np.array_equal(np.sort(a.view(np.uint64)), np.sort(b.view(np.uint64)))


def sort_rule(n_grids, m):
    """The sort-or-count rule, restated: sort when (n_grids - 1) passes of
    m + 8192 cost more than 2 m log2(m)."""
    return (n_grids - 1) * (m + 8192) > 2 * m * np.log2(m)


# (n_grids, m, counting block size or None for the module's); the original
# cases keep their ids. 4,775 and 1,377 are the first counted sizes at 10 and
# 4 grids; a 64-value block splits a node into many blocks and a partial one.
PATH_CASES = [
    *(pytest.param(g, m, None, id=f"{g}-{m}") for g, m in [
        (10, 511), (10, 512), (10, 2000), (4, 7), (4, 8), (40, 2000),
        (10, 4774), (10, 4775), (4, 1376), (4, 1377),
    ]),
    *(pytest.param(g, m, 64, id=f"{g}-{m}-block 64") for g, m in [(10, 4775), (5, 2001)]),
]


@pytest.mark.parametrize("strategy", ("uniform", "quantile"))
@pytest.mark.parametrize(
    "kind", ("integers", "nan", "signed zero low", "signed zero high", "tiny range")
)
@pytest.mark.parametrize("n_grids, m, block", PATH_CASES)
@pytest.mark.parametrize("subset", (False, True), ids=("all rows", "subset"))
def test_counting_and_sorting_paths_agree(strategy, kind, n_grids, m, block, subset, monkeypatch):
    """Either side of the rule (:func:`sort_rule`), and across the seams of
    small counting blocks, a node's histogram, on-edge counts and screened
    candidates equal the sort-based grid counts, the ``==`` counts and the
    mask-based screen, and the column keeps its order."""
    if block is not None:
        monkeypatch.setattr(binning, "_COUNT_BLOCK", block)
    counted = []  # (counter, values) per call, target values first

    def spy(name):
        counter = getattr(binning, name)

        def spied(edges, a):
            counted.append((name, a.copy()))
            return counter(edges, a)

        monkeypatch.setattr(binning, name, spied)

    spy("_sorted_counts")
    spy("_blocked_counts")
    rng = np.random.default_rng([n_grids, m, len(kind), subset])
    vals = edge_column(kind, m, rng)
    if subset:  # rows outside the node sit between the node's rows
        rows = np.sort(rng.choice(2 * len(vals), len(vals), replace=False))
        col = rng.uniform(-9.0, 9.0, 2 * len(vals))
        col[rows] = vals
    else:
        rows, col = np.arange(len(vals)), vals
    cond = np.zeros(len(col), dtype=bool)
    cond[rows] = True
    hot = np.sort(vals[~np.isnan(vals)])[m // 3]  # the target's value, mostly
    flags = rng.random(len(col)) < np.where(col == hot, 0.9, 0.15)
    cfg = ExtractionConfig(
        min_support=2, max_rules=1, n_grids=n_grids, max_branches=MAX_GRIDS, strategy=strategy
    )
    table = DataTable((FeatureColumn("x", "numeric", col),))
    before = col.copy()
    node_rows = rows if subset else None

    hist, on_edge = column_histogram(table.column(0), rows[flags[rows]], node_rows, cfg)
    present = col[cond & ~np.isnan(col)]
    present_target = col[cond & ~np.isnan(col) & flags]
    ((counter, st), (same, s)) = counted
    assert counter == same and len(s) == m and len(st) == len(present_target)
    if sort_rule(n_grids, m):
        assert block is None and counter == "_sorted_counts"
        assert np.array_equal(s, np.sort(present))
        assert np.array_equal(st, np.sort(present_target))
    else:  # counted as given, signed zeros too; quantile edges reorder ``s``
        assert counter == "_blocked_counts"
        if strategy == "uniform":
            assert s.tobytes() == present.tobytes()
        else:
            assert same_values(s, present)
        assert st.tobytes() == present_target.tobytes()
    assert col.tobytes() == before.tobytes()
    edges = make_grids(present, n_grids, strategy)
    want = merge_grids(grid_counts(edges, col, flags, cond))
    assert hist == want
    assert np.asarray(hist.edges).tobytes() == np.asarray(want.edges).tobytes()
    for e in edges:
        want_on_edge = (np.count_nonzero(present == e), np.count_nonzero(present_target == e))
        assert on_edge(e) == want_on_edge
    if block is not None:
        assert len(s) > 20 * block and len(s) % block and len(st) > block
        if kind == "integers" and strategy == "uniform":  # on interior edges at seams
            assert np.isin(s[block - 1 :: block], edges[1:-1]).any()
            assert np.isin(s[block::block], edges[1:-1]).any()

    got = get_candidate_rules(table, flags, 0, node_rows, cfg)
    assert got or m < 10
    assert col.tobytes() == before.tobytes()
    for c in got:
        lo, hi = c.rule.predicate.lo, c.rule.predicate.hi
        assert (c.support, c.tp) == ref_screen_interval(col, flags, cond, lo, hi)
    want_set = ref_candidates(col, flags, cond, cfg)[1]
    assert {(c.rule.predicate.lo, c.rule.predicate.hi, c.support, c.tp) for c in got} == want_set
    if kind == "integers" and strategy == "uniform" and n_grids <= 10 and m >= 512:
        # integer edges: some candidate's top edge is interior and holds rows,
        # which its support above counted
        tops = [c.rule.predicate.hi for c in got if c.rule.predicate.hi < hist.edges[-1]]
        assert any(np.count_nonzero(present == hi) for hi in tops)


# (n_grids, m) -> whether a sort was the faster side, timed per histogram at
# 10% target values (the table is in CHANGES.md)
MEASURED_FASTER_SORT = {
    (4, 1024): True, (4, 2048): False, (4, 4096): False,
    (10, 2048): True, (10, 4096): True, (10, 8192): False, (10, 16384): False,
    (20, 8192): True, (20, 16384): True, (20, 32768): False,
}


@pytest.mark.parametrize("n_grids, m", sorted(MEASURED_FASTER_SORT))
def test_the_sort_rule_takes_the_measured_faster_side(n_grids, m):
    sorts = MEASURED_FASTER_SORT[n_grids, m]
    for strategy in ("uniform", "quantile"):
        assert _sorts_to_count(n_grids, strategy, m) is sorts
        assert sort_rule(n_grids, m) == sorts
    assert _sorts_to_count(n_grids, "kmeans", m) and _sorts_to_count(n_grids, "kmeans", 10**9)


def test_the_sort_rule_crosses_over_once():
    counted = [m for m in range(40_000) if not _sorts_to_count(10, "uniform", m)]
    assert counted == list(range(4775, 40_000))


def test_counting_scratch_is_one_block():
    """Counting a 1M-value column, and its rows on one interior edge,
    allocates one block of bool scratch, not a mask as long as the column."""
    rng = np.random.default_rng(5)
    vals = rng.uniform(size=1_000_000)
    target_rows = np.flatnonzero(rng.random(len(vals)) < 0.1)
    edges = np.linspace(vals.min(), vals.max(), 11)
    vals[:1000] = edges[5]  # rows on the edge, a few of them target rows
    st = vals[target_rows]
    _, on_edge = binning.node_histogram(vals, None, target_rows, False, 10, "uniform", 0)
    tracemalloc.start()
    try:
        counts = binning._blocked_counts(edges, vals), binning._blocked_counts(edges, st)
        on = on_edge(edges[5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * binning._COUNT_BLOCK
    flags = np.zeros(len(vals), dtype=bool)
    flags[target_rows] = True
    want = grid_counts(edges, vals, flags, np.ones(len(vals), dtype=bool))
    assert counts == (list(want.total_counts), list(want.target_counts))
    assert on == (np.count_nonzero(vals == edges[5]), np.count_nonzero(st == edges[5])) and on[1]


@pytest.mark.parametrize("strategy", ("uniform", "quantile"))
def test_a_counted_node_holds_its_values_once(strategy):
    """Below the root, a counted node's gathered values are its only copy:
    ``quantile`` edges select in place rather than on a second copy."""
    rng = np.random.default_rng(6)
    vals = rng.normal(size=1_000_000)
    rows = np.sort(rng.choice(len(vals), 100_000, replace=False))
    target_rows = rows[rng.random(len(rows)) < 0.1]
    before = vals.copy()
    binning.node_histogram(np.arange(100.0), None, [0], False, 10, strategy, 0)  # first-use costs
    tracemalloc.start()
    try:
        hist, _ = binning.node_histogram(vals, rows, target_rows, False, 10, strategy, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not _sorts_to_count(10, strategy, len(rows))
    assert peak < 12 * len(rows)  # the gathered values alone are 8 bytes per row
    cond = np.zeros(len(vals), dtype=bool)
    cond[rows] = True
    flags = np.zeros(len(vals), dtype=bool)
    flags[target_rows] = True
    want = grid_counts(make_grids(vals[rows], 10, strategy), vals, flags, cond)
    assert hist == merge_grids(want)
    assert vals.tobytes() == before.tobytes()


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


def ref_kmeans_edges(vals, n_g, seed):
    """kmeans edges as built before the scalar kernel: ``ref_kmeans_1d`` over
    the distinct count, with the range taken from min and max."""
    centers = ref_kmeans_1d(vals, min(n_g, len(np.unique(vals))), seed)
    inner = (centers[:-1] + centers[1:]) / 2.0
    return np.unique(np.concatenate(([vals.min()], inner, [vals.max()])))


def lloyd_moves(vals, edges):
    """Whether one more Lloyd step, in the reference's arithmetic, moves the
    centers whose midpoints are the inner ``edges``."""
    vs = np.sort(vals)
    prefix = np.concatenate(([0.0], np.cumsum(vs)))
    bounds = np.concatenate(([0], np.searchsorted(vs, edges[1:-1], side="right"), [len(vs)]))
    counts = np.diff(bounds)
    sums = prefix[bounds[1:]] - prefix[bounds[:-1]]
    centers = np.unique(sums[counts > 0] / counts[counts > 0])
    return not np.array_equal((centers[:-1] + centers[1:]) / 2.0, edges[1:-1])


def kmeans_cases():
    """(name, values, grid counts) covering the corners of the k-means kernel."""
    rng = np.random.default_rng(11)
    yield "signed zeros", rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], 500), (2, 3, 6)
    yield "only zeros and one", np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0]), (2, 3)
    yield "on a midpoint", np.repeat(np.arange(20.0), 3)[rng.permutation(60)], (3, 5, 10)
    skewed = rng.choice([0.0, 1.0, 5.0], 10_000, p=[0.98, 0.015, 0.005])
    yield "heavy duplicates", skewed, (2, 4, 10)
    yield "k == distinct", rng.permutation(np.arange(10.0)), (10,)
    yield "k > distinct", rng.choice([1.5, 2.0, 7.0], 300), (10,)
    yield "iteration cap", np.random.default_rng(1).normal(size=3000) + 1e12, (20,)
    for n in (2, 3, 17, 100, 1_000, 10_000, 100_000):
        yield f"normal n={n}", rng.normal(size=n), (2, 10)
    yield "coarse n=5000", np.round(rng.normal(size=5000) * 2) / 2, (4, 10)
    yield "wide scale", rng.normal(size=400) * 1e150, (5,)
    yield "tiny scale", rng.normal(size=400) * 1e-300, (5,)


KMEANS_CASES = list(kmeans_cases())


@pytest.mark.parametrize("name, vals, n_gs", KMEANS_CASES, ids=[c[0] for c in KMEANS_CASES])
def test_kmeans_edges_are_byte_identical_to_the_choice_based_reference(name, vals, n_gs):
    ties = 0
    for n_g in n_gs:
        for seed in (0, 1, 7):
            want = ref_kmeans_edges(vals, n_g, seed)
            assert make_grids(vals, n_g, "kmeans", seed).tobytes() == want.tobytes()
            ties += np.isin(want[1:-1], vals).sum()
    if name == "on a midpoint":
        assert ties  # values the left cluster keeps
    if name == "iteration cap":
        assert lloyd_moves(vals, make_grids(vals, n_gs[0], "kmeans", 0))


def certified_draw_cases():
    """(name, values, grid counts) around the block sums of the seeding draw."""
    rng = np.random.default_rng(29)
    for n in (2, 3, 2047, 2048, 2049, 4097, 200_000):
        yield f"normal n={n}", rng.normal(size=n), (2, 10)
    yield "heavy duplicates", rng.choice([0.0, 1.0, 5.0], 20_000, p=[0.98, 0.015, 0.005]), (3, 8)
    mostly_zero = np.zeros(9000)
    mostly_zero[rng.choice(9000, 12, replace=False)] = rng.random(12)
    yield "mostly zeros", mostly_zero, (4, 11)
    yield "1e-300 scale", rng.normal(size=5000) * 1e-300, (5,)
    yield "subnormal squares", rng.normal(size=5000) * 1e-160, (5,)
    # squared distances whose block sums reach 2**1000 without overflowing
    yield "whole above 2**1000", rng.normal(size=5000) * 1e151, (3, 6)
    yield "cauchy x 1e100", rng.standard_cauchy(4097) * 1e100, (6,)


CERTIFIED_CASES = list(certified_draw_cases())


@pytest.fixture(params=["located", "replayed"])
def seeding(request, monkeypatch):
    """Count draws and full replays of choice; the ``replayed`` run sets the
    margin so wide that no located draw is accepted."""
    counts = {"draws": 0, "replays": 0}
    seed_index, replayed_choice = binning._seed_index, binning._replayed_choice

    def counted_draw(*args):
        counts["draws"] += 1
        return seed_index(*args)

    def counted_replay(*args):
        counts["replays"] += 1
        return replayed_choice(*args)

    monkeypatch.setattr(binning, "_seed_index", counted_draw)
    monkeypatch.setattr(binning, "_replayed_choice", counted_replay)
    if request.param == "replayed":
        monkeypatch.setattr(binning, "_MARGIN_PER_VALUE", 1.0)
    return request.param, counts


@pytest.mark.parametrize(
    "name, vals, n_gs", CERTIFIED_CASES, ids=[c[0] for c in CERTIFIED_CASES]
)
def test_certified_draw_gives_the_choice_based_edges(name, vals, n_gs, seeding):
    mode, counts = seeding
    for n_g in n_gs:
        for seed in (0, 3):
            want = ref_kmeans_edges(vals, n_g, seed)
            assert make_grids(vals, n_g, "kmeans", seed).tobytes() == want.tobytes()
    if mode == "replayed":
        assert counts["replays"] == counts["draws"]
    if name == "whole above 2**1000":
        assert counts["draws"] and counts["replays"] == counts["draws"]


@pytest.mark.parametrize(
    "vals",
    [np.array([0.0, 1e200, -1e200]), np.array([-1.7e308, 0.0, 1.7e308] * 1500)],
    ids=["three values", "two blocks"],
)
def test_certified_draw_keeps_the_overflow_error(vals, seeding):
    with pytest.raises(DomainError, match="overflow"):
        make_grids(vals, 4, "kmeans", 0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.square(vals - vals[0]).sum())


@pytest.mark.parametrize("seeding", ["located"], indirect=True)
def test_uniform_values_take_the_located_draw_every_time(seeding):
    _, counts = seeding
    make_grids(np.random.default_rng(0).random(200_000), 10, "kmeans", 0)
    assert counts == {"draws": 9, "replays": 0}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grid_edges_reorder_only_quantile_and_kmeans_values(strategy):
    vals = np.random.default_rng(3).normal(size=1000)
    mine = vals.copy()
    edges = grid_edges(mine, 10, strategy, 0)
    assert edges.tobytes() == make_grids(vals, 10, strategy, 0).tobytes()
    # uniform edges need no order; quantile edges select in place, and Lloyd
    # runs on the sorted values
    if strategy == "quantile":
        assert same_values(mine, vals)
    else:
        want = np.sort(vals) if strategy == "kmeans" else vals
        assert mine.tobytes() == want.tobytes()
