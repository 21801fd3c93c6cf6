"""The cached categorical encoding against per-row references."""

from fractions import Fraction

import numpy as np
import pytest

from regionrules import (
    CategoryEquals,
    DataTable,
    ExtractionConfig,
    FeatureColumn,
    Rule,
    build_rule_tree,
    get_candidate_rules,
    rule_mask,
)
from regionrules.cli import _root_histograms
from regionrules.errors import SchemaError

from helpers import per_row_equals, random_table

SEEDS = range(40)


def with_missing(table: DataTable, rng: np.random.Generator) -> DataTable:
    """Blank about 10% of the cells of every categorical column."""
    cols = []
    for c in table.columns:
        if c.kind == "categorical":
            vals = c.values.copy()
            vals[rng.random(len(vals)) < 0.1] = None
            c = FeatureColumn(c.name, c.kind, vals)
        cols.append(c)
    return DataTable(tuple(cols))


def categorical_features(table):
    return [f for f, c in enumerate(table.columns) if c.kind == "categorical"]


def test_encoding_is_sorted_vocabulary_with_missing_as_minus_one():
    col = FeatureColumn("g", "categorical", np.array(["b", None, "a", "b"], dtype=object))
    assert col.vocabulary == ["a", "b"]
    assert col.codes.dtype == np.int32
    assert col.codes.tolist() == [1, -1, 0, 1]
    assert col.codes is col.codes  # computed once, then cached
    assert col.missing_mask().tolist() == [False, True, False, False]


def test_numeric_column_has_no_codes():
    with pytest.raises(SchemaError):
        FeatureColumn("x", "numeric", np.array([1.0, 2.0])).codes


@pytest.mark.parametrize("seed", SEEDS)
def test_rule_mask_matches_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    table, _ = random_table(rng)
    table = with_missing(table, rng)
    for f in categorical_features(table):
        col = table.column(f)
        for tok in col.vocabulary + ["zz", 1, 0.5]:
            got = rule_mask(table, Rule(f, CategoryEquals(tok)))
            assert got.tolist() == per_row_equals(col, tok).tolist()


def test_tokens_outside_the_vocabulary_select_no_rows():
    table = DataTable(
        (FeatureColumn("g", "categorical", np.array(["a", None, None], dtype=object)),)
    )
    for tok in (None, ["a"], {"a": 1}, "b"):
        assert not rule_mask(table, Rule(0, CategoryEquals(tok))).any()


@pytest.mark.parametrize("seed", SEEDS)
def test_root_histogram_ratios_are_exact_ratios_rounded_once(seed):
    rng = np.random.default_rng(seed)
    table, target = random_table(rng)
    table = with_missing(table, rng)
    feats = categorical_features(table)
    if not feats:
        return  # the search rejects an empty feature set
    root = build_rule_tree(table, target, feats, ExtractionConfig(min_support=1, max_rules=1))
    N, T = table.n_rows, target.count
    for entry, f in zip(_root_histograms(table, feats, root), feats):
        col = table.column(f)
        assert entry["categories"] == sorted({v for v in col.values if v is not None})
        for tok, t, n, r in zip(
            entry["categories"], entry["target_counts"], entry["total_counts"], entry["ratios"]
        ):
            ref = per_row_equals(col, tok)
            assert n == int(ref.sum())
            assert t == int((ref & target.flags).sum())
            assert r == float(Fraction(t * N, n * T))


@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_counts_match_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    table, target = random_table(rng)
    table = with_missing(table, rng)
    cond = rng.random(table.n_rows) < 0.7
    config = ExtractionConfig(min_support=1, max_rules=1, max_branches=10)
    for f in categorical_features(table):
        if not (cond & target.flags).any():
            continue
        col = table.column(f)
        cands = get_candidate_rules(table, target, f, cond, config)
        cn, ct = int(cond.sum()), int((cond & target.flags).sum())
        for cand in cands:
            pm = cond & per_row_equals(col, cand.rule.predicate.token)
            assert cand.support == int(pm.sum())
            assert cand.tp == int((pm & target.flags).sum())
            assert cand.ratio == Fraction(cand.tp * cn, cand.support * ct)
        # kept: every category with a row and a ratio above 1, and no other
        kept = set()
        for tok in col.vocabulary:
            pm = cond & per_row_equals(col, tok)
            n, t = int(pm.sum()), int((pm & target.flags).sum())
            if n and Fraction(t * cn, n * ct) > 1:
                kept.add(tok)
        assert {c.rule.predicate.token for c in cands} == kept
