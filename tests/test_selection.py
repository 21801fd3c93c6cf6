"""The feature-selection pipeline and its closed-form threshold scan.

``scan_threshold`` finds its threshold from each feature's ``required``-th
largest score; ``helpers.ref_scan_threshold`` counts qualifying features at
every distinct score. Both must give the same float, or raise the same
exception type, on every matrix.
"""

from pathlib import Path

import numpy as np
import pytest

from regionrules import (
    ImportanceMatrix,
    fp_growth,
    load_importance_matrix,
    pick_feature_set,
    scan_threshold,
    select_frequent_features,
)
from regionrules.attribution import select_features
from regionrules.errors import ConfigError, RegionRulesError

from helpers import hit_transactions, ref_fp_growth, ref_scan_threshold

FIXTURES = Path(__file__).parent / "fixtures"


def outcome(scan, matrix, gamma):
    try:
        return scan(matrix, gamma)
    except RegionRulesError as exc:
        return type(exc)


def random_matrix(rng):
    scores = rng.random((int(rng.integers(1, 30)), int(rng.integers(1, 6))))
    scores[rng.random(scores.shape) < 0.3] = 0.0
    if rng.random() < 0.5:  # repeated scores, so several features tie at a threshold
        scores = np.round(scores, 1)
    return ImportanceMatrix(scores=scores)


def test_closed_form_matches_the_count_matrix_scan():
    rng = np.random.default_rng(77)
    raised = 0
    for _ in range(3000):
        matrix = random_matrix(rng)
        gamma = float(rng.uniform(0.1, 1.0))
        got = outcome(scan_threshold, matrix, gamma)
        want = outcome(ref_scan_threshold, matrix, gamma)
        assert got == want, (matrix.scores, gamma)
        assert type(got) is type(want)
        raised += isinstance(want, type)
    assert 0 < raised < 3000  # both outcomes are exercised


@pytest.mark.parametrize("gamma", [0.5, 0.99, 1.0])
def test_closed_form_matches_on_the_stored_matrix(gamma):
    matrix = load_importance_matrix(FIXTURES / "importance.csv")
    assert scan_threshold(matrix, gamma) == ref_scan_threshold(matrix, gamma)


def test_pipeline_equals_the_chained_steps():
    matrix = load_importance_matrix(FIXTURES / "importance.csv")
    c_min = max(1, round(0.1 * matrix.n_rows))
    j_th = scan_threshold(matrix)
    itemsets = fp_growth(hit_transactions(matrix, j_th), c_min, matrix.n_features)
    chosen = pick_feature_set(itemsets)
    assert select_features(matrix, c_min=c_min) == (j_th, itemsets, chosen)
    assert select_frequent_features(matrix, c_min=c_min) == chosen


def test_mining_the_hits_equals_the_fp_tree_over_row_sequences():
    rng = np.random.default_rng(41)
    compared = 0
    for _ in range(500):
        matrix = random_matrix(rng)
        gamma = float(rng.uniform(0.1, 1.0))
        c_min = int(rng.integers(1, matrix.n_rows + 2))
        k_max = int(rng.integers(1, matrix.n_features + 1))
        try:
            j_th = scan_threshold(matrix, gamma)
        except RegionRulesError as exc:
            with pytest.raises(type(exc)):
                select_features(matrix, gamma, c_min, k_max)
            continue
        itemsets = ref_fp_growth(hit_transactions(matrix, j_th), c_min, k_max)
        try:
            want = (j_th, itemsets, pick_feature_set(itemsets))
        except RegionRulesError as exc:
            with pytest.raises(type(exc)):
                select_features(matrix, gamma, c_min, k_max)
            continue
        assert select_features(matrix, gamma, c_min, k_max) == want
        compared += 1
    assert compared > 200


def test_c_min_is_checked_before_the_scan():
    # an all-zero matrix would fail the scan with NoFeatureError
    with pytest.raises(ConfigError):
        select_features(ImportanceMatrix(scores=np.zeros((3, 2))), c_min=0)
