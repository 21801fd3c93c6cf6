"""The feature-selection pipeline and its closed-form threshold scan.

``scan_threshold`` finds its threshold from each feature's ``required``-th
largest score; ``helpers.ref_scan_threshold`` counts qualifying features at
every distinct score. Both must give the same float, or raise the same
exception type, on every matrix.
"""

import csv
import tracemalloc
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
from regionrules.errors import ConfigError, NoFeatureError, RegionRulesError

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


def column_cases(rng):
    """Matrices whose columns stress the per-column rank pick: ties at the
    rank across columns, all-zero columns and one-column matrices."""
    n_rows = int(rng.integers(1, 40))
    base = np.round(rng.random(n_rows), 1)
    yield np.column_stack([base, rng.permutation(base), base[::-1]])  # equal ranks
    tied = np.round(rng.random((n_rows, 4)), 1)
    tied[: max(1, n_rows // 2)] = 0.4  # many columns share a score near the rank
    yield tied
    zeros = rng.random((n_rows, 5))
    zeros[:, rng.random(5) < 0.5] = 0.0
    yield zeros
    yield np.zeros((n_rows, 3)) + np.eye(n_rows, 3)  # at most one positive per column
    yield rng.random((n_rows, 1))
    one = np.round(rng.random((n_rows, 1)), 1)
    one[rng.random(n_rows) < 0.5] = 0.0
    yield one


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("gamma", [0.05, 0.5, 0.99, 1.0])
def test_column_wise_scan_matches_the_reference(seed, gamma):
    """gamma 1.0 requires every row, so each feature's pick is its least score."""
    for scores in column_cases(np.random.default_rng(seed)):
        matrix = ImportanceMatrix(scores=scores)
        got = outcome(scan_threshold, matrix, gamma)
        assert got == outcome(ref_scan_threshold, matrix, gamma), (scores, gamma)


@pytest.mark.parametrize(
    "scores, gamma, want",
    [
        ([[0.3, 0.3], [0.5, 0.5]], 1.0, 0.3),  # both ranks tie: the largest multi threshold
        ([[0.3, 0.3, 0.6], [0.5, 0.7, 0.8]], 1.0, 0.5),  # two tie at the rank, one lies above
        ([[0.0, 0.2], [0.0, 0.4]], 1.0, 0.2),  # an all-zero column never qualifies
        ([[0.0, 0.0], [0.0, 0.4]], 1.0, NoFeatureError),  # no feature covers every row
        ([[0.6], [0.2], [0.9]], 1.0, 0.2),  # one column: its least positive score
        ([[0.0], [0.2], [0.9]], 1.0, NoFeatureError),
    ],
)
def test_column_wise_scan_on_small_matrices(scores, gamma, want):
    matrix = ImportanceMatrix(scores=np.array(scores, dtype=np.float64))
    assert outcome(scan_threshold, matrix, gamma) == want
    assert outcome(ref_scan_threshold, matrix, gamma) == want


def planted_matrix_csv(path, n_rows, n_features, quoting):
    """Noise scores rarely reach the four planted features' floor of 0.5, so
    the hits and the itemsets stay few however wide the matrix is."""
    rng = np.random.default_rng(n_features)
    scores = 0.6 * rng.random((n_rows, n_features)) ** 4
    scores[:, :4] = 0.5 + 0.5 * rng.random((n_rows, 4))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator="\n")
        writer.writerow([f"f{j}" for j in range(n_features)])
        writer.writerows(np.round(scores, 6).tolist())


# the read window (1 MiB), two chunks of cell strings, the score buffer's
# spare sixteenth and, while mining, the hit matrix (one byte per score,
# under 1 MiB here)
SELECTION_ALLOWANCE = 4 << 20
SCAN_ALLOWANCE = 1 << 20  # one column, a block of masks and the miner's row masks


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
@pytest.mark.parametrize("shape", [(20_000, 24), (2_000, 500)])
def test_selection_holds_the_matrix_and_a_fixed_allowance(shape, quoting, tmp_path):
    """Neither a join of the loaded blocks nor a full-matrix temporary in the
    scan: a QUOTE_ALL file goes through csv.reader, a plain one is cut at
    byte offsets, and both peak below the matrix plus the same allowance.
    The selection itself adds only the hit matrix and a smaller allowance."""
    path = tmp_path / "importance.csv"
    planted_matrix_csv(path, *shape, quoting)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrix = load_importance_matrix(path)
        load_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        _, _, chosen = select_features(matrix, c_min=shape[0] // 10)
        select_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert chosen == frozenset(range(4))
    assert matrix.scores.shape == shape
    nbytes, n_scores = matrix.scores.nbytes, matrix.scores.size
    for peak in (load_peak, select_peak):
        assert peak < nbytes + SELECTION_ALLOWANCE, (load_peak - nbytes, select_peak - nbytes)
    assert select_peak < nbytes + n_scores + SCAN_ALLOWANCE, select_peak - nbytes - n_scores
