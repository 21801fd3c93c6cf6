import math

import numpy as np
import pytest

from regionrules import (
    DifferentiableScorer,
    ImportanceMatrix,
    build_importance_matrix,
    importance_scores,
    integrated_gradient,
    load_importance_matrix,
    scan_threshold,
    select_frequent_features,
)
from regionrules.attribution import balanced_sample, class_centroids
from regionrules.errors import (
    ConfigError,
    DomainError,
    EmptyMatrixError,
    EmptyResultError,
    NoFeatureError,
    ParseError,
    SchemaError,
    ShapeError,
)
from regionrules.tabular import load_csv

from helpers import qual_count


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


WORKED_SCORES = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.5, 0.4, 0.1]])


class TestIntegratedGradient:
    def test_linear_closed_form(self):
        scorer = DifferentiableScorer("linear", (2.0, -1.0))
        out = integrated_gradient(scorer, [1.0, 1.0], [0.0, 0.0])
        assert out.tolist() == [2.0, -1.0]

    def test_zero_displacement(self):
        scorer = DifferentiableScorer("logistic", (1.0, 2.0), bias=0.3)
        out = integrated_gradient(scorer, [0.5, 0.5], [0.5, 0.5], steps=10)
        assert out.tolist() == [0.0, 0.0]

    def test_logistic_completeness(self):
        scorer = DifferentiableScorer("logistic", (1.0, 0.0))
        out = integrated_gradient(scorer, [2.0, 0.0], [0.0, 0.0], steps=1000)
        assert out[1] == 0.0
        assert abs(out[0] - (sigmoid(2.0) - sigmoid(0.0))) < 1e-6
        assert abs(out.sum() - (sigmoid(2.0) - sigmoid(0.0))) < 1e-6

    def test_shape_mismatch(self):
        scorer = DifferentiableScorer("linear", (1.0, 2.0))
        with pytest.raises(ShapeError):
            integrated_gradient(scorer, [1.0], [0.0, 0.0])

    def test_no_steps(self):
        scorer = DifferentiableScorer("logistic", (1.0,))
        with pytest.raises(ConfigError, match="steps must be >= 1, got 0"):
            integrated_gradient(scorer, [1.0], [0.0], steps=0)

    def test_unknown_scorer_kind(self):
        with pytest.raises(ConfigError, match="unknown scorer kind 'quadratic'"):
            DifferentiableScorer("quadratic", (1.0,))


class TestImportanceScores:
    def test_direct_formula(self):
        out = importance_scores([0.3, -0.1], 0.5, 0.3)
        assert np.allclose(out, [1.5, 0.5])

    def test_degenerate_shift_skips(self):
        assert importance_scores([0.3, 0.1], 0.4, 0.4) is None

    def test_negative_shift_takes_absolute_value(self):
        out = importance_scores([0.0, 0.0, 0.4], 0.0, 0.4)
        assert np.allclose(out, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("eps", [0.0, -1e-9])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(ConfigError, match="eps must be positive"):
            importance_scores([0.3], 0.5, 0.3, eps=eps)


class TestBuildImportanceMatrix:
    def test_single_pair(self):
        scorer = DifferentiableScorer("linear", (1.0,))
        m = build_importance_matrix(scorer, [[0.0]], [[1.0]])
        assert m.n_rows == 1
        assert np.array_equal(m.scores, [[1.0]])

    def test_no_baselines(self):
        scorer = DifferentiableScorer("linear", (1.0,))
        with pytest.raises(ShapeError, match="at least one baseline"):
            build_importance_matrix(scorer, np.empty((0, 1)), [[1.0]])

    def test_scores_must_be_two_dimensional(self):
        with pytest.raises(ShapeError, match=r"scores must be 2-d, got shape \(2,\)"):
            ImportanceMatrix(scores=[0.5, 0.2])

    def test_identical_samples_skip_everything(self):
        scorer = DifferentiableScorer("linear", (1.0,))
        with pytest.raises(EmptyMatrixError):
            build_importance_matrix(scorer, [[1.0]], [[1.0], [1.0]])

    def test_row_count_equals_usable_pairs(self):
        scorer = DifferentiableScorer("linear", (1.0, 1.0))
        baselines = [[0.0, 0.0], [1.0, 0.0]]
        tests = [[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]  # pair (baseline 1, test 0) degenerates
        m = build_importance_matrix(scorer, baselines, tests)
        assert m.n_rows == 5
        # |(test - baseline) / shift| per usable pair, in (baseline, test) order
        expected = [[1.0, 0.0], [0.0, 1.0], [0.75, 0.25], [1.0, 2.0], [2 / 3, 1 / 3]]
        assert np.allclose(m.scores, expected)

    def test_scores_are_nonnegative(self):
        rng = np.random.default_rng(2)
        scorer = DifferentiableScorer("logistic", tuple(rng.normal(size=3)))
        m = build_importance_matrix(scorer, rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
        assert (m.scores >= 0).all()


class TestLoadImportanceMatrix:
    def test_zeros(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b,c\n" + "0,0,0\n" * 4)
        m = load_importance_matrix(p)
        assert m.scores.shape == (4, 3)
        assert not m.scores.any()
        assert m.feature_names == ("a", "b", "c")

    def test_identity_load(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n0.7,0.2\n0.6,0.3\n")
        m = load_importance_matrix(p)
        assert m.scores.tolist() == [[0.7, 0.2], [0.6, 0.3]]

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n0.7\n")
        with pytest.raises(ParseError):
            load_importance_matrix(p)

    def test_duplicate_header_is_the_schema_error_load_csv_raises(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("b,a,b,a\n1,2,3,4\n")
        message = r"^duplicate header names \['a', 'b'\]$"
        with pytest.raises(SchemaError, match=message):
            load_importance_matrix(p)
        with pytest.raises(SchemaError, match=message):
            load_csv(p, {"a": "numeric", "b": "numeric"})

    def test_negative_score(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n0.7,-0.2\n")
        with pytest.raises(DomainError):
            load_importance_matrix(p)


class TestScanThreshold:
    def test_worked_example(self):
        m = ImportanceMatrix(scores=WORKED_SCORES)
        assert scan_threshold(m, gamma=1.0) == 0.3

    def test_single_feature_returns_min_positive_score(self):
        m = ImportanceMatrix(scores=np.array([[0.5], [0.2], [0.9]]))
        assert scan_threshold(m, gamma=1.0) == 0.2

    def test_all_zero_matrix(self):
        with pytest.raises(NoFeatureError):
            scan_threshold(ImportanceMatrix(scores=np.zeros((3, 2))), gamma=1.0)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrixError, match="empty importance matrix"):
            scan_threshold(ImportanceMatrix(scores=np.empty((0, 3))))

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_coverage_outside_the_unit_interval(self, gamma):
        with pytest.raises(ConfigError, match=r"gamma must be in \(0, 1\]"):
            scan_threshold(ImportanceMatrix(scores=WORKED_SCORES), gamma=gamma)

    def test_jump_past_one_returns_last_multi_threshold(self):
        # two identical features: qual never reaches exactly 1
        m = ImportanceMatrix(scores=np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert scan_threshold(m, gamma=1.0) == 0.5

    def test_coverage_reads_as_its_decimal(self):
        # 0.1 of 10 rows is one row; the binary double 0.1 lies just above
        # 1/10 and would require two
        scores = np.zeros((10, 2))
        scores[0, 0] = 0.9
        scores[:2, 1] = 0.5
        assert scan_threshold(ImportanceMatrix(scores=scores), gamma=0.1) == 0.9

    def test_qual_monotone_on_random_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            scores = rng.random((int(rng.integers(1, 20)), int(rng.integers(1, 6))))
            scores[rng.random(scores.shape) < 0.3] = 0.0
            gamma = rng.uniform(0.3, 1.0)
            quals = [qual_count(scores, t, gamma) for t in np.unique(scores)]
            assert all(a >= b for a, b in zip(quals, quals[1:]))


class TestSelectFrequentFeatures:
    def test_worked_example(self):
        m = ImportanceMatrix(scores=WORKED_SCORES)
        assert select_frequent_features(m, gamma=1.0, c_min=2, k_max=3) == frozenset(
            {0, 1}
        )

    def test_single_feature_matrix(self):
        m = ImportanceMatrix(scores=np.array([[0.4], [0.6]]))
        assert select_frequent_features(m, gamma=1.0, c_min=1, k_max=2) == frozenset({0})

    def test_c_min_above_row_count(self):
        m = ImportanceMatrix(scores=WORKED_SCORES)
        with pytest.raises(EmptyResultError):
            select_frequent_features(m, gamma=1.0, c_min=10, k_max=3)


class TestBaselineHelpers:
    def test_class_centroids(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        cents, classes = class_centroids(X, [0, 0, 1])
        assert classes == [0, 1]
        assert cents.tolist() == [[1.0, 1.0], [4.0, 4.0]]

    def test_balanced_sample_is_seeded_and_balanced(self):
        ids = np.array([0] * 50 + [1] * 50)
        a = balanced_sample(ids, 20, seed=4)
        b = balanced_sample(ids, 20, seed=4)
        assert a.tolist() == b.tolist()
        assert (ids[a] == 0).sum() == (ids[a] == 1).sum() == 10

    def test_balanced_sample_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            balanced_sample(np.array([0, 1] * 5), 4, seed=-1)
