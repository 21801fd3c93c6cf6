from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regionrules import load_csv, make_target, roc_threshold
from regionrules.errors import (
    DegenerateLabelsError,
    DomainError,
    ParseError,
    SchemaError,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_header_only_gives_empty_table(self, tmp_path):
        p = write(tmp_path, "age,sex\n")
        table = load_csv(p, {"age": "numeric", "sex": "categorical"})
        assert table.n_rows == 0
        assert table.feature_names == ["age", "sex"]

    def test_three_rows_two_columns(self, tmp_path):
        p = write(tmp_path, "age,sex\n31,f\n42,m\n23,f\n")
        table = load_csv(p, {"age": "numeric", "sex": "categorical"})
        assert table.n_rows == 3
        assert len(table.columns) == 2
        assert table.column("age").values.tolist() == [31.0, 42.0, 23.0]
        assert table.column("sex").values.tolist() == ["f", "m", "f"]

    def test_unparseable_numeric_cell(self, tmp_path):
        p = write(tmp_path, "age\n31\nabc\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, {"age": "numeric"})
        assert err.value.row == 1
        assert err.value.column == "age"

    def test_duplicate_header(self, tmp_path):
        p = write(tmp_path, "age,age\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(p, {"age": "numeric"})

    def test_schema_must_cover_every_header(self, tmp_path):
        p = write(tmp_path, "age,sex\n31,f\n")
        with pytest.raises(SchemaError):
            load_csv(p, {"age": "numeric"})

    def test_missing_token_becomes_marker(self, tmp_path):
        p = write(tmp_path, "age,sex\n,na\n42,\n", name="m.csv")
        table = load_csv(p, {"age": "numeric", "sex": "categorical"})
        assert np.isnan(table.column("age").values[0])
        assert table.column("sex").values[1] is None
        assert table.column("age").missing_mask().tolist() == [True, False]

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path, "a,b\n1\n")
        with pytest.raises(ParseError):
            load_csv(p, {"a": "numeric", "b": "numeric"})

    def test_byte_order_mark_is_stripped(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("age\n31\n".encode("utf-8-sig"))
        table = load_csv(p, {"age": "numeric"})
        assert table.feature_names == ["age"]


class TestDataTableInvariants:
    def test_duplicate_column_names_rejected(self):
        from regionrules import DataTable, FeatureColumn

        cols = (
            FeatureColumn("x", "numeric", np.array([1.0])),
            FeatureColumn("x", "numeric", np.array([2.0])),
        )
        with pytest.raises(SchemaError):
            DataTable(cols)

    def test_unequal_lengths_rejected(self):
        from regionrules import DataTable, FeatureColumn

        cols = (
            FeatureColumn("x", "numeric", np.array([1.0])),
            FeatureColumn("y", "numeric", np.array([2.0, 3.0])),
        )
        with pytest.raises(SchemaError):
            DataTable(cols)

    def test_unknown_kind_rejected(self):
        from regionrules import FeatureColumn

        with pytest.raises(SchemaError):
            FeatureColumn("x", "ordinal", np.array([1.0]))

    def test_infinite_numeric_rejected(self):
        from regionrules import FeatureColumn

        with pytest.raises(DomainError):
            FeatureColumn("x", "numeric", np.array([np.inf]))

    def test_numeric_matrix_defaults_to_the_numeric_columns(self, tmp_path):
        table = load_csv(write(tmp_path, "a,s,b\n1,x,2\n3,y,4\n"),
                         {"a": "numeric", "s": "categorical", "b": "numeric"})
        assert table.numeric_matrix().tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert table.numeric_matrix(["b"]).tolist() == [[2.0], [4.0]]
        with pytest.raises(SchemaError, match="column 's' is not numeric"):
            table.numeric_matrix(["a", "s"])


class TestMakeTarget:
    def test_strict_threshold(self):
        t = make_target([0.2, 0.5, 0.9], 0.457)
        assert t.flags.tolist() == [False, True, True]

    def test_boundary_is_excluded(self):
        assert make_target([0.5], 0.5).flags.tolist() == [False]

    def test_probability_outside_unit_interval(self):
        with pytest.raises(DomainError, match=r"^probability 1\.2 at row 0 outside \[0, 1\]$"):
            make_target([1.2], 0.5)

    def test_nonfinite_threshold(self):
        with pytest.raises(DomainError):
            make_target([0.5], float("nan"))

    def test_idempotent(self):
        probs = [0.1, 0.3, 0.8]
        a = make_target(probs, 0.4)
        b = make_target(probs, 0.4)
        assert a.flags.tolist() == b.flags.tolist()

    def test_length_is_the_row_count(self):
        target = make_target([0.1, 0.7, 0.9], 0.5)
        assert (len(target), target.count) == (3, 2)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_true_count_monotone_in_threshold(self, t1, t2):
        rng = np.random.default_rng(0)
        probs = rng.random(50)
        lo, hi = min(t1, t2), max(t1, t2)
        assert make_target(probs, lo).count >= make_target(probs, hi).count


class TestRocThreshold:
    def test_separable_case(self):
        assert roc_threshold([0.1, 0.4, 0.6, 0.9], [False, False, True, True]) == 0.5

    def test_inverted_labels_pick_smallest_candidate(self):
        t = roc_threshold([0.3, 0.7], [True, False])
        assert t < 0.3

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            roc_threshold([0.2, 0.8], [True, True])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="different lengths"):
            roc_threshold([0.2, 0.8, 0.5], [True, False])

    @pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), (1.5, "1.5"), (-0.5, "-0.5")])
    def test_probability_outside_unit_interval(self, bad, shown):
        # the same check and message as make_target, which rejects the same column
        message = rf"^probability {shown} at row 2 outside \[0, 1\]$"
        for call in (lambda p: roc_threshold(p, [False, False, True, True]),
                     lambda p: make_target(p, 0.5)):
            with pytest.raises(DomainError, match=message):
                call([0.1, 0.4, bad, 0.9])

    def test_separable_data_reaches_perfect_J(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            probs = np.where(labels, rng.uniform(0.6, 1.0, n), rng.uniform(0.0, 0.4, n))
            t = roc_threshold(probs, labels)
            preds = probs > t
            assert (preds == labels).all()  # TPR - FPR == 1

    def test_exact_ties_pick_the_smallest_maximizer(self):
        # TPR - FPR is 1/6 at 0.3 and 0.5 and 0.9; in floats, 1/3 - 1/6 < 2/3 - 1/2
        probs = [0, 0.8, 0.2, 1, 1, 0, 0.4, 0, 0.6]
        labels = [0, 0, 0, 1, 0, 1, 1, 0, 0]
        assert roc_threshold(probs, labels) == (0.2 + 0.4) / 2

    def test_matches_an_exact_candidate_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            n = int(rng.integers(2, 12))
            probs = rng.integers(0, 6, n) / 5  # steps of 0.2: many exact ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            distinct = np.unique(probs)
            cands = [distinct[0] - 1.0] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
            j = [Fraction(int((probs > c)[labels].sum()), int(labels.sum()))
                 - Fraction(int((probs > c)[~labels].sum()), int((~labels).sum()))
                 for c in cands]
            assert roc_threshold(probs, labels) == cands[j.index(max(j))]

    def test_matches_exhaustive_candidate_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            probs = np.round(rng.random(n), 2)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            distinct = np.unique(probs)
            cands = [distinct[0] - 1.0] + [
                (a + b) / 2 for a, b in zip(distinct, distinct[1:])
            ]
            best, best_j = None, -np.inf
            for c in cands:
                preds = probs > c
                tpr = (preds & labels).sum() / labels.sum()
                fpr = (preds & ~labels).sum() / (~labels).sum()
                if tpr - fpr > best_j:
                    best, best_j = c, tpr - fpr
            assert roc_threshold(probs, labels) == best
