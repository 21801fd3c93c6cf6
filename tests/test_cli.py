import argparse
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from regionrules import binning, cli, errors
from regionrules.cli import main
from regionrules.synth import MAX_ROWS

from helpers import fixture_table

FIXTURES = Path(__file__).parent / "fixtures"

WORKED_MATRIX = "f0,f1,f2\n0.7,0.2,0.1\n0.6,0.3,0.1\n0.5,0.4,0.1\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def fixture_csv(tmp_path):
    """The 20-row grid fixture with a prediction column mirroring the target."""
    table, target = fixture_table()
    lines = ["x,p"]
    for v, t in zip(table.column("x").values, target.flags):
        lines.append(f"{float(v)!r},{0.9 if t else 0.1}")
    p = tmp_path / "fixture.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestSelectFeatures:
    def test_worked_matrix(self, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text(WORKED_MATRIX)
        code, out, _ = run(
            capsys, "select-features", "--matrix", m,
            "--coverage", "1.0", "--min-count", "2", "--max-size", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["features"] == ["f0", "f1"]
        assert payload["j_th"] == 0.3
        assert {"items": ["f0", "f1"], "count": 2} in payload["itemsets"]

    def test_all_zero_matrix_is_an_empty_result(self, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text("a,b\n0,0\n0,0\n")
        code, _, err = run(capsys, "select-features", "--matrix", m)
        assert code == 4
        assert json.loads(err)["error"] == "NoFeatureError"

    def test_infinite_score_is_a_data_error(self, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text("a,b\n0,inf\n0,inf\n")
        code, out, err = run(capsys, "select-features", "--matrix", m, "--coverage", "1.0")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_min_count_zero_is_a_usage_error_before_the_scan(self, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text("a,b\n0,0\n0,0\n")  # the scan would fail with NoFeatureError
        code, out, err = run(capsys, "select-features", "--matrix", m, "--min-count", "0")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("matrix", ["a,b\n0,0\n0,0\n", "a,b\n1,0\n1,0\n"])
    def test_max_size_zero_is_a_usage_error_whatever_the_scores(self, matrix, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text(matrix)  # the scan fails on the first, FP-Growth rejects k_max on the second
        code, out, err = run(capsys, "select-features", "--matrix", m, "--max-size", "0")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ConfigError", "message": "k_max must be >= 1, got 0"}

    def test_duplicate_matrix_header_is_a_schema_error(self, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text("a,a,b\n1,1,0\n1,1,0\n")  # else it would select ["a", "a"]
        code, out, err = run(capsys, "select-features", "--matrix", m)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "SchemaError", "message": "duplicate header names ['a']",
        }

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "select-features", "--matrix", tmp_path / "nope.csv")
        assert code == 2

    def test_scorer_path_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 2))
        lines = ["a,b"] + [f"{float(x)!r},{float(y)!r}" for x, y in X]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "select-features", "--data", data,
            "--scorer-kind", "logistic", "--weights", "3.0,0.0",
            "--threshold", "0.5", "--num-tests", "40", "--min-count", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["features"] == ["a"]  # the zero-weight feature never scores

    def test_scorer_path_with_a_missing_cell_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n0.5,1.0\n,2.0\n")
        code, out, err = run(capsys, "select-features", "--data", data, "--weights", "1,1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "DomainError", "message": "scorer features must not contain missing values"
        }

    def test_wrong_number_of_weights_is_a_data_error(self, capsys):
        code, out, err = run(
            capsys, "select-features", "--data", FIXTURES / "two_mode.csv", "--weights", "1,1",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ShapeError", "message": "2 weights for 3 feature columns"
        }

    def test_non_numeric_weights_are_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "select-features", "--data", FIXTURES / "two_mode.csv",
            "--weights", "a,b,c",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"


def subcommands() -> dict:
    """Each subcommand's parser by name."""
    actions = cli.build_parser()._actions
    return next(a.choices for a in actions if isinstance(a, argparse._SubParsersAction))


def one_error_line(err: str) -> str:
    assert len(err.splitlines()) == 1
    return json.loads(err)["error"]


class TestExtract:
    def common_args(self, out):
        return [
            "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features", "f0,f1",
            "--min-support", "150", "--max-rules", "2", "--n-grids", "10",
            "--out", out,
        ]

    def test_two_mode_winner(self, tmp_path, capsys):
        out = tmp_path / "rules.json"
        code, _, _ = run(capsys, *self.common_args(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["best"]["rules"]) == 2
        assert payload["best"]["confidence"] >= 0.95
        assert payload["candidates"]
        assert payload["histograms"][0]["feature"] == "f0"
        assert len(payload["histograms"][0]["ratios"]) >= 2

    def test_prediction_column_path(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--n-grids", "4",
            "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["best"]["rules"][0] == {
            "feature": "x", "op": "in_interval", "lo": 1.0, "hi": 3.0,
        }
        assert payload["best"]["support"] == 10

    def test_categorical_label_column_with_a_target_class(self, tmp_path, capsys):
        lines = (FIXTURES / "two_mode.csv").read_text().splitlines()[1:]
        want = sum(line.rsplit(",", 1)[1] == "1" for line in lines)
        targets = []
        for schema in ("label:categorical", "label:numeric"):
            out = tmp_path / "rules.json"
            args = self.common_args(out) + ["--schema", schema, "--target-class", "1"]
            assert run(capsys, *args)[0] == 0
            targets.append(json.loads(out.read_text())["target"])
        assert targets[0] == targets[1] == {"label": "1", "count": want, "table_rows": 2000}

    def test_prediction_column_must_be_numeric(self, fixture_csv, capsys):
        code, out, err = run(
            capsys, "extract", "--data", fixture_csv, "--schema", "p:categorical",
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "SchemaError", "message": "prediction column 'p' must be numeric"
        }

    def test_empty_schema_entries_are_skipped(self, tmp_path, capsys):
        out = tmp_path / "rules.json"
        code, _, _ = run(capsys, *self.common_args(out), "--schema", " , label:numeric,,")
        assert code == 0
        assert json.loads(out.read_text())["target"]["count"] > 0

    def test_schema_entry_without_a_kind_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, *self.common_args("-"), "--schema", "label")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ConfigError", "message": "--schema entry 'label' must be name:kind"
        }

    def test_target_prior_one_reports_no_rules(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,label\n" + "".join(f"{v},1\n" for v in range(20)))
        out = tmp_path / "rules.json"
        code, _, err = run(
            capsys, "extract", "--data", data, "--target-column", "label",
            "--min-support", "5", "--max-rules", "1", "--out", out,
        )
        assert code == 4
        assert one_error_line(err) == "EmptyResultError"
        payload = json.loads(out.read_text())
        assert payload["result"] == "none"
        assert payload["reason"] == json.loads(err)["message"]
        assert payload["candidates"] == []
        assert payload["best"] is None

    @pytest.mark.parametrize("strategy", ["uniform", "quantile", "kmeans"])
    def test_range_too_wide_to_bin_is_a_data_error(self, tmp_path, capsys, strategy):
        data = tmp_path / "d.csv"
        data.write_text("x,label\n" + "".join(
            f"{-1.7e308 if i < 200 else 1.7e308!r},{i % 2}\n" for i in range(400)
        ))
        code, out, err = run(
            capsys, "extract", "--data", data, "--target-column", "label",
            "--min-support", "2", "--max-rules", "1", "--n-grids", "2",
            "--strategy", strategy,
        )
        assert (code, out) == (2, "")
        assert one_error_line(err) == "DomainError"

    def test_word_target_class_on_numeric_label_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--target-class", "yes",
            "--min-support", "150", "--max-rules", "1",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_zero_max_rules_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--min-support", "150", "--max-rules", "0",
        )
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_infeasible_min_support_exit_code(self, capsys):
        code, _, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--min-support", "2001", "--max-rules", "1",
        )
        assert code == 3
        assert json.loads(err)["error"] == "InfeasibleConfigError"

    def test_features_file_from_select_features(self, tmp_path, capsys):
        m = tmp_path / "imp.csv"
        m.write_text(WORKED_MATRIX.replace("f2", "junk"))
        selection = tmp_path / "sel.json"
        code, _, _ = run(
            capsys, "select-features", "--matrix", m,
            "--coverage", "1.0", "--min-count", "2", "--out", selection,
        )
        assert code == 0
        out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features-file", selection,
            "--min-support", "150", "--max-rules", "2", "--n-grids", "10",
            "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["features"] == ["f0", "f1"]

    @pytest.mark.parametrize(
        "payload", [{"x": 1}, {"features": "f0"}, {"features": [0]}, ["f0"]]
    )
    def test_features_file_without_a_features_list(self, tmp_path, capsys, payload):
        selection = tmp_path / "sel.json"
        selection.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features-file", selection,
            "--min-support", "150", "--max-rules", "1",
        )
        assert (code, out) == (2, "")
        assert one_error_line(err) == "SchemaError"

    def test_duplicate_features_flag_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features", "f0,f0",
            "--min-support", "150", "--max-rules", "1",
        )
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"

    def test_duplicate_features_in_a_file_are_a_usage_error(self, tmp_path, capsys):
        selection = tmp_path / "sel.json"
        selection.write_text(json.dumps({"features": ["f1", "f0", "f1"]}))
        code, out, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features-file", selection,
            "--min-support", "150", "--max-rules", "1",
        )
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"

    def test_n_grids_above_the_maximum_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--n-grids", "1000000000",
            "--min-support", "150", "--max-rules", "1",
        )
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"

    def test_categorical_feature_and_missing_token(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(40):
            group = "A" if i < 20 else "B"
            label = 1 if (i < 16 or i in (20, 21)) else 0
            age = "NA" if i % 10 == 0 else f"{rng.uniform(20, 80):.1f}"
            rows.append(f"{age},{group},{label}")
        data = tmp_path / "mixed.csv"
        data.write_text("age,group,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--data", data,
            "--schema", "group:categorical", "--default-kind", "numeric",
            "--missing-token", "NA", "--target-column", "label",
            "--min-support", "10", "--max-rules", "1", "--n-grids", "3",
            "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["best"]["rules"][0] == {
            "feature": "group", "op": "eq", "value": "A",
        }
        assert payload["best"]["support"] == 20
        assert payload["best"]["confidence"] == 0.8
        # categorical histogram data is emitted alongside numeric ones
        by_name = {h["feature"]: h for h in payload["histograms"]}
        assert by_name["group"]["categories"] == ["A", "B"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = {}\ntarget-column = label\nmin-support = 150\n"
            "max-rules = 2\nn-grids = 10\n".format(FIXTURES / "two_mode.csv")
        )
        out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--config", cfg, "--max-rules", "1", "--out", out
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(len(c["rules"]) == 1 for c in payload["candidates"])

    def test_each_searched_feature_is_binned_once(self, monkeypatch, tmp_path, capsys):
        # with one rule per set only the root is expanded, and its histograms
        # are the ones extract prints: one edge build per numeric feature
        calls = []
        grid_edges = binning.grid_edges

        def counted(*args, **kwargs):
            calls.append(args)
            return grid_edges(*args, **kwargs)

        monkeypatch.setattr(binning, "grid_edges", counted)
        out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features", "f0,f1",
            "--min-support", "150", "--max-rules", "1", "--n-grids", "10",
            "--out", out,
        )
        assert code == 0
        assert [h["feature"] for h in json.loads(out.read_text())["histograms"]] == ["f0", "f1"]
        assert len(calls) == 2

    def test_constant_feature_is_listed_as_skipped(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,k,label\n" + "".join(
            f"{i / 60!r},5.0,{int(20 <= i < 35)}\n" for i in range(60)
        ))

        def extract(features):
            out = tmp_path / f"{features}.json"
            code, _, _ = run(
                capsys, "extract", "--data", data, "--target-column", "label",
                "--features", features, "--min-support", "5", "--max-rules", "2",
                "--n-grids", "4", "--out", out,
            )
            assert code == 0
            return json.loads(out.read_text())

        with_constant, without = extract("k,x"), extract("x")
        assert with_constant["histograms"][0] == {
            "feature": "k", "skipped": "need at least 2 distinct values to bin, got 1",
        }
        assert with_constant["histograms"][1:] == without["histograms"]
        assert without["histograms"][0]["feature"] == "x"
        assert with_constant["candidates"] == without["candidates"]


class TestExplain:
    def test_in_interval_sample_matches_global_rule(self, fixture_csv, capsys):
        sample = fixture_csv.parent / "sample.json"
        sample.write_text('{"x": 2.5}')
        code, out, _ = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--n-grids", "4",
            "--sample-file", sample,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rules"][0]["lo"] == 1.0
        assert payload["rules"][0]["hi"] == 3.0

    def test_outlier_sample_reports_none(self, fixture_csv, capsys):
        code, out, err = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--n-grids", "4",
            "--row-index", "2",  # x = 0.4 sits in the weak first grid
        )
        assert code == 4
        assert one_error_line(err) == "EmptyResultError"
        payload = json.loads(out)
        assert payload["result"] == "none"
        assert "reason" in payload

    def test_sample_missing_a_selected_feature(self, fixture_csv, capsys):
        sample = fixture_csv.parent / "empty.json"
        sample.write_text("{}")
        code, _, err = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--sample-file", sample,
        )
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("which", [[], ["--row-index", "0", "--sample-file", "s.json"]],
                             ids=["neither", "both"])
    def test_exactly_one_sample_source(self, fixture_csv, capsys, which):
        code, out, err = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", *which,
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ConfigError", "message": "give exactly one of --row-index / --sample-file"
        }

    def test_bad_row_index(self, fixture_csv, capsys):
        code, _, err = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--row-index", "99",
        )
        assert code == 2
        assert json.loads(err)["error"] == "RangeError"

    def explain_sample(self, capsys, tmp_path, sample):
        path = tmp_path / "sample.json"
        path.write_text(json.dumps(sample))
        return run(
            capsys, "explain", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--min-support", "150", "--max-rules", "1",
            "--sample-file", path,
        )

    def test_sample_lacking_a_feature_names_it(self, tmp_path, capsys):
        code, out, err = self.explain_sample(capsys, tmp_path, {"f1": 0.5})
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"
        assert json.loads(err)["message"] == "sample lacks values for features ['f0']"

    @pytest.mark.parametrize("text", ["nan", "NaN"])
    def test_sample_value_that_reads_as_nan_is_missing(self, tmp_path, capsys, text):
        # as JSON NaN and a blank --row-index cell are, not a value clamped
        # to the top grid
        code, out, err = self.explain_sample(capsys, tmp_path, {"f0": text, "f1": "0.5"})
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"
        assert json.loads(err)["message"] == "sample lacks values for features ['f0']"

    @pytest.mark.parametrize("sample", [[1], 5, "f0", None])
    def test_sample_that_is_not_an_object_is_a_data_error(self, tmp_path, capsys, sample):
        code, out, err = self.explain_sample(capsys, tmp_path, sample)
        assert (code, out) == (2, "")
        assert one_error_line(err) == "SchemaError"

    def test_sample_value_beyond_float_range_is_a_data_error(self, tmp_path, capsys):
        code, out, err = self.explain_sample(capsys, tmp_path, {"f0": 10**400, "f1": 0.5})
        assert (code, out) == (2, "")
        assert one_error_line(err) == "DomainError"

    @pytest.mark.parametrize("key", ["nope", "label"])
    def test_sample_key_outside_the_features_is_unknown(self, tmp_path, capsys, key):
        code, out, err = self.explain_sample(capsys, tmp_path, {"f0": 0.5, "f1": 0.5, key: 1})
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == f"unknown column {key!r}"


class TestEvaluate:
    def test_round_trip_reproduces_stats(self, tmp_path, capsys):
        rules_out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--features", "f0,f1",
            "--min-support", "150", "--max-rules", "2", "--n-grids", "10",
            "--out", rules_out,
        )
        assert code == 0
        report_out = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--rules", rules_out,
            "--out", report_out,
        )
        assert code == 0
        assert "support" in out  # text table on stdout
        stored = json.loads(rules_out.read_text())["candidates"]
        recomputed = json.loads(report_out.read_text())["rule_sets"]
        assert len(stored) == len(recomputed)
        for s, r in zip(stored, recomputed):
            assert s["support"] == r["support"]
            assert s["confidence"] == r["confidence"]
            assert s["fitness"] == r["fitness"]

    def test_out_dash_writes_the_json_report_alone_to_stdout(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"rules": [
            {"feature": "f0", "op": "in_interval", "lo": 0.6, "hi": 0.7}]}]))
        args = ["evaluate", "--data", FIXTURES / "two_mode.csv", "--target-column", "label",
                "--rules", rules, "--out"]
        code, out, _ = run(capsys, *args, "-")
        assert code == 0
        assert run(capsys, *args, tmp_path / "report.json")[0] == 0
        assert json.loads(out) == json.loads((tmp_path / "report.json").read_text())


    @pytest.fixture()
    def missing_group_csv(self, tmp_path):
        rows = ["A,1", "A,1", "B,0", ",1", ",0", "B,1"]
        data = tmp_path / "g.csv"
        data.write_text("group,label\n" + "\n".join(rows) + "\n")
        return data

    def evaluate(self, capsys, data, rule):
        rules = data.parent / "rules.json"
        rules.write_text(json.dumps([{"rules": [rule]}]))
        return run(
            capsys, "evaluate", "--data", data, "--schema", "group:categorical",
            "--target-column", "label", "--rules", rules,
        )

    def test_null_category_does_not_count_missing_rows(self, missing_group_csv, capsys):
        rule = {"feature": "group", "op": "eq", "value": None}
        code, _, err = self.evaluate(capsys, missing_group_csv, rule)
        assert code == 2
        assert json.loads(err) == {
            "error": "ZeroSupportError", "message": "rule set is satisfied by no row"
        }

    @pytest.mark.parametrize("key", ["feature", "value"])
    def test_rule_without_a_field_is_a_data_error(self, missing_group_csv, capsys, key):
        rule = {"feature": "group", "op": "eq", "value": "A"}
        del rule[key]
        code, _, err = self.evaluate(capsys, missing_group_csv, rule)
        assert code == 2
        assert json.loads(err)["error"] == "SchemaError"


    @pytest.mark.parametrize(
        "payload", [5, {"rules": 5}, {"candidates": 5}, [5], [{"rules": "f0"}], None,
                    [{"rules": [{"feature": "f0", "op": "in_interval", "lo": 0, "hi": 10**400}]}]]
    )
    def test_malformed_rules_file_is_a_data_error(self, tmp_path, capsys, payload):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, "evaluate", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--rules", rules,
        )
        assert (code, out) == (2, "")
        assert one_error_line(err) == "SchemaError"

    def test_empty_rule_list_covers_every_row(self, tmp_path, capsys):
        rules, report = tmp_path / "rules.json", tmp_path / "report.json"
        rules.write_text('[{"rules": []}]')
        code, _, _ = run(
            capsys, "evaluate", "--data", FIXTURES / "two_mode.csv", "--target-column", "label",
            "--rules", rules, "--out", report,
        )
        assert code == 0
        assert json.loads(report.read_text())["rule_sets"][0]["support"] == 2000

    @pytest.mark.parametrize(
        "rule, error, message",
        [
            ({"feature": "group", "op": "in_interval", "lo": 0, "hi": 1},
             "SchemaError", "interval rule on non-numeric column 'group'"),
            ({"feature": "x", "op": "eq", "value": "1"},
             "SchemaError", "category rule on non-categorical column 'x'"),
            ({"feature": "x", "op": "in_interval", "lo": 2, "hi": 1},
             "DomainError", "interval lo 2.0 exceeds hi 1.0"),
        ],
        ids=["interval-on-categorical", "category-on-numeric", "lo-above-hi"],
    )
    def test_rule_that_does_not_fit_its_column(self, tmp_path, capsys, rule, error, message):
        data, rules = tmp_path / "g.csv", tmp_path / "rules.json"
        data.write_text("group,x,label\nA,1,1\nB,2,0\n")
        rules.write_text(json.dumps([{"rules": [rule]}]))
        code, out, err = run(
            capsys, "evaluate", "--data", data, "--schema", "group:categorical",
            "--target-column", "label", "--rules", rules,
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": error, "message": message}

    def test_unknown_rule_feature(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"rules": [{"feature": "nope", "op": "eq", "value": 1}]}]))
        code, out, err = run(
            capsys, "evaluate", "--data", FIXTURES / "two_mode.csv",
            "--target-column", "label", "--rules", rules,
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == "unknown column 'nope'"


class TestThreshold:
    @pytest.mark.parametrize("cell, shown", [("", "nan"), ("1.5", "1.5")], ids=["blank", "1.5"])
    def test_probability_outside_unit_interval_is_a_data_error(self, tmp_path, capsys,
                                                                cell, shown):
        data = tmp_path / "p.csv"
        data.write_text(f"p,y\n0.1,0\n0.4,0\n{cell},1\n0.9,1\n")
        code, out, err = run(
            capsys, "threshold", "--data", data,
            "--prediction-column", "p", "--label-column", "y",
        )
        assert (code, out) == (2, "")
        assert one_error_line(err) == "DomainError"
        assert json.loads(err)["message"] == f"probability {shown} at row 2 outside [0, 1]"

    def test_roc_threshold(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        data.write_text("p,y\n0.1,0\n0.4,0\n0.6,1\n0.9,1\n")
        code, out, _ = run(
            capsys, "threshold", "--data", data,
            "--prediction-column", "p", "--label-column", "y",
        )
        assert code == 0
        assert json.loads(out)["threshold"] == 0.5

    def test_prediction_column_must_be_numeric(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        data.write_text("p,y\n0.1,0\n0.9,1\n")
        code, out, err = run(
            capsys, "threshold", "--data", data, "--schema", "p:categorical",
            "--prediction-column", "p", "--label-column", "y",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "SchemaError", "message": "prediction column must be numeric"
        }

    def test_word_label_class_on_numeric_label_is_a_usage_error(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        data.write_text("p,y\n0.1,0\n0.4,0\n0.6,1\n0.9,1\n")
        code, out, err = run(
            capsys, "threshold", "--data", data, "--prediction-column", "p",
            "--label-column", "y", "--label-class", "yes",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"


class TestSynth:
    def test_deterministic_csv(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_rows": 200, "n_features": 2,
            "modes": [{"bounds": [[0.2, 0.4], [0.2, 0.4]], "purity": 1.0, "weight": 0.3}],
            "background_rate": 0.1, "seed": 5,
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "synth", "--spec-file", spec, "--out", a)[0] == 0
        assert run(capsys, "synth", "--spec-file", spec, "--out", b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fixture_spec_writes_the_fixture_csv(self, tmp_path, capsys):
        out, meta = tmp_path / "d.csv", tmp_path / "meta.json"
        assert run(capsys, "synth", "--spec-file", FIXTURES / "two_mode_spec.json",
                   "--out", out, "--meta-out", meta)[0] == 0
        assert out.read_bytes() == (FIXTURES / "two_mode.csv").read_bytes()
        assert meta.read_bytes() == (FIXTURES / "two_mode_meta.json").read_bytes()

    @pytest.mark.parametrize("out", [["--out", "-"], []])
    def test_csv_to_stdout(self, out, tmp_path, capsys, monkeypatch):
        """'-' or no --out writes the CSV to stdout, as the --out help says."""
        monkeypatch.chdir(tmp_path)
        meta = tmp_path / "meta.json"
        code, text, err = run(capsys, "synth", "--spec-file", FIXTURES / "two_mode_spec.json",
                              *out, "--meta-out", meta)
        assert (code, err) == (0, "")
        assert text.encode() == (FIXTURES / "two_mode.csv").read_bytes()
        assert meta.read_bytes() == (FIXTURES / "two_mode_meta.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.json"]

    @pytest.mark.parametrize("out", [["--out", "-"], []])
    def test_csv_and_meta_cannot_share_stdout(self, out, capsys):
        code, text, err = run(capsys, "synth", "--spec-file", FIXTURES / "two_mode_spec.json",
                              *out, "--meta-out", "-")
        assert (code, text) == (1, "")
        assert one_error_line(err) == "ConfigError"

    def test_meta_reports_mode_occupancy(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_rows": 300, "n_features": 1,
            "modes": [{"bounds": [[0.4, 0.6]], "purity": 1.0, "weight": 0.5}],
            "background_rate": 0.0, "seed": 1,
        }))
        out, meta = tmp_path / "d.csv", tmp_path / "meta.json"
        code, _, _ = run(capsys, "synth", "--spec-file", spec, "--out", out,
                         "--meta-out", meta)
        assert code == 0
        payload = json.loads(meta.read_text())
        assert payload["modes"][0]["rows_inside"] >= 120
        assert payload["target_count"] == payload["modes"][0]["target_inside"]


    @pytest.mark.parametrize(
        "spec",
        [
            {"n_rows": 10},
            [1, 2],
            {"n_rows": 10, "n_features": 1,
             "modes": [{"bounds": 5, "purity": 1.0, "weight": 0.5}]},
            {"n_rows": "ten", "n_features": 1},
            {"n_rows": 10, "n_features": 1, "modes": [[0.2, 0.4]]},
            {"n_rows": 10, "n_features": 1, "domain": [[0, 1, 2]]},
        ],
    )
    def test_malformed_spec_is_a_spec_error(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "synth", "--spec-file", path, "--out", tmp_path / "d.csv")
        assert (code, out) == (2, "")
        assert one_error_line(err) == "SpecError"

    @pytest.mark.parametrize("n_rows", [1e300, MAX_ROWS + 1, 0])
    def test_a_row_count_numpy_cannot_index_is_a_spec_error(self, tmp_path, capsys, n_rows):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_rows": n_rows, "n_features": 2}))
        out_csv = tmp_path / "d.csv"
        code, out, err = run(capsys, "synth", "--spec-file", path, "--out", out_csv)
        assert (code, out) == (2, "")
        assert one_error_line(err) == "SpecError"
        assert f"between 1 and {MAX_ROWS}" in json.loads(err)["message"]
        assert not out_csv.exists()

    def test_a_row_count_too_large_to_allocate_is_a_memory_error(self, tmp_path, capsys):
        # numpy refuses the 711 PiB column at once, with a private subclass
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_rows": 1e17, "n_features": 2}))
        out_csv = tmp_path / "d.csv"
        code, out, err = run(capsys, "synth", "--spec-file", path, "--out", out_csv)
        assert (code, out) == (2, "")
        assert one_error_line(err) == "MemoryError"
        assert not out_csv.exists()


class TestOracle:
    def test_fixture_best_rule(self, fixture_csv, capsys):
        code, out, _ = run(
            capsys, "oracle", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--n-grids", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == 10
        assert payload["fitness"] == 0.6

    @pytest.mark.parametrize("min_support, max_rules", [(150, 0), (0, 1)])
    def test_rule_cap_and_support_floor_below_one_are_usage_errors(
        self, capsys, min_support, max_rules
    ):
        code, out, err = run(
            capsys, "oracle", "--data", FIXTURES / "two_mode.csv", "--target-column", "label",
            "--min-support", min_support, "--max-rules", max_rules,
        )
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"


    @pytest.mark.parametrize("command", ["extract", "oracle"])
    @pytest.mark.parametrize("args, code, error", [
        (["--target-class", "7"], 2, "NoTargetError"),
        (["--min-support", "2001"], 3, "InfeasibleConfigError"),
    ])
    def test_input_checks_match_extract(self, capsys, command, args, code, error):
        got, out, err = run(
            capsys, command, "--data", FIXTURES / "two_mode.csv", "--target-column", "label",
            "--min-support", "150", "--max-rules", "1", *args,
        )
        assert (got, out) == (code, "")
        assert one_error_line(err) == error


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["extract", "explain", "oracle"])
    def test_search_commands(self, capsys, command):
        extra = ["--row-index", "0"] if command == "explain" else []
        code, out, err = run(
            capsys, command, "--data", FIXTURES / "two_mode.csv", "--target-column", "label",
            "--min-support", "150", "--max-rules", "1", "--strategy", "kmeans",
            "--seed", "-1", *extra,
        )
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"

    def test_select_features(self, capsys):
        code, out, err = run(
            capsys, "select-features", "--data", FIXTURES / "two_mode.csv",
            "--weights", "1,1,1", "--seed", "-1",
        )
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"

    def test_synth_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_rows": 10, "n_features": 1, "seed": -1}))
        code, out, err = run(capsys, "synth", "--spec-file", spec, "--out", tmp_path / "d.csv")
        assert (code, out) == (2, "")
        assert one_error_line(err) == "SpecError"


class TestConfigFile:
    """A --config file's entries are read as the subcommand's own flags,
    placed before the command line's."""

    FLAGS = ["--data", FIXTURES / "two_mode.csv", "--target-column", "label",
             "--min-support", "150", "--max-rules", "1"]

    def extract(self, tmp_path, capsys, text, *flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {FIXTURES / 'two_mode.csv'}\ntarget_column = label\n"
            f"min-support = 150\nmax_rules = 1\n{text}"
        )
        code, out, err = run(capsys, "extract", "--config", cfg, *flags)
        return code, (json.loads(out) if code == 0 else out), err

    def flag_error(self, capsys, *flag):
        code, out, err = run(capsys, "extract", *self.FLAGS, *flag)
        assert (code, out) == (1, "")
        return err

    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        n_grids = [
            self.extract(tmp_path, capsys, text, *flags)[1]["config"]["n_grids"]
            for text, flags in [("", ()), ("n-grids = 5\n", ()),
                                ("n_grids = 5\n", ("--n-grids", "6"))]
        ]
        assert n_grids == [7, 5, 6]

    def test_unparsable_value(self, tmp_path, capsys):
        """The same message as the flag's."""
        flag_err = self.flag_error(capsys, "--n-grids", "ten")
        assert json.loads(flag_err) == {
            "error": "ConfigError", "message": "argument --n-grids: invalid int value: 'ten'",
        }
        assert self.extract(tmp_path, capsys, "n-grids = ten\n") == (1, "", flag_err)

    @pytest.mark.parametrize("key, value", [("strategy", "median"), ("default-kind", "text")])
    def test_value_outside_the_choices(self, tmp_path, capsys, key, value):
        flag_err = self.flag_error(capsys, f"--{key}", value)
        assert "invalid choice" in flag_err
        assert self.extract(tmp_path, capsys, f"{key} = {value}\n") == (1, "", flag_err)

    def test_a_key_may_be_a_prefix_of_its_option(self, tmp_path, capsys):
        code, payload, _ = self.extract(tmp_path, capsys, "max-b = 1\n")
        assert code == 0
        assert payload["config"]["max_branches"] == 1

    @pytest.mark.parametrize("line", ["min = 5", "= 3", "help = 1"])
    def test_ambiguous_empty_or_help_key_is_a_usage_error(self, tmp_path, capsys, line):
        code, out, err = self.extract(tmp_path, capsys, line + "\n")
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"

    @pytest.mark.parametrize("command", ["evaluate", "threshold", "synth"])
    def test_commands_without_a_seed(self, tmp_path, capsys, command):
        """They reject the flag and ignore the config key."""
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"rules": []}]))
        data = ["--data", FIXTURES / "two_mode.csv"]
        argv = {
            "evaluate": [*data, "--target-column", "label", "--rules", rules],
            "threshold": [*data, "--prediction-column", "f0", "--label-column", "label"],
            "synth": ["--spec-file", FIXTURES / "two_mode_spec.json",
                      "--out", tmp_path / "synth.csv"],
        }[command]
        code, out, err = run(capsys, command, *argv, "--seed", "0")
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == "unrecognized arguments: --seed 0"
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 3\n")
        plain = run(capsys, command, *argv)
        assert plain[0] == 0
        assert run(capsys, command, "--config", cfg, *argv) == plain

    def test_the_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        """Every command of a process shares one parser, and a handler is
        looked up when it runs, so patching it still takes effect."""
        cli._parser()  # the shared parser is already built, or is built now
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or cli._Parser())
        for _ in range(3):
            assert self.extract(tmp_path, capsys, "n-grids = 5\n")[0] == 0
        assert run(capsys, "extract", "--n-grids", "ten")[0] == 1
        assert built == []
        monkeypatch.setattr(cli, "_cmd_extract", lambda args: 7)
        assert run(capsys, "extract", *self.FLAGS)[0] == 7

    def test_a_config_run_leaves_the_parser_unchanged(self, tmp_path, capsys):
        """The runs share one parser, which a config file's defaults must not change."""
        n_grids = [
            self.extract(tmp_path, capsys, text)[1]["config"]["n_grids"]
            for text in ("n-grids = 5\n", "n-grids = 6\n")
        ]
        code, out, _ = run(capsys, "extract", *self.FLAGS)
        assert code == 0
        assert [*n_grids, json.loads(out)["config"]["n_grids"]] == [5, 6, 7]

    def test_malformed_line(self, tmp_path, capsys):
        code, out, err = self.extract(tmp_path, capsys, "# comment\n\nseed 3\n")
        assert (code, out) == (1, "")
        assert one_error_line(err) == "ConfigError"
        assert json.loads(err)["message"].endswith(":7: expected 'key = value'")

    def test_checked_in_config_fixture(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES.parent.parent)
        out = tmp_path / "rules.json"
        code, _, _ = run(capsys, "extract", "--config", FIXTURES / "extract.cfg", "--out", out)
        assert code == 0
        config = json.loads(out.read_text())["config"]
        assert (config["min_support"], config["max_rules"], config["n_grids"]) == (150, 2, 10)

    @pytest.mark.parametrize("command", sorted(subcommands()))
    def test_every_key_is_its_option_name(self, command):
        """Each long option's dest, the name handlers read it by, is its name
        with ``_`` for ``-``."""
        sub = subcommands()[command]
        names = [(o, a.dest) for a in sub._actions for o in a.option_strings if o.startswith("--")]
        assert len(names) > 3
        assert [dest for _, dest in names] == [o[2:].replace("-", "_") for o, _ in names]

    def test_keys_of_other_subcommands_are_ignored(self, tmp_path, capsys):
        text = "row-index = first\nweights = heavy\nlabel_column = nope\nspec_file = 3\n"
        code, payload, _ = self.extract(tmp_path, capsys, text)
        assert code == 0
        assert payload["config"]["max_rules"] == 1


class TestExitCodes:
    """Every error class exits with its own ``exit_code``, and an unreadable
    file or a failed allocation with 2; this table pins each of them."""

    PINNED = {
        "RegionRulesError": 2,
        "ConfigError": 1,
        "ParseError": 2,
        "SchemaError": 2,
        "DomainError": 2,
        "DegenerateLabelsError": 2,
        "ShapeError": 2,
        "EmptyMatrixError": 4,
        "NoFeatureError": 4,
        "EmptyResultError": 4,
        "DegenerateFeatureError": 2,
        "NoTargetError": 2,
        "ZeroSupportError": 2,
        "InfeasibleConfigError": 3,
        "RangeError": 2,
        "TooLargeError": 3,
        "SpecError": 2,
        "OSError": 2,
        "MemoryError": 2,
    }
    BUILTIN = {"OSError": OSError, "MemoryError": MemoryError}

    def test_every_error_class_is_pinned(self):
        classes = {
            name for name, c in vars(errors).items()
            if isinstance(c, type) and issubclass(c, errors.RegionRulesError)
        }
        assert classes | set(self.BUILTIN) == set(self.PINNED)

    @pytest.mark.parametrize("name, code", sorted(PINNED.items()))
    def test_exit_code(self, monkeypatch, capsys, name, code):
        error = getattr(errors, name, None) or self.BUILTIN[name]

        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_synth", fail)
        assert run(capsys, "synth") == (code, "", '{"error": "%s", "message": "boom"}\n' % name)


class TestSideFiles:
    """Config, features, sample, rules and spec files are UTF-8 after one
    optional BOM, as data files are; one that cannot be read is a data error
    (exit 2, one JSON line on stderr)."""

    OPTIONS = ["--config", "--features-file", "--sample-file", "--rules", "--spec-file"]
    JSON_OPTIONS = OPTIONS[1:]
    BOM = b"\xef\xbb\xbf"

    VALID = {
        "--config": f"min-support = 150\ndata = {FIXTURES / 'two_mode.csv'}\n"
                    "target_column = label\nmax_rules = 1\n",
        "--features-file": '{"features": ["f1", "f0"]}',
        "--sample-file": '{"f0": 0.65, "f1": 0.25}',
        "--rules": '[{"rules": [{"feature": "f0", "op": "in_interval", "lo": 0.6, "hi": 0.7}]}]',
        "--spec-file": (FIXTURES / "two_mode_spec.json").read_text(encoding="utf-8"),
    }

    def run_with(self, capsys, tmp_path, option, body: bytes):
        """Run a command that reads ``body`` through ``option`` and writes
        its output to ``tmp_path / "out"``."""
        path = tmp_path / "side"
        path.write_bytes(body)
        data = ["--data", FIXTURES / "two_mode.csv", "--target-column", "label"]
        search = [*data, "--min-support", "150", "--max-rules", "1"]
        argv = {
            "--config": ["extract"],
            "--features-file": ["extract", *search],
            "--sample-file": ["explain", *search],
            "--rules": ["evaluate", *data],
            "--spec-file": ["synth"],
        }[option]
        return path, run(capsys, *argv, option, path, "--out", tmp_path / "out")

    @pytest.mark.parametrize("option", OPTIONS)
    def test_a_bom_is_dropped(self, tmp_path, capsys, option):
        outputs = []
        for bom in (b"", self.BOM):
            body = bom + self.VALID[option].encode()
            _, (code, out, err) = self.run_with(capsys, tmp_path, option, body)
            outputs.append((code, out, err, (tmp_path / "out").read_bytes()))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    @pytest.mark.parametrize("option", OPTIONS)
    def test_undecodable_bytes(self, tmp_path, capsys, option, bom):
        body = bom + b'["f0\xff"]\n'
        path, (code, out, err) = self.run_with(capsys, tmp_path, option, body)
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"
        assert json.loads(err)["message"] == (  # offsets count the BOM
            f"{path} is not UTF-8: invalid start byte at byte {body.index(0xFF)}"
        )

    @pytest.mark.parametrize(
        "body", ["[" * 200_000, '{"features": [', "[1" + "0" * 5000 + "]"],
        ids=["deep", "cut-short", "long-integer"],
    )
    @pytest.mark.parametrize("option", JSON_OPTIONS)
    def test_unreadable_json(self, tmp_path, capsys, option, body):
        path, (code, out, err) = self.run_with(capsys, tmp_path, option, body.encode())
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"
        assert json.loads(err)["message"].startswith(f"{path} is not readable JSON: ")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert one_error_line(capsys.readouterr().err) == "ConfigError"

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_help_exits_zero_with_usage_on_stdout(self, capsys):
        assert main(["extract", "-h"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage:") and err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["extract", "--row-index", "0"], "unrecognized arguments: --row-index 0"),
            (["extract", "--n-grids", "ten"], "argument --n-grids: invalid int value: 'ten'"),
            (["extract", "--strategy", "median"], "argument --strategy: invalid choice"),
            (["evaluate", "--rules"], "argument --rules: expected one argument"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_argument_errors_are_one_json_line(self, argv, message, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert one_error_line(err) == "ConfigError"
        assert json.loads(err)["message"].startswith(message)


class TestUnreadableCsv:
    """Input the CSV readers cannot tokenise is a data error (exit 2, one
    JSON line), whichever reader meets it first."""

    ROWS = "".join(f"{i % 7}.5,{i % 2}\n" for i in range(20_000))  # past the header read

    def write(self, tmp_path, data: bytes):
        p = tmp_path / "in.csv"
        p.write_bytes(data)
        return p

    def extract(self, capsys, path):
        return run(
            capsys, "extract", "--data", path, "--target-column", "label",
            "--features", "f0", "--min-support", "2",
        )

    def select(self, capsys, path):
        return run(capsys, "select-features", "--matrix", path)

    @pytest.mark.parametrize("where", ["header", "first rows", "first rows after a BOM", "body"])
    def test_undecodable_bytes_in_data(self, tmp_path, capsys, where):
        # the header read decodes the first 8 KiB, the data reader the rest
        head = b"f0,lab\xe9l\n" if where == "header" else b"f0,label\n"
        first = b"1.5,\xe9\n" if where.startswith("first rows") else b""
        tail = b"1.5,\xe9\n" if where == "body" else b""
        body = head + first + self.ROWS.encode() + tail
        if where.endswith("BOM"):
            body = b"\xef\xbb\xbf" + body  # offsets count the byte-order mark
        path = self.write(tmp_path, body)
        code, out, err = self.extract(capsys, path)
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"
        assert json.loads(err)["message"] == (
            f"{path} is not UTF-8: invalid continuation byte at byte {body.index(0xE9)}"
        )

    def test_oversized_quoted_field_in_data(self, tmp_path, capsys):
        body = "f0,label\n" + self.ROWS + '1.5,"' + "1" * 140_000 + '"\n'
        code, out, err = self.extract(capsys, self.write(tmp_path, body.encode()))
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"
        assert "field larger than field limit" in json.loads(err)["message"]

    def test_undecodable_bytes_in_matrix(self, tmp_path, capsys):
        body = ("a,b\n" + self.ROWS).encode() + b"0.5,\xff\n"
        code, out, err = self.select(capsys, self.write(tmp_path, body))
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"
        assert "not UTF-8" in json.loads(err)["message"]

    def test_oversized_quoted_field_in_matrix(self, tmp_path, capsys):
        body = "a,b\n" + self.ROWS + '0.5,"' + "1" * 140_000 + '"\n'
        code, out, err = self.select(capsys, self.write(tmp_path, body.encode()))
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"


class TestColumnProjection:
    """Each subcommand converts only the columns it reads; cells of the other
    columns are width-checked and never parsed."""

    GOLDEN = FIXTURES / "golden"
    SEARCH = [
        "--target-column", "label", "--features", "f0,f1",
        "--min-support", "150", "--max-rules", "2", "--n-grids", "10",
    ]

    @pytest.fixture()
    def wide_csv(self, tmp_path):
        """two_mode.csv with unread columns around and between f0 and f1; one
        of them holds a cell that is no number."""
        lines = (FIXTURES / "two_mode.csv").read_text().splitlines()
        wide = ["z,f0,junk,f1,label"]
        for i, line in enumerate(lines[1:]):
            f0, f1, label = line.split(",")
            wide.append(f"{'abc' if i == 7 else i},{f0},{i % 3},{f1},{label}")
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(wide) + "\n")
        return path

    def output(self, capsys, tmp_path, *argv):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, *argv, "--out", out)
        assert code == 0
        return out.read_bytes()

    def test_extract_bytes_match_the_golden_file(self, wide_csv, tmp_path, capsys):
        got = self.output(capsys, tmp_path, "extract", "--data", wide_csv, *self.SEARCH,
                          "--strategy", "uniform")
        assert got == (self.GOLDEN / "extract_uniform.json").read_bytes()

    def test_explain_bytes_match_the_golden_file(self, wide_csv, tmp_path, capsys):
        got = self.output(capsys, tmp_path, "explain", "--data", wide_csv, *self.SEARCH,
                          "--row-index", "3")
        assert got == (self.GOLDEN / "explain.json").read_bytes()

    def test_evaluate_bytes_match_the_golden_file(self, wide_csv, tmp_path, capsys):
        got = self.output(capsys, tmp_path, "evaluate", "--data", wide_csv,
                          "--target-column", "label",
                          "--rules", self.GOLDEN / "extract_uniform.json")
        assert got == (self.GOLDEN / "evaluate.json").read_bytes()

    def test_extract_skips_a_bad_cell_in_an_unread_column(self, wide_csv, capsys):
        code, out, _ = run(
            capsys, "extract", "--data", wide_csv, "--target-column", "label",
            "--features", "f0", "--min-support", "150", "--max-rules", "1",
        )
        assert code == 0
        assert json.loads(out)["features"] == ["f0"]

    def test_threshold_reads_two_columns(self, wide_csv, capsys):
        code, out, _ = run(
            capsys, "threshold", "--data", wide_csv,
            "--prediction-column", "f0", "--label-column", "label",
        )
        assert code == 0
        assert "threshold" in json.loads(out)

    @pytest.mark.parametrize("command", ["oracle", "select-features"])
    def test_commands_that_read_every_column_fail(self, wide_csv, capsys, command):
        args = {
            "oracle": ["--target-column", "label", "--min-support", "150",
                       "--max-rules", "1"],
            "select-features": ["--weights", "1,1,1,1,1"],
        }[command]
        code, out, err = run(capsys, command, "--data", wide_csv, *args)
        assert (code, out) == (2, "")
        assert one_error_line(err) == "ParseError"
        assert json.loads(err)["message"] == "cannot parse 'abc' as a number (row 7, column 'z')"

    def test_unknown_feature_is_named(self, wide_csv, capsys):
        code, out, err = run(
            capsys, "extract", "--data", wide_csv, "--target-column", "label",
            "--features", "f0,nope", "--min-support", "150", "--max-rules", "1",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "SchemaError", "message": "unknown column 'nope'"}


class TestDecimalKnobs:
    """--coverage and --min-confidence reach the library as exact decimals."""

    def test_coverage_of_a_tenth_of_ten_rows_is_one_row(self, tmp_path, capsys, monkeypatch):
        m = tmp_path / "imp.csv"  # a covers one row, b two; Fraction(0.1) * 10 > 1 would need two
        m.write_text("a,b\n0.9,0.5\n0,0.4\n" + "0,0\n" * 8)
        seen = []
        select = cli.select_features
        monkeypatch.setattr(cli, "select_features",
                            lambda m, g, *a: seen.append(g) or select(m, g, *a))
        code, out, _ = run(capsys, "select-features", "--matrix", m, "--coverage", "0.1",
                           "--min-count", "1")
        assert code == 0
        assert seen == [Fraction(1, 10)] and type(seen[0]) is Fraction
        assert json.loads(out)["j_th"] == 0.9  # two rows would give 0.4

    def test_min_confidence_admits_a_set_of_exactly_that_confidence(self, tmp_path, capsys,
                                                                    monkeypatch):
        data = tmp_path / "d.csv"  # a: 26 of 40 rows (fitness 12/40), b: 7 of 10 (4/40)
        rows = [("a", 1)] * 26 + [("a", 0)] * 14 + [("b", 1)] * 7 + [("b", 0)] * 3 \
            + [("c", 1)] * 7 + [("c", 0)] * 43
        data.write_text("g,label\n" + "".join(f"{g},{t}\n" for g, t in rows))
        seen = []
        select = cli.select_best
        monkeypatch.setattr(cli, "select_best",
                            lambda c, floor: seen.append(floor) or select(c, floor))
        out = tmp_path / "rules.json"
        code, _, _ = run(capsys, "extract", "--data", data, "--schema", "g:categorical",
                         "--target-column", "label", "--min-support", "5", "--max-rules", "1",
                         "--min-confidence", "0.7", "--out", out)
        assert code == 0
        assert seen == [Fraction(7, 10)] and type(seen[0]) is Fraction
        payload = json.loads(out.read_text())
        assert [c["rules"][0]["value"] for c in payload["candidates"]] == ["a", "b"]
        assert payload["best"]["rules"][0]["value"] == "b"
        assert payload["config"]["min_confidence"] == 0.7
