import json
from pathlib import Path

import numpy as np
import pytest

from regionrules.cli import main

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

    def test_non_numeric_weights_are_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "select-features", "--data", FIXTURES / "two_mode.csv",
            "--weights", "a,b,c",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"


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

    def test_target_prior_one_reports_no_rules(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,label\n" + "".join(f"{v},1\n" for v in range(20)))
        out = tmp_path / "rules.json"
        code, _, _ = run(
            capsys, "extract", "--data", data, "--target-column", "label",
            "--min-support", "5", "--max-rules", "1", "--out", out,
        )
        assert code == 4
        payload = json.loads(out.read_text())
        assert payload["result"] == "none"
        assert payload["candidates"] == []
        assert payload["best"] is None

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
        code, out, _ = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--n-grids", "4",
            "--row-index", "2",  # x = 0.4 sits in the weak first grid
        )
        assert code == 4
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

    def test_bad_row_index(self, fixture_csv, capsys):
        code, _, err = run(
            capsys, "explain", "--data", fixture_csv,
            "--prediction-column", "p", "--threshold", "0.5",
            "--min-support", "8", "--max-rules", "1", "--row-index", "99",
        )
        assert code == 2
        assert json.loads(err)["error"] == "RangeError"


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
        assert json.loads(err)["error"] == "ZeroSupportError"

    @pytest.mark.parametrize("key", ["feature", "value"])
    def test_rule_without_a_field_is_a_data_error(self, missing_group_csv, capsys, key):
        rule = {"feature": "group", "op": "eq", "value": "A"}
        del rule[key]
        code, _, err = self.evaluate(capsys, missing_group_csv, rule)
        assert code == 2
        assert json.loads(err)["error"] == "SchemaError"


class TestThreshold:
    def test_roc_threshold(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        data.write_text("p,y\n0.1,0\n0.4,0\n0.6,1\n0.9,1\n")
        code, out, _ = run(
            capsys, "threshold", "--data", data,
            "--prediction-column", "p", "--label-column", "y",
        )
        assert code == 0
        assert json.loads(out)["threshold"] == 0.5

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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_version(self, capsys):
        assert main(["--version"]) == 0
