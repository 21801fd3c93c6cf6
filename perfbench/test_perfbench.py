"""Tests of the benchmark's own span recorder and output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

They use small generated inputs, so they take seconds, not minutes.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from regionrules import binning, extraction, tabular  # noqa: E402
from regionrules.extraction import ExtractionConfig  # noqa: E402

SMALL_MIXED = ExtractionConfig(min_support=200, max_rules=3, n_grids=10,
                               max_branches=3, strategy="kmeans")


@pytest.fixture(scope="module")
def mixed_inputs():
    return workloads.gen_mixed(3, rows=20_000)


def _traced_search(inputs, config, targets=spans.TARGETS):
    table, target = inputs
    rec = spans.Recorder(targets)
    with rec.installed(), rec.root("op") as root:
        sets = extraction.extract_rule_sets(table, target, range(len(table.columns)), config)
    return rec, root, sets


def _counts(rec, root):
    summary = rec.root_summary(root)
    return {k: spans.LAYER_METRICS[k][2](summary) for k in spans.EXACT_COUNTS}


def test_node_identity_holds_and_counts_repeat(mixed_inputs):
    runs = [_traced_search(mixed_inputs, SMALL_MIXED) for _ in range(2)]
    for rec, root, sets in runs:
        assert rec.identity_violations(root) == []
        assert rec.counts[root]["extraction.rule_sets.emitted"] == len(sets)
    assert _counts(*runs[0][:2]) == _counts(*runs[1][:2])
    assert runs[0][2] == runs[1][2]
    counts = _counts(*runs[0][:2])
    # some candidates were pruned, so the identity was not trivially met
    assert counts["extraction.candidates_kept"] > counts["extraction.nodes.d1"] + \
        counts["extraction.nodes.d2"] + counts["extraction.nodes.d3"]


def test_a_constant_feature_counts_one_skip_per_expanded_node(mixed_inputs):
    table, target = mixed_inputs
    constant = tabular.FeatureColumn("const", "numeric", np.ones(table.n_rows))
    table = tabular.DataTable(table.columns + (constant,))
    rec, root, _ = _traced_search((table, target), SMALL_MIXED)
    counts = rec.counts[root]
    assert counts["extraction.degenerate_skips"] == counts["extraction.nodes_expanded"] > 0
    assert rec.identity_violations(root) == []


def test_identity_check_reports_a_wrong_child_count(mixed_inputs):
    rec, root, _ = _traced_search(mixed_inputs, SMALL_MIXED)
    span = next(s for s in rec.spans if s[2] == "extraction.add_rules" and s[5]["children"])
    span[5]["children"] -= 1
    assert len(rec.identity_violations(root)) == 1


def test_self_times_add_up_to_the_operation(mixed_inputs):
    rec, root, _ = _traced_search(mixed_inputs, SMALL_MIXED)
    summary = rec.root_summary(root)
    assert sum(summary.self_s.values()) == pytest.approx(summary.total_s["op"])
    assert all(v >= 0 for v in summary.self_s.values())


def test_patches_are_undone_and_calls_outside_a_root_record_nothing(mixed_inputs):
    table, target = mixed_inputs
    original = binning.grid_counts
    rec = spans.Recorder()
    with rec.installed():
        assert extraction.grid_counts is not original
        assert binning.grid_counts is extraction.grid_counts
        extraction.extract_rule_sets(table, target, [0, 1], SMALL_MIXED)
    assert rec.spans == []
    assert binning.grid_counts is original and extraction.grid_counts is original


def test_missing_target_is_reported_absent(mixed_inputs):
    targets = spans.TARGETS + (
        spans.Target("regionrules.extraction", "_no_such_function", "gone.a"),
        spans.Target("regionrules.no_such_module", "f", "gone.b"),
    )
    rec, root, _ = _traced_search(mixed_inputs, SMALL_MIXED, targets)
    assert rec.absent == ["regionrules.extraction._no_such_function",
                          "regionrules.no_such_module.f"]
    layers = spans.layer_metrics([rec.root_summary(root)], None)
    assert set(layers) == set(spans.LAYER_METRICS) | {"tabular.table_build.s"}


def test_search_check_passes_and_catches_a_wrong_count(mixed_inputs):
    verify = workloads._search_verify(SMALL_MIXED)
    sets = workloads._search_op(SMALL_MIXED)(mixed_inputs)
    assert len(verify(mixed_inputs, sets)) == 64
    bad = replace(sets[0], stats=replace(sets[0].stats, tp=sets[0].stats.tp - 1))
    with pytest.raises(workloads.CheckFailed):
        verify(mixed_inputs, (bad,) + sets[1:])


def test_cli_pipeline_check_passes_and_catches_a_wrong_support(tmp_path):
    inputs = workloads.CliInputs(5, tmp_path, rows=20_000, matrix_rows=2_000)
    workloads.write_cli_inputs(inputs.seed, tmp_path, inputs.rows, inputs.matrix_rows)
    out = workloads.cli_op(inputs)
    assert len(workloads.cli_verify(inputs, out)) == 64
    rules = json.loads(out[2])
    rules["candidates"][0]["support"] += 1
    with pytest.raises(workloads.CheckFailed):
        workloads.cli_verify(inputs, out[:2] + (json.dumps(rules),) + out[3:])
