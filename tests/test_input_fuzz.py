"""Fuzzing of the command-line input files and of argv.

Whatever a ``--config`` file or a spec, sample, rules or features JSON file
holds, and however a working command line is cut up (flags dropped,
duplicated or misspelled, bad values on typed options, stray tokens), a
command ends with a documented exit code (0-4), and a failure writes
exactly one JSON line, ``{"error": ..., "message": ...}``, on stderr.
The data CSVs stay fixed and small; every output goes to a temporary
directory through flags, which override any ``out`` entry of the config.
Sizes that allocate memory in proportion to their value (``n_rows`` of a
spec, ``ig_steps``, ``num_tests``) are drawn from small ranges.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regionrules.cli import main

ROWS = 60


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    x, y = rng.random(ROWS).tolist(), rng.random(ROWS).tolist()
    label = ((np.array(x) > 0.6) | (rng.random(ROWS) < 0.1)).tolist()
    lines = ["f0,f1,g,p,label"]
    for i in range(ROWS):
        f1 = "" if i % 17 == 0 else repr(y[i])
        lines.append(f"{x[i]!r},{f1},{'abc'[i % 3]},{0.8 if label[i] else 0.2},{int(label[i])}")
    (d / "data.csv").write_text("\n".join(lines) + "\n")
    (d / "small.csv").write_text(
        "\n".join(["f0,f1,label"] + [f"{x[i]!r},{y[i]!r},{int(label[i])}" for i in range(ROWS)])
        + "\n"
    )
    (d / "numeric.csv").write_text(
        "\n".join(["f0,f1"] + [f"{x[i]!r},{y[i]!r}" for i in range(ROWS)]) + "\n"
    )
    return d


def _argv(d, command):
    """Fixed flags of each command; everything else comes from the config."""
    data = ["--data", d / "data.csv", "--schema", "g:categorical"]
    return {
        "extract": [*data, "--target-column", "label", "--features-file", d / "features.json",
                    "--out", d / "out.json"],
        "explain": [*data, "--target-column", "label", "--sample-file", d / "sample.json",
                    "--out", d / "out.json"],
        "oracle": ["--data", d / "small.csv", "--target-column", "label", "--out", d / "out.json"],
        "evaluate": [*data, "--target-column", "label", "--rules", d / "rules.json",
                     "--out", d / "out.json"],
        "select-features": ["--data", d / "numeric.csv", "--out", d / "out.json"],
        "threshold": [*data, "--prediction-column", "p", "--label-column", "label",
                      "--out", d / "out.json"],
        "synth": ["--spec-file", d / "spec.json", "--out", d / "synth.csv",
                  "--meta-out", d / "meta.json"],
    }[command]


small_ints = st.integers(-3, 12)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), small_ints,
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["f0", "f1", "g", "p", "label", "a", "b", "1", "0", 10**400, -(10**400)]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8,
)

CONFIG_VALUES = {
    "min_support": small_ints, "max_rules": small_ints, "n_grids": st.integers(-2, 40),
    "max_branches": small_ints, "seed": st.integers(-3, 2**40),
    "min_confidence": st.floats(-0.5, 1.5), "threshold": st.floats(-0.5, 1.5),
    "strategy": st.sampled_from(["uniform", "kmeans", "quantile", "median"]),
    "features": st.sampled_from(["f0", "f0,f1", "g", "f0,f0", "nope", ","]),
    "default_kind": st.sampled_from(["numeric", "categorical", "text"]),
    "missing_token": st.sampled_from(["", "NA", "a"]),
    "target_class": st.sampled_from(["1", "0", "yes"]),
    "label_class": st.sampled_from(["1", "0", "yes"]),
    "row_index": st.integers(-3, ROWS + 3),
    "weights": st.sampled_from(["1,1", "0.5,-2", "1,2,3", "a,b", ""]),
    "scorer_kind": st.sampled_from(["linear", "logistic", "cubic"]),
    "bias": st.floats(-3, 3), "num_tests": st.integers(-3, 80),
    "ig_steps": st.integers(-3, 60), "shift_eps": st.floats(-1, 1),
    "coverage": st.floats(-0.5, 1.5), "min_count": small_ints, "max_size": small_ints,
}


# a working base that the drawn lines amend (a later key wins)
BASE_CONFIG = ["min_support = 5", "max_rules = 2", "n_grids = 4", "weights = 1,1"]


@st.composite
def config_texts(draw):
    lines = list(BASE_CONFIG) if draw(st.booleans()) else []
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=8)):
        value = draw(st.one_of(CONFIG_VALUES[key], st.text(max_size=4), small_ints))
        spelled = key.replace("_", "-") if draw(st.booleans()) else key
        lines.append(f"{spelled} = {value}")
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["no equals sign", "= 3", "# comment", ""])))
    return "\n".join(lines) + "\n"


@st.composite
def spec_payloads(draw):
    bounds = st.lists(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2), max_size=3)
    mode = st.fixed_dictionaries(
        {"bounds": bounds, "purity": st.floats(-0.5, 1.5), "weight": st.floats(-0.5, 1.5)}
    )
    spec = draw(st.fixed_dictionaries(
        {"n_rows": st.integers(-3, 200), "n_features": st.integers(0, 4)},
        optional={
            "modes": st.one_of(st.lists(mode, max_size=2), json_values),
            "background_rate": st.one_of(st.floats(-0.5, 1.5), json_values),
            "seed": st.one_of(st.integers(-3, 2**70), json_values),
            "domain": st.one_of(bounds, json_values),
        },
    ))
    for key in draw(st.lists(st.sampled_from(["n_rows", "n_features"]), max_size=2)):
        spec[key] = draw(st.one_of(st.just(None), st.sampled_from(["x", 1.5, []]), json_values))
    return spec


rule_dicts = st.fixed_dictionaries(
    {},
    optional={
        "feature": st.one_of(st.sampled_from(["f0", "f1", "g", "p", "zz"]), json_values),
        "op": st.sampled_from(["in_interval", "eq", "le"]),
        "lo": st.one_of(st.floats(-1, 2), json_values),
        "hi": st.one_of(st.floats(-1, 2), json_values),
        "value": st.one_of(st.sampled_from(["a", "b", None]), json_values),
    },
)
rules_payloads = st.one_of(
    json_values,
    st.lists(st.fixed_dictionaries({"rules": st.lists(rule_dicts, max_size=3)}), max_size=3),
    st.fixed_dictionaries({"candidates": st.lists(
        st.fixed_dictionaries({"rules": st.lists(rule_dicts, max_size=2)}), max_size=2)}),
)
features_payloads = st.one_of(
    json_values,
    st.fixed_dictionaries({"features": st.lists(
        st.sampled_from(["f0", "f1", "g", "p"]), min_size=1, max_size=3, unique=True)}),
    st.fixed_dictionaries({"features": st.one_of(
        st.lists(st.sampled_from(["f0", "f1", "g", "p", "label", "zz"]), max_size=4),
        json_values)}),
)
sample_payloads = st.one_of(
    json_values,
    st.fixed_dictionaries({"f0": st.floats(-1, 2), "f1": st.floats(-1, 2),
                           "g": st.sampled_from("abc"), "p": st.floats(0, 1)}),
    st.dictionaries(st.sampled_from(["f0", "f1", "g", "p", "zz"]),
                    st.one_of(st.floats(-1, 2), scalars), max_size=4),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    command=st.sampled_from(["extract", "explain", "oracle", "evaluate", "select-features",
                             "threshold", "synth"]),
    config=config_texts(),
    files=st.fixed_dictionaries({
        "spec.json": spec_payloads(), "sample.json": sample_payloads,
        "rules.json": rules_payloads, "features.json": features_payloads,
    }),
)
def test_any_input_file_ends_in_a_documented_exit(workdir, capsys, command, config, files):
    (workdir / "run.cfg").write_text(config, encoding="utf-8")
    for name, payload in files.items():
        (workdir / name).write_text(json.dumps(payload), encoding="utf-8")
    argv = [command, "--config", workdir / "run.cfg", *_argv(workdir, command)]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 3, 4}
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) == {"error", "message"}


# working command lines, amended below; search knobs keep each run small
GOOD_FILES = {
    "features.json": {"features": ["f0", "g"]},
    "sample.json": {"f0": 0.7, "f1": 0.5, "g": "a", "p": 0.8},
    "rules.json": [{"rules": [{"feature": "f0", "op": "in_interval", "lo": 0.6, "hi": 1.0}]}],
    "spec.json": {"n_rows": 200, "n_features": 2, "modes": [
        {"bounds": [[0.2, 0.4], [0.2, 0.4]], "purity": 1.0, "weight": 0.3}]},
}
SEARCH = ["--min-support", "5", "--max-rules", "2", "--n-grids", "4"]
EXTRA = {"extract": SEARCH, "explain": SEARCH, "oracle": SEARCH,
         "select-features": ["--weights", "1,1"]}
# options whose values argparse or the command converts; none of them sizes
# an allocation by its value
TYPED = ["--min-support", "--max-rules", "--n-grids", "--max-branches", "--min-confidence",
         "--threshold", "--seed", "--row-index", "--strategy", "--coverage", "--min-count",
         "--max-size", "--bias", "--scorer-kind", "--shift-eps"]
BAD_VALUES = ["ten", "", "1.5", "-1", "0", "nan", "inf", "1e999", "0x10",
              "99999999999999999999", "--", "-", "linear", "f0"]
STRAY = ["x", "--", "-", "--bogus", "--features", "f0", "1", "--seed"]


def _misspell(flag: str, k: int) -> str:
    return [flag[:-1], flag + "s", flag.replace("-", "_"), flag.upper(), flag[1:],
            flag[:3] + flag[4:]][k]


@st.composite
def argv_edits(draw, base):
    argv = list(base)
    for _ in range(draw(st.integers(1, 3))):
        flags = [i for i, a in enumerate(argv) if a.startswith("--") and len(a) > 2]
        kind = draw(st.sampled_from(["drop", "duplicate", "misspell", "bad value", "stray"]))
        if kind == "bad value":
            argv += [draw(st.sampled_from(TYPED)), draw(st.sampled_from(BAD_VALUES))]
        elif kind == "stray":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
        elif flags:
            i = draw(st.sampled_from(flags))
            pair = argv[i : i + 2] if i + 1 < len(argv) and not argv[i + 1].startswith("--") \
                else argv[i : i + 1]
            if kind == "drop":
                del argv[i : i + len(pair)]
            elif kind == "duplicate":
                argv += pair
            else:
                argv[i] = _misspell(argv[i], draw(st.integers(0, 5)))
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(EXTRA.keys() | {"evaluate", "threshold", "synth"})),
       data=st.data())
def test_any_argv_ends_in_a_documented_exit(workdir, capsys, monkeypatch, command, data):
    monkeypatch.chdir(workdir)  # a stray output path lands in the temporary directory
    for name, payload in GOOD_FILES.items():
        (workdir / name).write_text(json.dumps(payload), encoding="utf-8")
    base = [command, *map(str, _argv(workdir, command)), *EXTRA.get(command, [])]
    argv = data.draw(argv_edits(base))
    code = main(argv)
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 3, 4}
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) == {"error", "message"}


@pytest.mark.parametrize("command", sorted(EXTRA.keys() | {"evaluate", "threshold", "synth"}))
def test_the_unedited_command_lines_work(workdir, capsys, command):
    for name, payload in GOOD_FILES.items():
        (workdir / name).write_text(json.dumps(payload), encoding="utf-8")
    argv = [command, *map(str, _argv(workdir, command)), *EXTRA.get(command, [])]
    assert main(argv) == 0, capsys.readouterr().err
