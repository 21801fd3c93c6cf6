"""Seeded inputs, one operation and the output checks for each workload.

The benchmark makes its own inputs with numpy from the seed; the program
receives only the generated tables and files. Planted structure sits at fixed
places so that the shape of the search, and with it the work done, is the
same for every seed; only the noise draws change.

- ``numeric_search``: ``extract_rule_sets`` in memory on 1,000,000 rows x 10
  uniform numeric features. The numeric kernel (grid counts, interval
  screening, child masks) does nearly all the work.
- ``mixed_search``: ``extract_rule_sets`` in memory on 200,000 rows, 8 numeric
  features with 1% missing cells and 2 categorical features (4 and 12
  levels), ``kmeans`` binning. The per-row categorical comparisons do most
  of the work.
- ``cli_pipeline``: ``select-features --matrix``, ``extract --features-file``
  and ``evaluate`` run in-process through ``regionrules.cli.main``. Parsing
  the CSV files does most of the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from regionrules import cli, extraction, metrics, serialize, tabular
from regionrules.extraction import ExtractionConfig, Interval

DEFAULT_SEED = 0


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


# ---------------------------------------------------------------------------
# Input generation


def _rect(x, y, xb, yb):
    return (x >= xb[0]) & (x <= xb[1]) & (y >= yb[0]) & (y <= yb[1])


NUMERIC_ROWS = 1_000_000
NUMERIC_FEATURES = 10
# (x feature, y feature, x bounds, y bounds, purity); each covers 1% of rows
NUMERIC_RECTS = ((0, 1, (0.3, 0.4), (0.6, 0.7), 0.9), (2, 3, (0.5, 0.6), (0.1, 0.2), 0.8))
BACKGROUND = 0.05


def gen_numeric(seed: int, rows: int = NUMERIC_ROWS):
    rng = np.random.default_rng(seed)
    x = rng.random((NUMERIC_FEATURES, rows))  # one contiguous row per column
    p = np.full(rows, BACKGROUND)
    for fx, fy, xb, yb, purity in NUMERIC_RECTS:
        p[_rect(x[fx], x[fy], xb, yb)] = purity
    flags = rng.random(rows) < p
    table = tabular.DataTable(
        tuple(tabular.FeatureColumn(f"x{j}", "numeric", x[j]) for j in range(len(x)))
    )
    return table, tabular.TargetIndicator(flags)


MIXED_ROWS = 200_000
MIXED_NUMERIC = 8
MIXED_LEVELS = (4, 12)
MISSING_SHARE = 0.01


def gen_mixed(seed: int, rows: int = MIXED_ROWS):
    """Target rate is a product of factors, so level 0 of each categorical
    feature stays the only level with a ratio above 1 under any condition,
    and the numeric bump on x0 has a single peak grid."""
    rng = np.random.default_rng(seed)
    x = rng.random((MIXED_NUMERIC, rows))
    bump = np.maximum(0.0, 1.0 - np.abs(x[0] - 0.45) / 0.1)
    x[rng.random(x.shape) < MISSING_SHARE] = np.nan
    codes = [rng.integers(0, n, rows) for n in MIXED_LEVELS]
    p = 0.03 * (1.0 + 3.0 * bump) * np.where(codes[0] == 0, 2.5, 1.0) * np.where(
        codes[1] == 0, 3.0, 1.0
    )
    flags = rng.random(rows) < p
    cols = [tabular.FeatureColumn(f"x{j}", "numeric", x[j]) for j in range(len(x))]
    for name, c, n in zip(("c0", "c1"), codes, MIXED_LEVELS):
        vocab = np.array([f"{name}_{k:02d}" for k in range(n)], dtype=object)
        cols.append(tabular.FeatureColumn(name, "categorical", vocab[c]))
    return tabular.DataTable(tuple(cols)), tabular.TargetIndicator(flags)


CLI_ROWS = 100_000
CLI_FEATURES = 24
CLI_SEG_LEVELS = 6
MATRIX_ROWS = 20_000
PLANTED_FEATURES = ["x0", "x1", "x2", "x3"]


def gen_cli_arrays(seed: int, rows: int = CLI_ROWS, matrix_rows: int = MATRIX_ROWS):
    """Arrays behind the two CSV files.

    Values are multiples of 1e-6 written with six decimals, so parsing the
    file gives back exactly these floats. In the importance matrix x0-x3
    score at least 0.5 in every row and the noise features rarely do, so
    the threshold scan and FP-Growth select x0-x3 for every seed.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1_000_000, (CLI_FEATURES, rows)) / 1e6
    p = np.full(rows, BACKGROUND)
    for fx, fy, xb, yb, purity in NUMERIC_RECTS:
        p[_rect(x[fx], x[fy], xb, yb)] = purity
    label = (rng.random(rows) < p).astype(np.int64)
    x[rng.random(x.shape) < MISSING_SHARE] = np.nan
    seg = rng.integers(0, CLI_SEG_LEVELS, rows)
    imp = 0.6 * rng.random((matrix_rows, CLI_FEATURES)) ** 4
    imp[:, : len(PLANTED_FEATURES)] = 0.5 + 0.5 * rng.random((matrix_rows, len(PLANTED_FEATURES)))
    imp = np.maximum(np.round(imp * 1e6), 1) / 1e6
    return x, seg, label, imp


def _fmt(v: float) -> str:
    return "" if v != v else f"{v:.6f}"


def write_cli_inputs(seed: int, workdir: Path, rows: int = CLI_ROWS,
                     matrix_rows: int = MATRIX_ROWS) -> None:
    x, seg, label, imp = gen_cli_arrays(seed, rows, matrix_rows)
    names = [f"x{j}" for j in range(len(x))]
    with open(workdir / "data.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names + ["seg", "label"]) + "\n")
        for i, row in enumerate(x.T.tolist()):
            cells = [_fmt(v) for v in row]
            fh.write(",".join(cells) + f",s{seg[i]},{label[i]}\n")
    row_fmt = ",".join(["%.6f"] * imp.shape[1]) + "\n"
    with open(workdir / "importance.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in imp.tolist():
            fh.write(row_fmt % tuple(row))


def cli_check_table(seed: int, rows: int = CLI_ROWS, matrix_rows: int = MATRIX_ROWS):
    """The feature table and target of data.csv, built without parsing it."""
    x, seg, label, _ = gen_cli_arrays(seed, rows, matrix_rows)
    cols = [tabular.FeatureColumn(f"x{j}", "numeric", x[j]) for j in range(len(x))]
    cols.append(tabular.FeatureColumn("seg", "categorical", np.array([f"s{s}" for s in seg], dtype=object)))
    return tabular.DataTable(tuple(cols)), tabular.TargetIndicator(label == 1)


# ---------------------------------------------------------------------------
# Checks shared by all workloads


def _rule_key(table, rule) -> list:
    name = table.column(rule.feature).name
    if isinstance(rule.predicate, Interval):
        return [name, "in_interval", rule.predicate.lo.hex(), rule.predicate.hi.hex()]
    return [name, "eq", rule.predicate.token]


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_rule_sets(table, target, config: ExtractionConfig, rule_lists, support, tp, step_ratios):
    """Check emitted rule sets against a recount; return the digest payload.

    ``rule_lists[i]`` are the rules of set i in extraction order, with the
    reported ``support[i]``, ``tp[i]`` and ``step_ratios[i]`` (exact
    Fractions, or floats when read back from JSON).
    """
    if not rule_lists:
        raise CheckFailed("no rule sets emitted")
    prefixes = dict.fromkeys(tuple(r[:k]) for r in rule_lists for k in range(1, len(r) + 1))
    report = metrics.evaluate(table, target, list(prefixes))
    counted = {e.rules: (e.support, e.tp) for e in report.entries}
    prior = Fraction(int(target.flags.sum()), table.n_rows)
    payload = []
    for i, rules in enumerate(rule_lists):
        rules = tuple(rules)
        if support[i] < config.min_support:
            raise CheckFailed(f"set {i}: support {support[i]} below {config.min_support}")
        if not 1 <= len(rules) <= config.max_rules:
            raise CheckFailed(f"set {i}: {len(rules)} rules, cap {config.max_rules}")
        if counted[rules] != (support[i], tp[i]):
            raise CheckFailed(f"set {i}: reported {(support[i], tp[i])}, recount {counted[rules]}")
        if len(step_ratios[i]) != len(rules):
            raise CheckFailed(f"set {i}: {len(step_ratios[i])} ratios for {len(rules)} rules")
        conf = prior
        for k, ratio in enumerate(step_ratios[i]):
            n_k, t_k = counted[rules[: k + 1]]
            step = Fraction(t_k, n_k)
            exact = step / conf
            if not isinstance(ratio, Fraction):
                exact = float(exact)  # ratios read back from JSON
            if exact != ratio:
                raise CheckFailed(f"set {i} step {k}: conf_k != conf_(k-1) * ratio_k")
            conf = step
        payload.append({"rules": [_rule_key(table, r) for r in rules],
                        "support": support[i], "tp": tp[i]})
    return payload


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # rows of the searched table, for rows_per_s
    # the timed operation: inputs -> output; outputs of equal runs compare equal
    op: Callable
    # untimed check of one output: (inputs, output) -> digest
    verify: Callable


def _search_op(config):
    def op(inputs):
        table, target = inputs
        return tuple(extraction.extract_rule_sets(table, target, range(len(table.columns)), config))
    return op


def _search_verify(config):
    def verify(inputs, sets):
        table, target = inputs
        payload = check_rule_sets(
            table, target, config,
            [rs.rules for rs in sets],
            [rs.stats.support for rs in sets],
            [rs.stats.tp for rs in sets],
            [rs.stats.step_ratios for rs in sets],
        )
        return _digest(payload)
    return verify


NUMERIC_CONFIG = ExtractionConfig(min_support=2000, max_rules=3, n_grids=10,
                                  max_branches=3, strategy="uniform")
MIXED_CONFIG = ExtractionConfig(min_support=1000, max_rules=3, n_grids=10,
                                max_branches=3, strategy="kmeans")
CLI_CONFIG = ExtractionConfig(min_support=500, max_rules=3, n_grids=10,
                              max_branches=3, strategy="uniform")


@dataclass
class CliInputs:
    seed: int
    workdir: Path
    rows: int = CLI_ROWS
    matrix_rows: int = MATRIX_ROWS


def cli_argv(d: Path, config: ExtractionConfig) -> list[list[str]]:
    """The three commands of one operation, reading and writing under ``d``."""
    return [
        ["select-features", "--matrix", str(d / "importance.csv"), "--out", str(d / "selection.json")],
        ["extract", "--data", str(d / "data.csv"), "--schema", "seg:categorical",
         "--target-column", "label", "--features-file", str(d / "selection.json"),
         "--min-support", str(config.min_support), "--max-rules", str(config.max_rules),
         "--n-grids", str(config.n_grids), "--max-branches", str(config.max_branches),
         "--strategy", config.strategy, "--out", str(d / "rules.json")],
        ["evaluate", "--data", str(d / "data.csv"), "--schema", "seg:categorical",
         "--target-column", "label", "--rules", str(d / "rules.json"),
         "--out", str(d / "report.json")],
    ]


CLI_OUTPUTS = ("selection.json", "rules.json", "report.json")


def cli_op(inputs: CliInputs):
    d = inputs.workdir
    for name in CLI_OUTPUTS:
        (d / name).unlink(missing_ok=True)
    codes = []
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        for argv in cli_argv(d, CLI_CONFIG):
            codes.append(cli.main(argv))
    if any(codes):
        raise CheckFailed(f"exit codes {codes}")
    return (text.getvalue(),) + tuple((d / n).read_text(encoding="utf-8") for n in CLI_OUTPUTS)


def cli_verify(inputs: CliInputs, output) -> str:
    selection, rules, report = (json.loads(t) for t in output[1:])
    if selection["features"] != PLANTED_FEATURES:
        raise CheckFailed(f"selected {selection['features']}, planted {PLANTED_FEATURES}")
    table, target = cli_check_table(inputs.seed, inputs.rows, inputs.matrix_rows)
    cands = rules["candidates"]
    if rules["target"] != {"label": "1", "count": target.count, "table_rows": table.n_rows}:
        raise CheckFailed(f"target block {rules['target']} disagrees with the input")
    rule_lists = [serialize.rules_from_dict(table, c) for c in cands]
    support = [c["support"] for c in cands]
    # confidence is written as float(tp / support); recover tp and require
    # it to reproduce the written value exactly
    tp = [round(c["confidence"] * c["support"]) for c in cands]
    for i, c in enumerate(cands):
        if float(Fraction(tp[i], support[i])) != c["confidence"]:
            raise CheckFailed(f"set {i}: confidence {c['confidence']} is not a count ratio")
    payload = check_rule_sets(table, target, CLI_CONFIG, rule_lists, support, tp,
                              [c["step_ratios"] for c in cands])
    if rules["best"] not in cands:
        raise CheckFailed("best rule set is not among the candidates")
    evaluated = [(e["rules"], e["support"]) for e in report["rule_sets"]]
    if evaluated != [(c["rules"], c["support"]) for c in cands]:
        raise CheckFailed("evaluate disagrees with extract")
    return _digest({"features": selection["features"], "j_th": float(selection["j_th"]).hex(),
                    "rule_sets": payload})


WORKLOADS = {
    "numeric_search": Workload("numeric_search", NUMERIC_ROWS,
                               _search_op(NUMERIC_CONFIG), _search_verify(NUMERIC_CONFIG)),
    "mixed_search": Workload("mixed_search", MIXED_ROWS,
                             _search_op(MIXED_CONFIG), _search_verify(MIXED_CONFIG)),
    "cli_pipeline": Workload("cli_pipeline", CLI_ROWS, cli_op, cli_verify),
}

GENERATORS = {"numeric_search": gen_numeric, "mixed_search": gen_mixed}
