"""Command-line frontend.

Subcommands: select-features, extract, explain, evaluate, threshold, synth,
oracle. Every knob can come from a flat ``key = value`` config file
(``--config``); command-line flags override file values. Exit codes: 0 ok,
1 usage error, 2 data error, 3 infeasible configuration, 4 empty result.
Log verbosity comes from the ``REGIONRULES_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import attribution, metrics
from .attribution import (
    DifferentiableScorer,
    balanced_sample,
    build_importance_matrix,
    class_centroids,
    load_importance_matrix,
    scan_threshold,
    to_feature_sequences,
)
from .errors import (
    ConfigError,
    DegenerateFeatureError,
    DegenerateLabelsError,
    DomainError,
    EmptyMatrixError,
    EmptyResultError,
    InfeasibleConfigError,
    NoFeatureError,
    NoTargetError,
    ParseError,
    RangeError,
    SchemaError,
    ShapeError,
    SpecError,
    TooLargeError,
    ZeroSupportError,
)
from .extraction import (
    ExtractionConfig,
    count_ratios,
    extract_local,
    extract_rule_sets,
    numeric_histogram,
    select_best,
)
from .itemsets import fp_growth, pick_feature_set
from .serialize import rule_set_to_dict, rules_from_dict
from .synth import PlantedMode, PlantedSpec, brute_force_best, gen_synthetic
from .tabular import (
    CATEGORICAL,
    NUMERIC,
    DataTable,
    FeatureColumn,
    TargetIndicator,
    load_csv,
    make_target,
    roc_threshold,
)

log = logging.getLogger("regionrules")

USAGE_EXIT = 1
DATA_EXIT = 2
INFEASIBLE_EXIT = 3
EMPTY_EXIT = 4

_DATA_ERRORS = (
    ParseError,
    SchemaError,
    DomainError,
    ShapeError,
    RangeError,
    DegenerateLabelsError,
    DegenerateFeatureError,
    NoTargetError,
    ZeroSupportError,
    SpecError,
    OSError,
    json.JSONDecodeError,
)
_INFEASIBLE_ERRORS = (InfeasibleConfigError, TooLargeError)
_EMPTY_ERRORS = (EmptyResultError, NoFeatureError, EmptyMatrixError)

# converters used for values coming from a config file
_TYPES = {
    "min_support": int,
    "max_rules": int,
    "n_grids": int,
    "max_branches": int,
    "min_confidence": float,
    "seed": int,
    "coverage": float,
    "min_count": int,
    "max_size": int,
    "ig_steps": int,
    "shift_eps": float,
    "threshold": float,
    "bias": float,
    "num_tests": int,
    "row_index": int,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_config_file(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


class _Settings:
    """Three layers: command-line flag > config-file entry > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.args, key, None)
        if value is None and key in self.file:
            raw = self.file[key]
            conv = _TYPES.get(key, str)
            try:
                value = conv(raw)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
        if value is None:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path in (None, "-"):
        print(text)
    else:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def _csv_header(path: str) -> list[str]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            return next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path} is empty (no header row)") from None


def _schema_from_settings(settings: _Settings, path: str) -> dict[str, str]:
    header = _csv_header(path)
    declared = {}
    raw = settings.get("schema")
    if raw:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ConfigError(f"--schema entry {part!r} must be name:kind")
            name, kind = part.rsplit(":", 1)
            declared[name.strip()] = kind.strip()
    default_kind = settings.get("default_kind", "numeric")
    if default_kind not in (NUMERIC, CATEGORICAL):
        raise ConfigError("--default-kind must be numeric or categorical")
    for name in header:
        declared.setdefault(name, default_kind)
    return declared


def _load_table(settings: _Settings) -> DataTable:
    path = settings.get("data", required=True)
    schema = _schema_from_settings(settings, path)
    table = load_csv(path, schema, missing_token=settings.get("missing_token", ""))
    log.info("loaded %d rows x %d columns from %s", table.n_rows, len(table.columns), path)
    return table


def _build_target(settings: _Settings, table: DataTable):
    """Target indicator plus the feature table with target columns dropped."""
    pred_col = settings.get("prediction_column")
    target_col = settings.get("target_column")
    target_class = settings.get("target_class", "1")
    if (pred_col is None) == (target_col is None):
        raise ConfigError("give exactly one of --prediction-column / --target-column")
    if pred_col is not None:
        col = table.column(pred_col)
        if col.kind != NUMERIC:
            raise SchemaError(f"prediction column {pred_col!r} must be numeric")
        threshold = settings.get("threshold", required=True)
        target = make_target(col.values, float(threshold), target_label=target_class)
        features = table.drop([pred_col])
    else:
        flags = _class_flags(table.column(target_col), target_class)
        target = TargetIndicator(flags=flags, target_label=target_class)
        features = table.drop([target_col])
    return target, features


def _class_flags(col: FeatureColumn, label: str) -> np.ndarray:
    """Rows of a label column that hold class ``label``."""
    if col.kind == CATEGORICAL:
        return col.equals_mask(label)
    try:
        return col.values == float(label)
    except ValueError:
        raise ConfigError(
            f"class {label!r} is not a number but column {col.name!r} is numeric"
        ) from None


def _feature_indices(settings: _Settings, table: DataTable) -> list[int]:
    names: list[str] | None = None
    raw = settings.get("features")
    if raw:
        names = [n.strip() for n in raw.split(",") if n.strip()]
    ffile = settings.get("features_file")
    if ffile:
        payload = json.loads(Path(ffile).read_text(encoding="utf-8"))
        names = payload.get("features") if isinstance(payload, dict) else None
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SchemaError(f'{ffile}: "features" must be a list of column names')
    if names is None:
        names = table.feature_names
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ConfigError(f"features listed more than once: {dupes}")
    return [table.column_index(n) for n in names]


def _extraction_config(settings: _Settings) -> ExtractionConfig:
    return ExtractionConfig(
        min_support=settings.get("min_support", required=True),
        max_rules=settings.get("max_rules", required=True),
        n_grids=settings.get("n_grids", 7),
        max_branches=settings.get("max_branches", 3),
        strategy=settings.get("strategy", "uniform"),
        min_confidence=settings.get("min_confidence", 0.8),
        seed=settings.get("seed", 0),
    )


def _config_echo(config: ExtractionConfig) -> dict:
    return {
        "min_support": config.min_support,
        "max_rules": config.max_rules,
        "n_grids": config.n_grids,
        "max_branches": config.max_branches,
        "strategy": config.strategy,
        "min_confidence": config.min_confidence,
        "seed": config.seed,
    }


def _root_histograms(table, target, feature_indices, config) -> list[dict]:
    """Unconditioned histograms of the search, for external plotting; ratios
    are the exact ratios rounded once to float."""
    rows = np.arange(table.n_rows)
    out = []
    for f in feature_indices:
        col = table.column(f)
        entry: dict = {"feature": col.name}
        try:
            if col.kind == NUMERIC:
                hist = numeric_histogram(col, target.flags, rows, config, f)[0]
                tc, nc = list(hist.target_counts), list(hist.total_counts)
                entry["edges"] = [float(e) for e in hist.edges]
            else:
                tc, nc = col.category_counts(rows[target.flags]), col.category_counts(rows)
                entry["categories"] = col.vocabulary
            ratios = count_ratios(tc, nc, table.n_rows, target.count)
            entry.update(target_counts=tc, total_counts=nc, ratios=list(map(float, ratios)))
        except DegenerateFeatureError as exc:
            entry["skipped"] = str(exc)
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_select_features(settings: _Settings) -> int:
    matrix_path = settings.get("matrix")
    if matrix_path:
        matrix = load_importance_matrix(matrix_path)
        names = list(matrix.feature_names)
    else:
        table = _load_table(settings)
        names = table.feature_names
        X = table.numeric_matrix(names)
        if np.isnan(X).any():
            raise DomainError("scorer features must not contain missing values")
        weights = str(settings.get("weights", required=True))
        try:
            weights = tuple(float(w) for w in weights.split(","))
        except ValueError:
            raise ConfigError(f"--weights must be numbers, got {weights!r}") from None
        scorer = DifferentiableScorer(
            kind=settings.get("scorer_kind", "logistic"),
            weights=weights,
            bias=settings.get("bias", 0.0),
        )
        if scorer.n_features != X.shape[1]:
            raise ShapeError(
                f"{scorer.n_features} weights for {X.shape[1]} feature columns"
            )
        scores = scorer.score(X)
        classes = (np.asarray(scores) > settings.get("threshold", 0.5)).astype(int)
        baselines, _ = class_centroids(X, classes)
        tests = X[balanced_sample(classes, settings.get("num_tests", 200),
                                  settings.get("seed", 0))]
        matrix = build_importance_matrix(
            scorer,
            baselines,
            tests,
            steps=settings.get("ig_steps", attribution.DEFAULT_IG_STEPS),
            eps=settings.get("shift_eps", attribution.DEFAULT_SHIFT_EPS),
        )

    gamma = settings.get("coverage", attribution.DEFAULT_COVERAGE)
    c_min = settings.get("min_count")
    if c_min is None:
        c_min = max(1, round(0.1 * matrix.n_rows))
    k_max = settings.get("max_size", matrix.n_features)

    log.info("importance matrix: %d rows x %d features", matrix.n_rows, matrix.n_features)
    j_th = scan_threshold(matrix, gamma)
    sequences = to_feature_sequences(matrix, j_th)
    itemsets = fp_growth(sequences, c_min, k_max)
    chosen = pick_feature_set(itemsets)

    _emit(
        {
            "features": [names[i] for i in sorted(chosen)],
            "j_th": j_th,
            "itemsets": [
                {"items": [names[i] for i in s.sorted_items()], "count": s.count}
                for s in itemsets
            ],
        },
        settings.get("out"),
    )
    return 0


def _cmd_extract(settings: _Settings) -> int:
    table = _load_table(settings)
    target, features = _build_target(settings, table)
    feature_indices = _feature_indices(settings, features)
    config = _extraction_config(settings)

    log.info("target subgroup: %d of %d rows", target.count, features.n_rows)
    candidates = extract_rule_sets(features, target, feature_indices, config)
    log.info("search returned %d candidate rule sets", len(candidates))
    best = select_best(candidates, config.min_confidence) if candidates else None
    payload = {
        "config": _config_echo(config),
        "target": {
            "label": target.target_label,
            "count": target.count,
            "table_rows": features.n_rows,
        },
        "features": [features.column(i).name for i in feature_indices],
        "candidates": [rule_set_to_dict(features, rs) for rs in candidates],
        "best": rule_set_to_dict(features, best) if best else None,
        "histograms": _root_histograms(features, target, feature_indices, config),
    }
    if not candidates:
        payload["result"] = "none"
        payload["reason"] = "no candidate rule reached ratio > 1 at the support floor"
    _emit(payload, settings.get("out"))
    return 0 if candidates else EMPTY_EXIT


def _cmd_explain(settings: _Settings) -> int:
    table = _load_table(settings)
    target, features = _build_target(settings, table)
    feature_indices = _feature_indices(settings, features)
    config = _extraction_config(settings)

    row_index = settings.get("row_index")
    sample_file = settings.get("sample_file")
    if (row_index is None) == (sample_file is None):
        raise ConfigError("give exactly one of --row-index / --sample-file")
    if row_index is not None:
        values = features.row_values(int(row_index))  # RangeError on bad index
        sample = {features.column_index(k): v for k, v in values.items()}
    else:
        named = json.loads(Path(sample_file).read_text(encoding="utf-8"))
        sample = {features.column_index(k): v for k, v in named.items()}
    sample = {f: sample[f] for f in feature_indices if f in sample}

    result = extract_local(features, target, feature_indices, sample, config)
    if result is None:
        _emit(
            {"result": "none", "reason": "no value interval has ratio above 1"},
            settings.get("out"),
        )
        return EMPTY_EXIT
    _emit(rule_set_to_dict(features, result), settings.get("out"))
    return 0


def _rule_dicts_from_file(path: str) -> list[dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, list):
        return payload
    if "candidates" in payload:
        return payload["candidates"]
    if "rule_sets" in payload:
        return payload["rule_sets"]
    if "rules" in payload:
        return [payload]
    raise SchemaError(f"{path} does not look like a rule-set file")


def _cmd_evaluate(settings: _Settings) -> int:
    table = _load_table(settings)
    target, features = _build_target(settings, table)
    dicts = _rule_dicts_from_file(settings.get("rules", required=True))
    rule_lists = [rules_from_dict(features, d) for d in dicts]
    report = metrics.evaluate(features, target, rule_lists)
    out = settings.get("out")
    if out in (None, "-"):
        print(metrics.report_text(features, report))
    else:
        _emit(metrics.report_json(features, report), out)
        print(metrics.report_text(features, report))
    return 0


def _cmd_threshold(settings: _Settings) -> int:
    table = _load_table(settings)
    pred = table.column(settings.get("prediction_column", required=True))
    if pred.kind != NUMERIC:
        raise SchemaError("prediction column must be numeric")
    label_col = table.column(settings.get("label_column", required=True))
    labels = _class_flags(label_col, settings.get("label_class", "1"))
    t = roc_threshold(pred.values, labels)
    _emit({"threshold": t}, settings.get("out"))
    return 0


def _cmd_synth(settings: _Settings) -> int:
    spec_payload = json.loads(
        Path(settings.get("spec_file", required=True)).read_text(encoding="utf-8")
    )
    modes = tuple(
        PlantedMode(
            bounds=tuple((float(a), float(b)) for a, b in m["bounds"]),
            purity=float(m["purity"]),
            weight=float(m["weight"]),
        )
        for m in spec_payload.get("modes", [])
    )
    spec = PlantedSpec(
        n_rows=int(spec_payload["n_rows"]),
        n_features=int(spec_payload["n_features"]),
        modes=modes,
        background_rate=float(spec_payload.get("background_rate", 0.0)),
        seed=int(spec_payload.get("seed", 0)),
        domain=tuple(
            (float(a), float(b)) for a, b in spec_payload["domain"]
        )
        if "domain" in spec_payload
        else None,
    )
    table, target, summaries = gen_synthetic(spec)

    out_path = settings.get("out", required=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.feature_names + ["label"])
        for i in range(table.n_rows):
            row = [repr(float(c.values[i])) for c in table.columns]
            row.append("1" if target.flags[i] else "0")
            writer.writerow(row)

    meta_out = settings.get("meta_out")
    if meta_out:
        _emit(
            {
                "n_rows": spec.n_rows,
                "seed": spec.seed,
                "target_count": target.count,
                "modes": [
                    {
                        "bounds": [list(b) for b in s.bounds],
                        "rows_inside": s.rows_inside,
                        "target_inside": s.target_inside,
                    }
                    for s in summaries
                ],
            },
            meta_out,
        )
    return 0


def _cmd_oracle(settings: _Settings) -> int:
    table = _load_table(settings)
    target, features = _build_target(settings, table)
    best = brute_force_best(
        features,
        target,
        n_g=settings.get("n_grids", 7),
        l_max=settings.get("max_rules", required=True),
        s_min=settings.get("min_support", required=True),
        strategy=settings.get("strategy", "uniform"),
        seed=settings.get("seed", 0),
    )
    _emit(rule_set_to_dict(features, best), settings.get("out"))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value file; flags override it")
    p.add_argument("--out", help="output path for JSON ('-' or omitted: stdout)")
    p.add_argument("--seed", type=int)


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="feature CSV with a header row")
    p.add_argument("--schema", help="comma-separated name:kind declarations")
    p.add_argument("--default-kind", dest="default_kind",
                   help="kind for columns not named in --schema (default numeric)")
    p.add_argument("--missing-token", dest="missing_token",
                   help="cell value treated as missing (default empty string)")


def _add_target_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prediction-column", dest="prediction_column",
                   help="numeric column of predicted probabilities")
    p.add_argument("--threshold", type=float,
                   help="strict decision threshold for the prediction column")
    p.add_argument("--target-column", dest="target_column",
                   help="column holding the predicted class labels")
    p.add_argument("--target-class", dest="target_class",
                   help="class of interest (default '1')")


def _add_extraction_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", help="comma-separated feature names to search")
    p.add_argument("--features-file", dest="features_file",
                   help="JSON from select-features ({'features': [...]})")
    p.add_argument("--min-support", dest="min_support", type=int)
    p.add_argument("--max-rules", dest="max_rules", type=int)
    p.add_argument("--n-grids", dest="n_grids", type=int)
    p.add_argument("--max-branches", dest="max_branches", type=int)
    p.add_argument("--strategy", choices=("uniform", "kmeans", "quantile"))
    p.add_argument("--min-confidence", dest="min_confidence", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="regionrules", description=__doc__)
    parser.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("select-features", help="mine a frequently important feature set")
    _add_common(p)
    _add_data_options(p)
    p.add_argument("--matrix", help="importance-matrix CSV (header = feature names)")
    p.add_argument("--scorer-kind", dest="scorer_kind", choices=("linear", "logistic"))
    p.add_argument("--weights", help="comma-separated scorer weights")
    p.add_argument("--bias", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--num-tests", dest="num_tests", type=int)
    p.add_argument("--ig-steps", dest="ig_steps", type=int)
    p.add_argument("--shift-eps", dest="shift_eps", type=float)
    p.add_argument("--coverage", type=float,
                   help="row share the most frequent feature must keep (default 0.99)")
    p.add_argument("--min-count", dest="min_count", type=int,
                   help="itemset frequency floor (default 10%% of matrix rows)")
    p.add_argument("--max-size", dest="max_size", type=int)
    p.set_defaults(func=_cmd_select_features)

    p = sub.add_parser("extract", help="search rule sets for the target subgroup")
    _add_common(p)
    _add_data_options(p)
    _add_target_options(p)
    _add_extraction_options(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("explain", help="rule set constrained to cover one sample")
    _add_common(p)
    _add_data_options(p)
    _add_target_options(p)
    _add_extraction_options(p)
    p.add_argument("--row-index", dest="row_index", type=int)
    p.add_argument("--sample-file", dest="sample_file",
                   help="JSON mapping feature names to values")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("evaluate", help="recompute metrics for stored rule sets")
    _add_common(p)
    _add_data_options(p)
    _add_target_options(p)
    p.add_argument("--rules", help="rule-set JSON (extract output or bare list)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("threshold", help="ROC-based decision threshold (max TPR-FPR)")
    _add_common(p)
    _add_data_options(p)
    p.add_argument("--prediction-column", dest="prediction_column")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--label-class", dest="label_class")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("synth", help="generate a planted-rectangle dataset")
    _add_common(p)
    p.add_argument("--spec-file", dest="spec_file", help="PlantedSpec JSON")
    p.add_argument("--meta-out", dest="meta_out",
                   help="where to write planted-rectangle occupancy JSON")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("oracle", help="exhaustive best rule set on small instances")
    _add_common(p)
    _add_data_options(p)
    _add_target_options(p)
    p.add_argument("--min-support", dest="min_support", type=int)
    p.add_argument("--max-rules", dest="max_rules", type=int)
    p.add_argument("--n-grids", dest="n_grids", type=int)
    p.add_argument("--strategy", choices=("uniform", "kmeans", "quantile"))
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("REGIONRULES_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles -h/usage; normalize the code
        return int(exc.code or 0)
    try:
        settings = _Settings(args)
        return args.func(settings)
    except ConfigError as exc:
        _fail(exc)
        return USAGE_EXIT
    except _INFEASIBLE_ERRORS as exc:
        _fail(exc)
        return INFEASIBLE_EXIT
    except _EMPTY_ERRORS as exc:
        _fail(exc)
        return EMPTY_EXIT
    except _DATA_ERRORS as exc:
        _fail(exc)
        return DATA_EXIT


def _fail(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
