"""Command-line frontend.

Subcommands: select-features, extract, explain, evaluate, threshold, synth,
oracle. Every knob can come from a flat ``key = value`` config file
(``--config``): its entries become the subcommand's defaults, and
command-line flags override them. Side files (config, features, sample,
rules, spec) are UTF-8 with an optional BOM. Exit codes: 0 ok, else the
``exit_code`` of the error met: 1 usage error, 2 data error or unreadable
file, 3 infeasible configuration, 4 empty result.
Log verbosity comes from the ``REGIONRULES_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from collections import defaultdict
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import attribution, metrics
from .attribution import (
    DifferentiableScorer,
    balanced_sample,
    build_importance_matrix,
    class_centroids,
    load_importance_matrix,
    select_features,
)
from .binning import STRATEGIES
from .errors import (
    ConfigError,
    DomainError,
    EmptyResultError,
    ParseError,
    RegionRulesError,
    SchemaError,
    ShapeError,
    SpecError,
)
from .extraction import (
    ExtractionConfig,
    _ranked,
    build_rule_tree,
    count_ratios,
    extract_local,
    select_best,
)
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
    read_text,
    roc_threshold,
)

log = logging.getLogger("regionrules")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is exit 1 with one JSON line
        raise ConfigError(message)

    def set_config_defaults(self, path: str) -> None:
        """Make a config file's entries the defaults of this parser's options,
        each converted by its option's ``type``; other keys are ignored."""
        actions = {a.dest: a for a in self._actions}
        for key, raw in _load_config_file(path).items():
            if (action := actions.get(key)) is None:
                continue
            try:
                self.set_defaults(**{key: action.type(raw) if action.type else raw})
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None


def _side_json(path: str):
    """A side file's JSON value; malformed or too deeply nested JSON is a
    ParseError."""
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not readable JSON: {exc}") from None


def _load_config_file(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _decimal(text: str) -> Fraction:
    """An option's number as the decimal its float prints as, so "0.1" is
    exactly 1/10 and no binary float reaches the library."""
    return Fraction(str(float(text)))


def _required(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return value


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path in (None, "-"):
        print(text)
    else:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def _empty_result(reason: str, payload: dict, out_path: str | None) -> int:
    """Write ``payload`` marked as empty, report ``reason`` on stderr, exit 4."""
    _emit({**payload, "result": "none", "reason": reason}, out_path)
    _fail(EmptyResultError(reason))
    return EmptyResultError.exit_code


def _schema(args: argparse.Namespace) -> defaultdict[str, str]:
    """Kinds from --schema; every other column gets --default-kind."""
    declared = {}
    if args.schema:
        for part in args.schema.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ConfigError(f"--schema entry {part!r} must be name:kind")
            name, kind = part.rsplit(":", 1)
            declared[name.strip()] = kind.strip()
    default_kind = args.default_kind
    if default_kind not in (NUMERIC, CATEGORICAL):
        raise ConfigError("--default-kind must be numeric or categorical")
    return defaultdict(lambda: default_kind, declared)


def _load_table(args: argparse.Namespace, columns: list[str] | None = None) -> DataTable:
    """The --data table; only ``columns`` (default: all) are read."""
    path = _required(args, "data")
    table = load_csv(path, _schema(args), args.missing_token, columns)
    log.info("loaded %d rows x %d columns from %s", table.n_rows, len(table.columns), path)
    return table


def _target_column(args: argparse.Namespace) -> str:
    """The one column given by --prediction-column or --target-column."""
    if (args.prediction_column is None) == (args.target_column is None):
        raise ConfigError("give exactly one of --prediction-column / --target-column")
    return args.target_column if args.prediction_column is None else args.prediction_column


def _build_target(args: argparse.Namespace, table: DataTable):
    """Target indicator plus the feature table with the target column dropped."""
    name = _target_column(args)
    col = table.column(name)
    label = args.target_class
    if args.prediction_column is not None:
        if col.kind != NUMERIC:
            raise SchemaError(f"prediction column {name!r} must be numeric")
        target = make_target(col.values, _required(args, "threshold"), target_label=label)
    else:
        target = TargetIndicator(flags=_class_flags(col, label), target_label=label)
    return target, table.drop([name])


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


def _feature_names(args: argparse.Namespace) -> list[str] | None:
    """Names from --features or --features-file; None when neither is given."""
    raw, ffile = args.features, args.features_file
    names = [n.strip() for n in raw.split(",") if n.strip()] if raw else None
    if ffile:
        payload = _side_json(ffile)
        names = payload.get("features") if isinstance(payload, dict) else None
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SchemaError(f'{ffile}: "features" must be a list of column names')
    if dupes := sorted({n for n in names or () if names.count(n) > 1}):
        raise ConfigError(f"features listed more than once: {dupes}")
    return names


def _search_inputs(args: argparse.Namespace, extra=()):
    """Target, feature table and searched feature indices; of the data, only
    the target column, the searched features and ``extra`` names are read."""
    names = _feature_names(args)
    columns = None if names is None else [*names, *extra, _target_column(args)]
    target, features = _build_target(args, _load_table(args, columns))
    names = features.feature_names if names is None else names
    return target, features, [features.column_index(n) for n in names]


def _extraction_config(args: argparse.Namespace) -> ExtractionConfig:
    """The search knobs the subcommand was given; the rest keep their defaults."""
    for key in ("min_support", "max_rules"):
        _required(args, key)
    knobs = {f.name: getattr(args, f.name, None) for f in fields(ExtractionConfig)}
    return ExtractionConfig(**{k: v for k, v in knobs.items() if v is not None})


def _root_histograms(table, feature_indices, root) -> list[dict]:
    """The histograms the search built at ``root``, for external plotting;
    ratios are the exact ratios over the whole table rounded once to float."""
    out = []
    for f in feature_indices:
        col = table.column(f)
        entry: dict = {"feature": col.name}
        hist = root.histograms[f]
        if isinstance(hist, str):
            entry["skipped"] = hist
        else:
            bins, tc, nc = hist
            ratios = [float(r) for r in count_ratios(tc, nc, root.support, root.tp)]
            entry["edges" if col.kind == NUMERIC else "categories"] = list(bins)
            entry.update(target_counts=list(tc), total_counts=list(nc), ratios=ratios)
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_select_features(args: argparse.Namespace) -> int:
    if args.matrix:
        matrix = load_importance_matrix(args.matrix)
        names = list(matrix.feature_names)
    else:
        table = _load_table(args)
        names = table.feature_names
        X = table.numeric_matrix(names)
        if np.isnan(X).any():
            raise DomainError("scorer features must not contain missing values")
        weights = _required(args, "weights")
        try:
            weights = tuple(float(w) for w in weights.split(","))
        except ValueError:
            raise ConfigError(f"--weights must be numbers, got {weights!r}") from None
        scorer = DifferentiableScorer(kind=args.scorer_kind, weights=weights, bias=args.bias)
        if scorer.n_features != X.shape[1]:
            raise ShapeError(
                f"{scorer.n_features} weights for {X.shape[1]} feature columns"
            )
        scores = scorer.score(X)
        classes = (np.asarray(scores) > args.threshold).astype(int)
        baselines, _ = class_centroids(X, classes)
        tests = X[balanced_sample(classes, args.num_tests, args.seed)]
        matrix = build_importance_matrix(
            scorer, baselines, tests, steps=args.ig_steps, eps=args.shift_eps
        )

    c_min = args.min_count
    if c_min is None:  # 10% of the matrix rows
        c_min = max(1, round(0.1 * matrix.n_rows))

    log.info("importance matrix: %d rows x %d features", matrix.n_rows, matrix.n_features)
    j_th, itemsets, chosen = select_features(matrix, args.coverage, c_min, args.max_size)

    _emit(
        {
            "features": [names[i] for i in sorted(chosen)],
            "j_th": j_th,
            "itemsets": [
                {"items": [names[i] for i in s.sorted_items()], "count": s.count}
                for s in itemsets
            ],
        },
        args.out,
    )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    target, features, feature_indices = _search_inputs(args)
    config = _extraction_config(args)

    log.info("target subgroup: %d of %d rows", target.count, features.n_rows)
    root = build_rule_tree(features, target, feature_indices, config)
    candidates = _ranked(root)
    log.info("search returned %d candidate rule sets", len(candidates))
    best = select_best(candidates, config.min_confidence) if candidates else None
    payload = {
        "config": {**asdict(config), "min_confidence": float(config.min_confidence)},
        "target": {
            "label": target.target_label,
            "count": target.count,
            "table_rows": features.n_rows,
        },
        "features": [features.column(i).name for i in feature_indices],
        "candidates": [rule_set_to_dict(features, rs) for rs in candidates],
        "best": rule_set_to_dict(features, best) if best else None,
        "histograms": _root_histograms(features, feature_indices, root),
    }
    if not candidates:
        reason = "no candidate rule reached ratio > 1 at the support floor"
        return _empty_result(reason, payload, args.out)
    _emit(payload, args.out)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    row_index, sample_file = args.row_index, args.sample_file
    if (row_index is None) == (sample_file is None):
        raise ConfigError("give exactly one of --row-index / --sample-file")
    named = {}
    if sample_file is not None:
        named = _side_json(sample_file)
        if not isinstance(named, dict):
            raise SchemaError(f"{sample_file}: the sample must map feature names to values")
    target, features, feature_indices = _search_inputs(args, extra=list(named))
    config = _extraction_config(args)

    if row_index is not None:
        named = features.row_values(row_index)  # RangeError on bad index
    sample = {features.column_index(k): v for k, v in named.items()}
    sample = {f: sample[f] for f in feature_indices if f in sample}

    result = extract_local(features, target, feature_indices, sample, config)
    if result is None:
        return _empty_result("no value interval has ratio above 1", {}, args.out)
    _emit(rule_set_to_dict(features, result), args.out)
    return 0


def _rule_dicts_from_file(path: str) -> list[dict]:
    """The rule-set objects of a rules file, each holding a "rules" list."""
    payload = _side_json(path)
    if isinstance(payload, dict):
        single = [payload] if "rules" in payload else None
        payload = payload.get("candidates", payload.get("rule_sets", single))
    if not isinstance(payload, list) or not all(
        isinstance(d, dict) and isinstance(d.get("rules"), list) for d in payload
    ):
        raise SchemaError(f"{path} does not look like a rule-set file")
    return payload


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dicts = _rule_dicts_from_file(_required(args, "rules"))
    names = [r.get("feature") for d in dicts for r in d["rules"] if isinstance(r, dict)]
    names = [n for n in names if isinstance(n, str)]  # the rest fail as malformed rules
    table = _load_table(args, [*names, _target_column(args)])
    target, features = _build_target(args, table)
    rule_lists = [rules_from_dict(features, d) for d in dicts]
    report = metrics.evaluate(features, target, rule_lists)
    if args.out not in (None, "-"):
        _emit(metrics.report_json(features, report), args.out)
    print(metrics.report_text(features, report))
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    pred_name = _required(args, "prediction_column")
    label_name = _required(args, "label_column")
    table = _load_table(args, [pred_name, label_name])
    pred = table.column(pred_name)
    if pred.kind != NUMERIC:
        raise SchemaError("prediction column must be numeric")
    labels = _class_flags(table.column(label_name), args.label_class)
    _emit({"threshold": roc_threshold(pred.values, labels)}, args.out)
    return 0


def _pairs(value) -> tuple[tuple[float, float], ...]:
    return tuple((float(a), float(b)) for a, b in value)


def _planted_spec(path: str) -> PlantedSpec:
    """The PlantedSpec of a spec file; any malformed field is a SpecError."""
    payload = _side_json(path)
    try:
        return PlantedSpec(
            n_rows=int(payload["n_rows"]),
            n_features=int(payload["n_features"]),
            modes=tuple(
                PlantedMode(_pairs(m["bounds"]), float(m["purity"]), float(m["weight"]))
                for m in payload.get("modes", [])
            ),
            background_rate=float(payload.get("background_rate", 0.0)),
            seed=int(payload.get("seed", 0)),
            domain=_pairs(payload["domain"]) if "domain" in payload else None,
        )
    except KeyError as exc:
        raise SpecError(f"{path}: spec lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{path}: malformed spec: {exc}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = _planted_spec(_required(args, "spec_file"))
    table, target, summaries = gen_synthetic(spec)

    out_path = _required(args, "out")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.feature_names + ["label"])
        columns = [map(repr, c.values.tolist()) for c in table.columns]
        writer.writerows(zip(*columns, np.where(target.flags, "1", "0").tolist()))

    if args.meta_out:
        _emit(
            {
                "n_rows": spec.n_rows,
                "seed": spec.seed,
                "target_count": target.count,
                "modes": [asdict(s) for s in summaries],
            },
            args.meta_out,
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    table = _load_table(args)
    target, features = _build_target(args, table)
    config = _extraction_config(args)
    best = brute_force_best(
        features,
        target,
        n_g=config.n_grids,
        l_max=config.max_rules,
        s_min=config.min_support,
        strategy=config.strategy,
        seed=config.seed,
    )
    _emit(rule_set_to_dict(features, best), args.out)
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
    p.add_argument("--default-kind", default=NUMERIC,
                   help="kind for columns not named in --schema (default numeric)")
    p.add_argument("--missing-token", default="",
                   help="cell value treated as missing (default empty string)")


def _add_target_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prediction-column", help="numeric column of predicted probabilities")
    p.add_argument("--threshold", type=float,
                   help="strict decision threshold for the prediction column")
    p.add_argument("--target-column", help="column holding the predicted class labels")
    p.add_argument("--target-class", default="1", help="class of interest (default '1')")


def _add_search_options(p: argparse.ArgumentParser) -> None:
    """Knobs shared by the search and the oracle; their defaults are
    ExtractionConfig's."""
    p.add_argument("--min-support", type=int)
    p.add_argument("--max-rules", type=int)
    p.add_argument("--n-grids", type=int)
    p.add_argument("--strategy", choices=STRATEGIES)


def _add_extraction_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", help="comma-separated feature names to search")
    p.add_argument("--features-file", help="JSON from select-features ({'features': [...]})")
    _add_search_options(p)
    p.add_argument("--max-branches", type=int)
    p.add_argument("--min-confidence", type=_decimal)


def build_parser() -> _Parser:
    parser = _Parser(prog="regionrules", description=__doc__)
    parser.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

    p = sub.add_parser("select-features", help="mine a frequently important feature set")
    _add_common(p)
    _add_data_options(p)
    p.add_argument("--matrix", help="importance-matrix CSV (header = feature names)")
    p.add_argument("--scorer-kind", choices=attribution.SCORER_KINDS, default="logistic")
    p.add_argument("--weights", help="comma-separated scorer weights")
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--num-tests", type=int, default=200)
    p.add_argument("--ig-steps", type=int, default=attribution.DEFAULT_IG_STEPS)
    p.add_argument("--shift-eps", type=float, default=attribution.DEFAULT_SHIFT_EPS)
    p.add_argument("--coverage", type=_decimal, default=str(attribution.DEFAULT_COVERAGE),
                   help="row share the most frequent feature must keep (default 0.99)")
    p.add_argument("--min-count", type=int,
                   help="itemset frequency floor (default 10%% of matrix rows)")
    p.add_argument("--max-size", type=int)
    p.set_defaults(func=_cmd_select_features, seed=0)

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
    p.add_argument("--row-index", type=int)
    p.add_argument("--sample-file", help="JSON mapping feature names to values")
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
    p.add_argument("--prediction-column")
    p.add_argument("--label-column")
    p.add_argument("--label-class", default="1")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("synth", help="generate a planted-rectangle dataset")
    _add_common(p)
    p.add_argument("--spec-file", help="PlantedSpec JSON")
    p.add_argument("--meta-out", help="where to write planted-rectangle occupancy JSON")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("oracle", help="exhaustive best rule set on small instances")
    _add_common(p)
    _add_data_options(p)
    _add_target_options(p)
    _add_search_options(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("REGIONRULES_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            parser.commands[args.command].set_config_defaults(args.config)
            args = parser.parse_args(argv)  # flags override the file's entries
        return args.func(args)
    except SystemExit as exc:  # -h and --version
        return int(exc.code or 0)
    # an unreadable file, or an input too large to allocate, is a data error
    except (RegionRulesError, OSError, MemoryError) as exc:
        _fail(exc)
        return getattr(exc, "exit_code", RegionRulesError.exit_code)


def _fail(exc: Exception) -> None:
    # the first public class: numpy raises a private MemoryError subclass
    name = next(c.__name__ for c in type(exc).__mro__ if not c.__name__.startswith("_"))
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
