"""Byte-identity gate on a seeded random corpus of mixed tables, small and large.

Each case is one table, one binning strategy and one drawn search config.
It builds the three outputs that ``extract``, ``explain --row-index`` (for
one row) and ``evaluate`` (of the extracted candidates) write, through the
functions those commands call, and stores the SHA-256 of each in
``tests/fixtures/corpus.json``: the candidates, the best set and the root
histograms of ``extract``; the local rule set of ``explain``; the recounted
report of ``evaluate``. A command that fails contributes its error class and
message. Tables are built in memory, so CSV parsing and option handling are
left to the golden files, and the 2,970 outputs take a few seconds. Any
change to a rule set, a histogram, a local explanation or a recount on any
case fails here. The generator below is frozen: it must not change, so it
does not share code with the other tests' random tables. Edges depend on
``np.quantile`` and ``np.linspace``, so the file records the numpy version
that wrote it. An intended change regenerates the file with
``PYTHONPATH=src python tests/test_corpus.py`` and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from regionrules import DataTable, FeatureColumn, TargetIndicator, binning, metrics
from regionrules.cli import _root_histograms
from regionrules.errors import RegionRulesError
from regionrules.extraction import (
    ExtractionConfig,
    _ranked,
    build_rule_tree,
    extract_local,
    select_best,
)
from regionrules.serialize import rule_set_to_dict

CORPUS = Path(__file__).parent / "fixtures" / "corpus.json"
N_TABLES = 300
SMALL_ROWS = (40, 400)
STRATEGIES = ("uniform", "quantile", "kmeans")
# Large tables, drawn as the small ones but with 5,000-8,000 rows, so that
# numeric histograms at many grids are counted by comparison passes
# (binning._blocked_counts) rather than by binary searches after a sort.
LARGE_SEEDS = range(1000, 1030)
LARGE_ROWS = (5000, 8000)


def corpus_table(index: int, rows: tuple[int, int] = SMALL_ROWS):
    """Table ``index`` of the corpus, drawn from ``default_rng(index)`` with
    ``rows`` bounding its row count: the feature table, the target and the
    rows that miss no feature. Frozen: any change here changes the corpus."""
    rng = np.random.default_rng(index)
    n = int(rng.integers(rows[0], rows[1] + 1))
    d = int(rng.integers(2, 5))
    columns = []
    missing = np.zeros(n, dtype=bool)
    for f in range(d):
        if rng.random() < 0.3:
            levels = np.array(list("abcde"))[: int(rng.integers(2, 6))]
            vals = rng.choice(levels, size=n).astype(object)
            blank = rng.random(n) < rng.choice([0.0, 0.05])
            vals[blank] = None
            columns.append(FeatureColumn(f"c{f}", "categorical", vals))
        else:
            kind = int(rng.integers(4))
            if kind == 0:
                vals = rng.normal(0.0, 1.0, size=n)
            elif kind == 1:
                vals = rng.uniform(-2.0, 2.0, size=n)
            elif kind == 2:
                vals = np.where(rng.random(n) < 0.5,
                                rng.normal(-1.5, 0.4, n), rng.normal(1.5, 0.4, n))
            else:  # coarse: many rows sit exactly on grid edges
                vals = np.round(rng.uniform(0.0, 4.0, size=n) * 2) / 2
            blank = rng.random(n) < rng.choice([0.0, 0.03, 0.1])
            vals[blank] = np.nan
            columns.append(FeatureColumn(f"x{f}", "numeric", vals))
        missing |= blank
    table = DataTable(tuple(columns))

    if rng.random() < 0.75:
        # concentrate the target in a band of a numeric feature or in a category
        col = columns[int(rng.integers(d))]
        if col.kind == "numeric":
            present = col.values[~np.isnan(col.values)]
            cut = float(np.quantile(present, rng.uniform(0.3, 0.8))) if len(present) else 0.0
            inside = col.values >= cut  # NaN is outside
        else:
            inside = col.values == col.values[0]
        p = np.where(inside, rng.uniform(0.5, 0.95), rng.uniform(0.02, 0.25))
        flags = rng.random(n) < p
    else:
        flags = rng.random(n) < rng.uniform(0.05, 0.5)
    if not flags.any():
        flags[int(rng.integers(n))] = True
    return table, TargetIndicator(flags=flags), np.flatnonzero(~missing)


def corpus_config(index: int, strategy: str, table: DataTable, complete: np.ndarray):
    """The drawn search config and explained row of one case. Frozen."""
    rng = np.random.default_rng([index, STRATEGIES.index(strategy)])
    config = ExtractionConfig(
        min_support=int(rng.integers(5, max(6, table.n_rows // 4))),
        max_rules=int(rng.integers(1, min(3, len(table.columns)) + 1)),
        n_grids=int(rng.integers(3, 11)),
        max_branches=int(rng.integers(1, 4)),
        strategy=strategy,
        min_confidence=Fraction(str(rng.choice(["0.5", "0.8", "0.9"]))),
        seed=int(rng.integers(1 << 16)),
    )
    rows = complete if len(complete) else np.arange(table.n_rows)
    return config, int(rows[rng.integers(len(rows))])


def _digest(build) -> str:
    """SHA-256 of the JSON ``build()`` returns, or of the error it raises."""
    try:
        payload = build()
    except RegionRulesError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _explained(table, target, features, sample, config):
    local = extract_local(table, target, features, sample, config)
    return rule_set_to_dict(table, local) if local else None


def case_digests(index: int, rows: tuple[int, int] = SMALL_ROWS) -> dict[str, dict[str, str]]:
    """Per strategy, the digests of table ``index``'s three outputs."""
    table, target, complete = corpus_table(index, rows)
    features = list(range(len(table.columns)))
    out = {}
    for strategy in STRATEGIES:
        config, row = corpus_config(index, strategy, table, complete)
        root = build_rule_tree(table, target, features, config)
        candidates = _ranked(root)
        best = select_best(candidates, config.min_confidence) if candidates else None
        sample = {table.column_index(k): v for k, v in table.row_values(row).items()}
        out[strategy] = {
            "extract": _digest(lambda: {
                "candidates": [rule_set_to_dict(table, rs) for rs in candidates],
                "best": rule_set_to_dict(table, best) if best else None,
                "histograms": _root_histograms(table, features, root),
            }),
            "explain": _digest(lambda: _explained(table, target, features, sample, config)),
            "evaluate": _digest(lambda: metrics.report_json(
                table, metrics.evaluate(table, target, [rs.rules for rs in candidates])
            )),
        }
    return out


def corpus_digests() -> dict[str, dict[str, dict[str, str]]]:
    return {str(i): case_digests(i) for i in range(N_TABLES)}


def large_corpus_digests() -> dict[str, dict[str, dict[str, str]]]:
    return {str(i): case_digests(i, LARGE_ROWS) for i in LARGE_SEEDS}


def _changed(stored: dict, got: dict) -> list[str]:
    return [
        f"table {i} {strategy} {output}"
        for i, per_strategy in stored.items()
        for strategy, per_output in per_strategy.items()
        for output, digest in per_output.items()
        if got[i][strategy][output] != digest
    ]


def test_every_corpus_case_matches_its_stored_digests():
    stored = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = _changed(stored["cases"], corpus_digests())
    assert not changed, (
        f"{len(changed)} corpus outputs changed (written with numpy {stored['numpy']}, "
        f"running numpy {np.__version__}): {changed[:10]}"
    )
    assert len(stored["cases"]) == N_TABLES


def test_every_large_corpus_case_matches_its_stored_digests(monkeypatch):
    stored = json.loads(CORPUS.read_text(encoding="utf-8"))
    counted = []
    blocked_counts = binning._blocked_counts

    def counting(edges, a):
        counted.append(len(a))
        return blocked_counts(edges, a)

    monkeypatch.setattr(binning, "_blocked_counts", counting)
    changed = _changed(stored["large_cases"], large_corpus_digests())
    assert not changed, (
        f"{len(changed)} large corpus outputs changed (written with numpy {stored['numpy']}, "
        f"running numpy {np.__version__}): {changed[:10]}"
    )
    assert sorted(stored["large_cases"]) == sorted(map(str, LARGE_SEEDS))
    assert len(counted) > 100  # these cases do reach the counting path


def test_the_corpus_holds_small_tables_with_missing_cells_and_categories():
    tables = [corpus_table(i) for i in range(N_TABLES)]
    assert max(table.n_rows for table, _, _ in tables) <= 400
    kinds = [{c.kind for c in table.columns} for table, _, _ in tables]
    assert sum("categorical" in k for k in kinds) > N_TABLES // 3
    assert sum(len(complete) < table.n_rows for table, _, complete in tables) > N_TABLES // 3


def test_the_large_corpus_tables_hold_5000_to_8000_rows():
    sizes = [corpus_table(i, LARGE_ROWS)[0].n_rows for i in LARGE_SEEDS]
    assert LARGE_ROWS[0] <= min(sizes) and max(sizes) <= LARGE_ROWS[1]


if __name__ == "__main__":
    payload = {
        "numpy": np.__version__,
        "cases": corpus_digests(),
        "large_cases": large_corpus_digests(),
    }
    CORPUS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}", file=sys.stderr)
