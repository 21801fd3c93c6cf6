"""Span recorder for the traced benchmark run.

The recorder wraps module-level functions of the ``regionrules`` package from
outside the program: a table of ``(module, attribute, span name, hook)``
entries names what to wrap. Each wrapped call inside an open root span (one
benchmark operation, or the set-up) becomes a span with a parent id. Spans are
kept in memory; self time and per-layer metrics are computed from them after
the run, and :meth:`Recorder.dump` writes them out.

A function imported by name into another module (``extraction`` imports
``grid_counts`` from ``binning``) is patched under every name that refers to
it. A table entry whose module or attribute no longer exists is recorded as
absent and contributes zero to its metrics; it does not stop the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "regionrules"


# ---------------------------------------------------------------------------
# Hooks: exact work counts taken at the wrapped boundaries. A hook gets the
# recorder, the bound call arguments, the return value and the span's info
# dict (kept with the span for identity checks).


def _cells(rec, args, result, info):
    rec.count("tabular.load_csv.cells", result.n_rows * len(result.columns))


def _rows_in(rec, args, result, info):
    rec.count("binning.grid_counts.rows_in", len(args["feature_values"]))


def _merge_kept(rec, args, result, info):
    rec.count("binning.merge_grids.grids_in", args["hist"].n_grids)
    rec.count("binning.merge_grids.grids_out", result.n_grids)


def _candidates(rec, args, result, info):
    info["n"] = len(result)
    rec.count("extraction.candidates_kept", len(result))


def _node_children(rec, args, result, info):
    info["children"] = len(args["node"].children)
    info["K"] = args["config"].max_branches


def _walk_tree(rec, args, result, info):
    limit = min(args["config"].max_rules, len(frozenset(args["feature_set"])))
    stack = [result]
    while stack:
        node = stack.pop()
        rec.count("extraction.tree_nodes")
        if node.depth:
            rec.count(f"extraction.nodes.d{node.depth}")
        if node.depth < limit:
            rec.count("extraction.nodes_expanded")
        stack.extend(node.children)


def _emitted(rec, args, result, info):
    rec.count("extraction.rule_sets.emitted", len(result))


def _dedupe(rec, args, result, info):
    rec.count("extraction.dedupe_in", len(args["rule_sets"]))
    rec.count("extraction.dedupe_out", len(result))


def _itemsets(rec, args, result, info):
    rec.count("itemsets.itemsets_found", len(result))


def _degenerate(rec, exc):
    # raised when a feature is constant within a branch; the search skips it
    if type(exc).__name__ == "DegenerateFeatureError":
        rec.count("extraction.degenerate_skips")


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "name" or "Class.method"
    span: str  # span name; several targets may share one
    hook: Callable | None = None
    timed: bool = True  # False: count calls without opening a span
    on_error: Callable | None = None  # (recorder, exception), before it propagates

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("regionrules.tabular", "load_csv", "tabular.load_csv", _cells),
    Target("regionrules.tabular", "FeatureColumn.__post_init__", "tabular.table_build"),
    Target("regionrules.tabular", "DataTable.__post_init__", "tabular.table_build"),
    Target("regionrules.binning", "make_grids", "binning.make_grids"),
    Target("regionrules.binning", "_kmeans_1d", "binning.kmeans_1d"),
    Target("regionrules.binning", "grid_counts", "binning.grid_counts", _rows_in),
    Target("regionrules.binning", "merge_grids", "binning.merge_grids", _merge_kept),
    Target("regionrules.extraction", "build_rule_tree", "extraction.build_rule_tree", _walk_tree),
    Target("regionrules.extraction", "_add_rules", "extraction.add_rules", _node_children),
    Target("regionrules.extraction", "get_candidate_rules", "extraction.get_candidate_rules",
           _candidates, on_error=_degenerate),
    Target("regionrules.extraction", "_numeric_candidates", "extraction.numeric_candidates"),
    Target("regionrules.extraction", "_categorical_candidates", "extraction.categorical_candidates"),
    Target("regionrules.extraction", "_screen_interval", "extraction.screen_interval"),
    Target("regionrules.extraction", "grid_ratios", "extraction.grid_ratios"),
    Target("regionrules.extraction", "find_peaks", "extraction.find_peaks"),
    Target("regionrules.extraction", "gen_feature_interval", "extraction.gen_feature_interval"),
    Target("regionrules.extraction", "rule_mask", "extraction.rule_mask"),
    Target("regionrules.extraction", "extract_rule_sets", "extraction.extract_rule_sets", _emitted),
    Target("regionrules.extraction", "_dedupe", "extraction.dedupe", _dedupe),
    Target("regionrules.cli", "_build_target", "cli.build_target"),
    Target("regionrules.cli", "_root_histograms", "cli.root_histograms"),
    Target("regionrules.cli", "_emit", "cli.emit"),
    Target("regionrules.serialize", "rule_set_to_dict", "serialize.rule_set_to_dict"),
    Target("regionrules.metrics", "evaluate", "metrics.evaluate"),
    Target("regionrules.attribution", "load_importance_matrix", "attribution.load_importance_matrix"),
    Target("regionrules.attribution", "scan_threshold", "attribution.scan_threshold"),
    Target("regionrules.itemsets", "fp_growth", "itemsets.fp_growth", _itemsets),
    Target("regionrules.itemsets", "_build_tree", "itemsets.fp_tree_builds", timed=False),
)

class Recorder:
    """In-memory spans and counts, recorded only while a root span is open."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # span: [id, parent id (None for a root), name, start, end, info]
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._roots: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self._roots[-1]][key] += n

    @contextmanager
    def root(self, name: str):
        if self._stack:
            raise RuntimeError("root spans do not nest")
        sid = self._open(name, None)
        self._roots.append(sid)
        try:
            yield sid
        finally:
            self._close(sid)

    def _open(self, name: str, parent) -> int:
        sid = len(self.spans)
        self.spans.append([sid, parent, name, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        rec = self
        sig = inspect.signature(fn)
        hook = target.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec._stack:
                return fn(*args, **kwargs)
            rec.count(target.span + ".calls")
            if not target.timed:
                return fn(*args, **kwargs)
            sid = rec._open(target.span, rec._stack[-1])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if target.on_error is not None:
                    target.on_error(rec, exc)
                raise
            finally:
                rec._close(sid)
            if hook is not None:
                info = rec.spans[sid][5] = {}
                hook(rec, sig.bind(*args, **kwargs).arguments, result, info)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target; unresolvable ones are recorded as absent."""
        if self._patches:
            return
        self.absent = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                owner, leaf = module, target.attr
                if "." in target.attr:
                    cls_name, leaf = target.attr.split(".", 1)
                    owner = getattr(module, cls_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(target.qualname)
                continue
            wrapper = self._wrap(original, target)
            if owner is not module:
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for sid, parent, *_ in self.spans:
            if parent is not None:
                kids[parent].append(sid)
        return kids

    def root_summary(self, root_id: int) -> "RootSummary":
        """Self time, inclusive time and span count per name under one root."""
        kids = self._children()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        todo = [root_id]
        while todo:
            sid = todo.pop()
            _, _, name, start, end, _ = self.spans[sid]
            dur = end - start
            child_ids = kids.get(sid, [])
            covered = sum(self.spans[c][4] - self.spans[c][3] for c in child_ids)
            self_s[name] += dur - covered
            total_s[name] += dur
            todo.extend(child_ids)
        return RootSummary(self_s, total_s, Counter(self.counts[root_id]))

    def identity_violations(self, root_id: int) -> list[str]:
        """Check the search's bookkeeping identity at every expanded node.

        For each ``_add_rules`` span, the candidates returned by its
        ``get_candidate_rules`` calls form the node's pool; the node's
        children must number min(K, pool) and the rest are the pruned
        siblings. Across the root, the pools must add up to the candidates
        kept, and the ``_add_rules`` spans must match the tree's node count.
        """
        kids = self._children()
        under = set()
        todo = [root_id]
        while todo:
            sid = todo.pop()
            under.add(sid)
            todo.extend(kids.get(sid, []))
        problems = []
        pool_total = nodes = 0
        for sid in sorted(under):
            _, _, name, _, _, info = self.spans[sid]
            if name != "extraction.add_rules" or info is None:
                continue
            nodes += 1
            pool = sum(
                self.spans[c][5]["n"]
                for c in kids.get(sid, [])
                if self.spans[c][2] == "extraction.get_candidate_rules"
                and self.spans[c][5] is not None
            )
            pool_total += pool
            want = min(info["K"], pool)
            if info["children"] != want:
                problems.append(
                    f"span {sid}: {info['children']} children from a pool of "
                    f"{pool} with K={info['K']} (expected {want})"
                )
        counts = self.counts[root_id]
        if nodes and pool_total != counts["extraction.candidates_kept"]:
            problems.append(
                f"pools add up to {pool_total}, candidates kept "
                f"{counts['extraction.candidates_kept']}"
            )
        if nodes and nodes != counts["extraction.tree_nodes"]:
            problems.append(
                f"{nodes} expanded-node spans, tree has {counts['extraction.tree_nodes']} nodes"
            )
        return problems

    def dump(self, path, extra: dict | None = None) -> None:
        payload = {
            "absent": self.absent,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
                 **({"info": s[5]} if s[5] else {})}
                for s in self.spans
            ],
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@dataclass
class RootSummary:
    self_s: Counter
    total_s: Counter
    counts: Counter


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# name -> (unit, better, value from one op's summary); counts are per op.
LAYER_METRICS: dict[str, tuple[str, str, Callable[[RootSummary], float]]] = {
    "tabular.load_csv.s": ("s", "lower", lambda r: r.self_s["tabular.load_csv"]),
    "tabular.load_csv.cells_per_s": (
        "1/s", "higher",
        lambda r: _ratio(r.counts["tabular.load_csv.cells"], r.total_s["tabular.load_csv"]),
    ),
    "binning.grid_counts.s": ("s", "lower", lambda r: r.self_s["binning.grid_counts"]),
    "binning.grid_counts.calls": ("count", "lower", lambda r: r.counts["binning.grid_counts.calls"]),
    "binning.grid_counts.rows_in": ("count", "lower", lambda r: r.counts["binning.grid_counts.rows_in"]),
    "binning.make_grids.s": ("s", "lower", lambda r: r.self_s["binning.make_grids"]),
    "binning.make_grids.calls": ("count", "lower", lambda r: r.counts["binning.make_grids.calls"]),
    "binning.kmeans_1d.s": ("s", "lower", lambda r: r.self_s["binning.kmeans_1d"]),
    "binning.merge_grids.s": ("s", "lower", lambda r: r.self_s["binning.merge_grids"]),
    "binning.merge_grids.kept_ratio": (
        "ratio", "lower",
        lambda r: _ratio(r.counts["binning.merge_grids.grids_out"],
                         r.counts["binning.merge_grids.grids_in"]),
    ),
    "extraction.get_candidate_rules.numeric.self_s": (
        "s", "lower", lambda r: r.self_s["extraction.numeric_candidates"],
    ),
    "extraction.screen_interval.s": ("s", "lower", lambda r: r.self_s["extraction.screen_interval"]),
    "extraction.screen_interval.calls": (
        "count", "lower", lambda r: r.counts["extraction.screen_interval.calls"],
    ),
    "extraction.get_candidate_rules.categorical.s": (
        "s", "lower", lambda r: r.self_s["extraction.categorical_candidates"],
    ),
    "extraction.get_candidate_rules.calls": (
        "count", "lower", lambda r: r.counts["extraction.get_candidate_rules.calls"],
    ),
    "extraction.gen_feature_interval.s": (
        "s", "lower", lambda r: r.self_s["extraction.gen_feature_interval"],
    ),
    "extraction.find_peaks.s": ("s", "lower", lambda r: r.self_s["extraction.find_peaks"]),
    "extraction.grid_ratios.s": ("s", "lower", lambda r: r.self_s["extraction.grid_ratios"]),
    "extraction.rule_mask.s": ("s", "lower", lambda r: r.self_s["extraction.rule_mask"]),
    "extraction.rule_mask.calls": ("count", "lower", lambda r: r.counts["extraction.rule_mask.calls"]),
    # dispatch, child masks and pool ranking in the tree search itself
    "extraction.tree.self_s": (
        "s", "lower",
        lambda r: r.self_s["extraction.add_rules"] + r.self_s["extraction.get_candidate_rules"]
        + r.self_s["extraction.build_rule_tree"],
    ),
    "extraction.nodes_expanded": ("count", "lower", lambda r: r.counts["extraction.nodes_expanded"]),
    "extraction.nodes.d1": ("count", "lower", lambda r: r.counts["extraction.nodes.d1"]),
    "extraction.nodes.d2": ("count", "lower", lambda r: r.counts["extraction.nodes.d2"]),
    "extraction.nodes.d3": ("count", "lower", lambda r: r.counts["extraction.nodes.d3"]),
    "extraction.degenerate_skips": ("count", "lower", lambda r: r.counts["extraction.degenerate_skips"]),
    "extraction.candidates_kept": ("count", "higher", lambda r: r.counts["extraction.candidates_kept"]),
    "extraction.candidates_per_call": (
        "ratio", "higher",
        lambda r: _ratio(r.counts["extraction.candidates_kept"],
                         r.counts["extraction.get_candidate_rules.calls"]),
    ),
    "extraction.rule_sets.emitted": ("count", "higher", lambda r: r.counts["extraction.rule_sets.emitted"]),
    "extraction.dedupe_kept_ratio": (
        "ratio", "higher",
        lambda r: _ratio(r.counts["extraction.dedupe_out"], r.counts["extraction.dedupe_in"]),
    ),
    "extraction.finalize.s": (
        "s", "lower",
        lambda r: r.self_s["extraction.extract_rule_sets"] + r.self_s["extraction.dedupe"],
    ),
    "cli.build_target.s": ("s", "lower", lambda r: r.self_s["cli.build_target"]),
    "cli.root_histograms.s": ("s", "lower", lambda r: r.self_s["cli.root_histograms"]),
    "cli.emit.s": ("s", "lower", lambda r: r.self_s["cli.emit"]),
    "serialize.rule_set_to_dict.s": ("s", "lower", lambda r: r.self_s["serialize.rule_set_to_dict"]),
    "metrics.evaluate.s": ("s", "lower", lambda r: r.self_s["metrics.evaluate"]),
    "attribution.load_importance_matrix.s": (
        "s", "lower", lambda r: r.self_s["attribution.load_importance_matrix"],
    ),
    "attribution.scan_threshold.s": ("s", "lower", lambda r: r.self_s["attribution.scan_threshold"]),
    "itemsets.fp_growth.s": ("s", "lower", lambda r: r.self_s["itemsets.fp_growth"]),
    "itemsets.fp_tree_builds": ("count", "lower", lambda r: r.counts["itemsets.fp_tree_builds.calls"]),
    "itemsets.itemsets_found": ("count", "higher", lambda r: r.counts["itemsets.itemsets_found"]),
    # time inside an operation that no wrapped function accounts for
    "unattributed.s": ("s", "lower", lambda r: r.self_s["op"]),
}

# Counts that must repeat exactly from one traced operation to the next.
EXACT_COUNTS = tuple(
    name for name, (unit, _, _) in LAYER_METRICS.items() if unit == "count"
)


def layer_metrics(op_summaries: list[RootSummary], setup: RootSummary | None) -> dict:
    """Per-layer metrics: the median over traced operations of each value.

    ``tabular.table_build.s`` adds the table construction of one traced
    set-up to that of one operation, because the in-memory workloads build
    their tables during set-up and the CLI workload builds them per operation.
    """
    out = {}
    for name, (unit, _, fn) in LAYER_METRICS.items():
        out[name] = {"value": statistics.median(fn(r) for r in op_summaries), "unit": unit}
    build = statistics.median(r.self_s["tabular.table_build"] for r in op_summaries)
    if setup is not None:
        build += setup.self_s["tabular.table_build"]
    out["tabular.table_build.s"] = {"value": build, "unit": "s"}
    return out
