"""Model-agnostic regional rule extraction for tabular data.

Given features and a model's predictions, searches for conjunctive IF-THEN
rule sets (numeric intervals, category equalities) that maximize the
conditional probability of a chosen target subgroup, with optional feature
pre-selection by mining an importance matrix.
"""

from .attribution import (
    DifferentiableScorer,
    ImportanceMatrix,
    build_importance_matrix,
    integrated_gradient,
    importance_scores,
    load_importance_matrix,
    scan_threshold,
    select_frequent_features,
)
from .binning import GridHistogram, grid_counts, make_grids, merge_grids
from .extraction import (
    Candidate,
    CategoryEquals,
    ExtractionConfig,
    Interval,
    Rule,
    RuleSet,
    RuleStats,
    RuleTreeNode,
    build_rule_tree,
    extract_local,
    extract_rule_sets,
    find_peaks,
    gen_feature_interval,
    get_candidate_rules,
    grid_ratios,
    rule_mask,
    rule_set_mask,
    select_best,
)
from .itemsets import FrequentItemset, fp_growth, pick_feature_set
from .metrics import EvaluationReport, confidence, evaluate, fitness, support
from .synth import PlantedMode, PlantedSpec, brute_force_best, gen_synthetic
from .tabular import (
    DataTable,
    FeatureColumn,
    TargetIndicator,
    load_csv,
    make_target,
    roc_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "DifferentiableScorer",
    "ImportanceMatrix",
    "build_importance_matrix",
    "integrated_gradient",
    "importance_scores",
    "load_importance_matrix",
    "scan_threshold",
    "select_frequent_features",
    "GridHistogram",
    "grid_counts",
    "make_grids",
    "merge_grids",
    "Candidate",
    "CategoryEquals",
    "ExtractionConfig",
    "Interval",
    "Rule",
    "RuleSet",
    "RuleStats",
    "RuleTreeNode",
    "build_rule_tree",
    "extract_local",
    "extract_rule_sets",
    "find_peaks",
    "gen_feature_interval",
    "get_candidate_rules",
    "grid_ratios",
    "rule_mask",
    "rule_set_mask",
    "select_best",
    "FrequentItemset",
    "fp_growth",
    "pick_feature_set",
    "EvaluationReport",
    "confidence",
    "evaluate",
    "fitness",
    "support",
    "PlantedMode",
    "PlantedSpec",
    "brute_force_best",
    "gen_synthetic",
    "DataTable",
    "FeatureColumn",
    "TargetIndicator",
    "load_csv",
    "make_target",
    "roc_threshold",
    "__version__",
]
