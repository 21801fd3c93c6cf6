"""Feature importance from integrated gradients and importance-matrix mining.

The built-in scorer is a linear or logistic model over numeric features; it
exists so the attribution path can be exercised end to end. Importances from
external explainers arrive as a CSV via :func:`load_importance_matrix`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EmptyMatrixError,
    NoFeatureError,
    ParseError,
    ShapeError,
)
from .itemsets import FrequentItemset, mine_itemsets, pick_feature_set
from .tabular import read_csv

SCORER_KINDS = ("linear", "logistic")

DEFAULT_IG_STEPS = 50
DEFAULT_SHIFT_EPS = 1e-9
DEFAULT_COVERAGE = 0.99  # minimum row share the most frequent feature must cover
_CHUNK_CELLS = 8192  # matrix cells whose strings are alive at once
_BLOCK_CELLS = 1 << 16  # scores that one step of a scan compares


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class DifferentiableScorer:
    """Linear score ``w.x + b`` or its logistic squashing."""

    kind: str
    weights: tuple[float, ...]
    bias: float = 0.0

    def __post_init__(self):
        if self.kind not in SCORER_KINDS:
            raise ConfigError(f"unknown scorer kind {self.kind!r}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def score(self, x) -> np.ndarray | float:
        """Evaluate on one sample (1-d) or a batch (2-d, rows are samples)."""
        arr = np.asarray(x, dtype=np.float64)
        z = arr @ np.asarray(self.weights) + self.bias
        if self.kind == "logistic":
            z = _sigmoid(z)
        return float(z) if arr.ndim == 1 else z


def integrated_gradient(
    scorer: DifferentiableScorer,
    baseline,
    test,
    steps: int = DEFAULT_IG_STEPS,
) -> np.ndarray:
    """Attribute the score shift from ``test`` to ``baseline`` per feature.

    The path integral along the straight line between the samples is taken
    with a midpoint Riemann sum of ``steps`` points; linear scorers use the
    exact closed form ``w_i * (baseline_i - test_i)`` regardless of steps.
    The attributions sum to score(baseline) - score(test) (exactly for
    linear scorers, up to the quadrature error otherwise).
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    b = np.asarray(baseline, dtype=np.float64)
    t = np.asarray(test, dtype=np.float64)
    if b.shape != (scorer.n_features,) or t.shape != (scorer.n_features,):
        raise ShapeError(
            f"baseline/test must have shape ({scorer.n_features},), "
            f"got {b.shape} and {t.shape}"
        )
    delta = b - t
    w = np.asarray(scorer.weights)
    if scorer.kind == "linear":
        return w * delta
    lambdas = (np.arange(steps) + 0.5) / steps
    points = t[None, :] + lambdas[:, None] * delta[None, :]
    s = _sigmoid(points @ w + scorer.bias)  # the logistic gradient is s (1 - s) w
    return delta * ((s * (1.0 - s))[:, None] * w).mean(axis=0)


def importance_scores(
    attributions,
    y: float,
    y_tilde: float,
    eps: float = DEFAULT_SHIFT_EPS,
) -> np.ndarray | None:
    """Normalize attributions by the score shift; ``None`` flags a skipped pair."""
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    shift = y - y_tilde
    if abs(shift) < eps:
        return None
    return np.abs(np.asarray(attributions, dtype=np.float64) / shift)


@dataclass(frozen=True, eq=False)
class ImportanceMatrix:
    """Rows of finite, non-negative per-feature importance scores.

    When built from a scorer there is one row per usable (baseline, test)
    pair, in (baseline, test) order.
    """

    scores: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"scores must be 2-d, got shape {arr.shape}")
        # two reductions and no temporary; NaN fails both comparisons
        if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
            raise DomainError("importance scores must be finite and non-negative")
        object.__setattr__(self, "scores", arr)

    @property
    def n_rows(self) -> int:
        return self.scores.shape[0]

    @property
    def n_features(self) -> int:
        return self.scores.shape[1]


def build_importance_matrix(
    scorer: DifferentiableScorer,
    baselines,
    tests,
    steps: int = DEFAULT_IG_STEPS,
    eps: float = DEFAULT_SHIFT_EPS,
) -> ImportanceMatrix:
    """One importance row per (baseline, test) pair with a non-degenerate shift."""
    b = np.atleast_2d(np.asarray(baselines, dtype=np.float64))
    t = np.atleast_2d(np.asarray(tests, dtype=np.float64))
    if b.shape[0] < 1 or t.shape[0] < 1:
        raise ShapeError("need at least one baseline and one test sample")
    rows = []
    for i in range(b.shape[0]):
        y = scorer.score(b[i])
        for j in range(t.shape[0]):
            y_tilde = scorer.score(t[j])
            scores = importance_scores(
                integrated_gradient(scorer, b[i], t[j], steps), y, y_tilde, eps
            )
            if scores is not None:
                rows.append(scores)
    if not rows:
        raise EmptyMatrixError("every (baseline, test) pair had a degenerate shift")
    return ImportanceMatrix(scores=np.vstack(rows))


def load_importance_matrix(path) -> ImportanceMatrix:
    """Read an importance matrix CSV whose header names the features.

    At most ``_CHUNK_CELLS`` cells are converted at a time, and each chunk's
    scores are appended to one growing buffer that the matrix then views,
    so a load holds the matrix plus a fixed allowance."""
    with read_csv(path, "importance matrix file is empty") as (header, read):
        width, n_rows = len(header), 0
        buf = array("d")
        for rows, cells in read(range(width), _CHUNK_CELLS):
            try:
                block = np.fromiter(map(float, cells), np.float64, len(cells))
            except ValueError:
                for i, k in zip(rows, range(0, len(cells), width)):  # the first bad row
                    try:
                        list(map(float, cells[k : k + width]))
                    except ValueError:
                        raise ParseError(f"unparseable number in row {i}", row=i) from None
            buf.frombytes(block.view(np.uint8))  # frombytes takes a buffer of bytes
            n_rows = rows.stop
    scores = np.frombuffer(buf, np.float64).reshape(n_rows, width)
    return ImportanceMatrix(scores=scores, feature_names=tuple(header))


def _required_rows(gamma: float, n_rows: int) -> int:
    """ceil(gamma * n_rows), with ``gamma`` read as the decimal it prints as."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {float(gamma)}")
    return math.ceil(Fraction(str(gamma)) * n_rows)


def scan_threshold(matrix: ImportanceMatrix, gamma: float = DEFAULT_COVERAGE) -> float:
    """Smallest positive score at which exactly one feature covers ``gamma`` of the rows.

    If the qualifying-feature count drops from >= 2 straight to 0, the largest
    threshold still keeping >= 2 features is returned instead.
    """
    if matrix.n_rows == 0:
        raise EmptyMatrixError("cannot scan an empty importance matrix")
    required = _required_rows(gamma, matrix.n_rows)
    scores = matrix.scores
    if not scores.max(initial=0.0) > 0.0:
        raise NoFeatureError("matrix has no positive scores")

    # feature f covers enough rows at threshold t iff t <= q_f, its
    # required-th largest score; with q(1) >= q(2) the two largest q_f,
    # exactly one feature qualifies on (q(2), q(1)] and two or more on (0, q(2)].
    # Each q_f comes from a copy of one column, never of the matrix
    k = matrix.n_rows - required  # 0-based rank, ascending, of the required-th largest
    q = np.sort([np.partition(scores[:, f], k)[k] for f in range(matrix.n_features)])
    q1 = q[-1]
    q2 = q[-2] if len(q) > 1 else 0.0  # scores are >= 0, so zeros never lie above q2
    ones = min(b[(b > q2) & (b <= q1)].min(initial=math.inf) for b in _row_blocks(scores))
    if ones < math.inf:
        return float(ones)
    multi = max(b[(b > 0.0) & (b <= q2)].max(initial=0.0) for b in _row_blocks(scores))
    if multi > 0.0:
        return float(multi)
    raise NoFeatureError("no feature clears the frequency requirement at any threshold")


def _row_blocks(scores: np.ndarray):
    """Views of ``scores`` of about ``_BLOCK_CELLS`` cells each, in row order."""
    step = max(1, _BLOCK_CELLS // scores.shape[1])
    return (scores[i : i + step] for i in range(0, len(scores), step))


def select_features(
    matrix: ImportanceMatrix,
    gamma: float = DEFAULT_COVERAGE,
    c_min: int = 1,
    k_max: int | None = None,
) -> tuple[float, list[FrequentItemset], frozenset[int]]:
    """Threshold scan, itemset mining on the hits ``scores >= j_th`` and the
    itemset choice.

    Returns ``(j_th, itemsets, chosen)``: the itemsets have at most ``k_max``
    features (default: all) and occur in >= ``c_min`` rows; ``chosen`` is
    the longest, most frequent one. Both bounds are checked before the scan."""
    if c_min < 1:
        raise ConfigError(f"c_min must be >= 1, got {c_min}")
    if k_max is None:
        k_max = matrix.n_features
    elif k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    j_th = scan_threshold(matrix, gamma)
    # the hits with one row per feature, the miner's layout, filled a row
    # block at a time: no temporary of the matrix's size
    hits = np.empty(matrix.scores.shape[::-1], dtype=bool)
    for block, out in zip(_row_blocks(matrix.scores), _row_blocks(hits.T)):
        np.greater_equal(block.T, j_th, out=out.T)  # in memory order: 4x faster than out=out
    itemsets = mine_itemsets(hits.T, c_min, k_max)
    return j_th, itemsets, pick_feature_set(itemsets)


def select_frequent_features(
    matrix: ImportanceMatrix,
    gamma: float = DEFAULT_COVERAGE,
    c_min: int = 1,
    k_max: int | None = None,
) -> frozenset[int]:
    """The ``chosen`` feature set of :func:`select_features`."""
    return select_features(matrix, gamma, c_min, k_max)[2]


def class_centroids(samples, class_ids) -> tuple[np.ndarray, list]:
    """Per-class feature means, rows ordered by sorted class id."""
    X = np.asarray(samples, dtype=np.float64)
    ids = np.asarray(class_ids)
    classes = sorted(set(ids.tolist()))
    cents = np.vstack([X[ids == c].mean(axis=0) for c in classes])
    return cents, classes


def balanced_sample(class_ids, m_total: int, seed: int = 0) -> np.ndarray:
    """Indices of a seeded class-balanced subset, m_total/n_classes per class."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    ids = np.asarray(class_ids)
    classes = sorted(set(ids.tolist()))
    per_class = max(1, m_total // len(classes))
    rng = np.random.default_rng(seed)
    picks = []
    for c in classes:
        pool = np.nonzero(ids == c)[0]
        take = min(per_class, len(pool))
        picks.append(rng.choice(pool, size=take, replace=False))
    return np.sort(np.concatenate(picks))
