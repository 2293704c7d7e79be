"""Ranking and calibration metrics, and the relative-improvement summary.

Scores are probabilities in [0, 1]; labels are binary. Ties in AUC
contribute half a concordant pair via midranks. PRAUC is average
precision with ties broken deterministically by ascending sample index.
Scores or labels a metric cannot read raise :class:`DataFormatError`.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError

RI_DENOM_EPS = 1e-9
LOG_LOSS_CLIP = 1e-7
# What every method reports, in the order reports and tables list them.
METRICS = ("auc", "prauc", "log_loss")


def _validate(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DataFormatError(
            "scores and labels must be 1-d arrays of equal length"
        )
    if scores.size == 0:
        raise DataFormatError("empty score set")
    if not np.all(np.isfinite(scores)):
        raise DataFormatError("scores contain non-finite values")
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise DataFormatError("scores must lie in [0, 1]")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataFormatError("labels must be 0 or 1")
    return scores, labels


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank."""
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    # A group of c ties ending at rank e holds ranks e - c + 1 .. e.
    last = np.cumsum(counts)
    return (last - 0.5 * (counts - 1))[group]


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic."""
    scores, labels = _validate(scores, labels)
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataFormatError(
            "AUC needs at least one positive and one negative"
        )
    ranks = _midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def prauc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision over positives in descending-score order."""
    scores, labels = _validate(scores, labels)
    n_pos = int((labels == 1.0).sum())
    if n_pos == 0:
        raise DataFormatError("PRAUC needs at least one positive")
    order = np.lexsort((np.arange(scores.size), -scores))
    sorted_labels = labels[order]
    cum_pos = np.cumsum(sorted_labels)
    ranks = np.arange(1, scores.size + 1, dtype=np.float64)
    precision = cum_pos / ranks
    return float(precision[sorted_labels == 1.0].sum() / n_pos)


def log_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probability clipping."""
    scores, labels = _validate(scores, labels)
    p = np.clip(scores, LOG_LOSS_CLIP, 1.0 - LOG_LOSS_CLIP)
    return float(
        -np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    )


def ri(
    value: float, vanilla_value: float, retrain_value: float
) -> float | None:
    """Fraction of the vanilla-to-retrain gap recovered by ``value``.

    1 means matching the retrained model, 0 means no better than the stale
    one. Returns None when the reference gap is smaller than
    ``RI_DENOM_EPS`` in magnitude, where the ratio is meaningless.
    """
    denom = retrain_value - vanilla_value
    if abs(denom) <= RI_DENOM_EPS:
        return None
    return float((value - vanilla_value) / denom)


def compute_method_metrics(
    scores: np.ndarray, labels: np.ndarray
) -> dict[str, float]:
    """Every metric of :data:`METRICS`, keyed by name."""
    return dict(zip(METRICS, (auc(scores, labels), prauc(scores, labels),
                              log_loss(scores, labels))))


def ri_block(
    methods: dict[str, dict[str, float]],
    vanilla_key: str = "vanilla",
    retrain_key: str = "retrain",
) -> dict[str, dict[str, float | None]]:
    """Per-method, per-metric RI against the vanilla/retrain references.

    Empty when either reference method is absent.
    """
    if vanilla_key not in methods or retrain_key not in methods:
        return {}
    van, ret = methods[vanilla_key], methods[retrain_key]
    return {name: {k: ri(v, van[k], ret[k]) for k, v in values.items()}
            for name, values in methods.items()
            if name not in (vanilla_key, retrain_key)}
