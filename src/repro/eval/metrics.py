"""Evaluation metrics for labeling and end-model experiments."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_labels, check_probabilities

__all__ = [
    "MIN_POSTERIOR_AGREEMENT",
    "accuracy",
    "labeling_accuracy",
    "confusion_matrix",
    "brier_score",
    "roc_auc",
    "mask_excluding",
    "posterior_agreement",
]

#: The contract of every approximate labeling path against its exact
#: reference (online absorb vs full refit, float32 vs float64):
#: posterior agreement at least this, and exact hard labels.
MIN_POSTERIOR_AGREEMENT = 0.99


def mask_excluding(n: int, exclude: np.ndarray | None) -> np.ndarray:
    """Boolean mask over ``n`` items with ``exclude`` indices set False."""
    mask = np.ones(n, dtype=bool)
    if exclude is not None and np.asarray(exclude).size:
        mask[np.asarray(exclude, dtype=np.int64)] = False
    return mask


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of zero predictions")
    return float((predictions == labels).mean())


def labeling_accuracy(
    probabilistic_labels: np.ndarray,
    true_labels: np.ndarray,
    exclude: np.ndarray | None = None,
) -> float:
    """Hard-label accuracy of probabilistic labels, excluding dev indices.

    The paper "reports the performance ... on the remaining images"
    (§5.1.1), i.e. development images are excluded from scoring.
    """
    probabilistic_labels = check_probabilities(probabilistic_labels, axis=1)
    true_labels = check_labels(true_labels)
    mask = mask_excluding(true_labels.shape[0], exclude)
    return accuracy(probabilistic_labels.argmax(axis=1)[mask], true_labels[mask])


def posterior_agreement(p: np.ndarray, q: np.ndarray) -> float:
    """1 − mean total-variation distance between two ``(N, K)`` label
    distributions: 1.0 when every row matches, 0.0 when none overlaps."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(1.0 - 0.5 * np.abs(p - q).sum(axis=1).mean())


def confusion_matrix(predictions: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """``C[i, j]`` = count of true class i predicted as j."""
    predictions = check_labels(predictions, n_classes=n_classes, name="predictions")
    labels = check_labels(labels, n_classes=n_classes, name="labels")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    for truth, pred in zip(labels, predictions):
        out[truth, pred] += 1
    return out


def brier_score(probabilistic_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Mean squared error between the label distribution and the one-hot truth."""
    probabilistic_labels = check_probabilities(probabilistic_labels, axis=1)
    true_labels = check_labels(true_labels, n_classes=probabilistic_labels.shape[1])
    one_hot = np.zeros_like(probabilistic_labels)
    one_hot[np.arange(true_labels.size), true_labels] = 1.0
    return float(((probabilistic_labels - one_hot) ** 2).sum(axis=1).mean())


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Binary AUC via the rank statistic (ties get half credit).

    Used by the Figure-2 analysis: how well one affinity function's
    scores separate same-class pairs (label 1) from different-class
    pairs (label 0).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both positive and negative examples")
    order = np.argsort(np.concatenate([pos, neg]), kind="mergesort")
    ranks = np.empty(order.size, dtype=np.float64)
    ranks[order] = np.arange(1, order.size + 1)
    # Average ranks over ties.
    combined = np.concatenate([pos, neg])
    sorted_vals = combined[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            tie_indices = order[i : j + 1]
            ranks[tie_indices] = ranks[tie_indices].mean()
        i = j + 1
    rank_sum_pos = ranks[: pos.size].sum()
    u_statistic = rank_sum_pos - pos.size * (pos.size + 1) / 2.0
    return float(u_statistic / (pos.size * neg.size))
