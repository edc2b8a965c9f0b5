"""Classifier-based evaluation of feature selections.

A small k-nearest-neighbor classifier (same distance metric as the search
engine, majority vote) plus stratified cross-validation that reruns the
selection inside every training fold, so test labels can never leak into
the selection step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, FeatureSpace, zscore_normalize
from .errors import DataError
from .neighbors import _QUERY_CHUNK, _dense_distances_subtract

__all__ = ["knn_classify", "evaluate", "cross_validate", "stratified_folds"]


def _aligned_matrices(train: Dataset, test: Dataset, features: Sequence[int]):
    """Dense effective matrices over the feature subset, test rows scaled
    with the training statistics."""
    features = list(int(j) for j in features)
    if not features:
        raise DataError("empty feature subset")
    for j in features:
        if not 0 <= j < train.n_features:
            raise DataError(f"feature index {j} out of range")
    if train.n_features != test.n_features:
        raise DataError("train and test feature spaces differ")
    tr = train if train.normalized else zscore_normalize(train)
    # Column-major, so the kernel sums each distance a feature column at a time.
    Xtr = np.array([tr.column(j) for j in features]).T
    Xte = np.column_stack([test.column(j) for j in features])
    if not test.normalized and tr.means is not None:
        numeric = train.numeric_mask()
        for pos, j in enumerate(features):
            if numeric[j]:
                Xte[:, pos] = (Xte[:, pos] - tr.means[j]) / tr.stds[j]
    nominal = ~train.numeric_mask()
    nom_cols = np.array([nominal[j] for j in features], dtype=bool)
    return Xtr, Xte, nom_cols, tr.labels


def knn_classify(train: Dataset, test: Dataset, k: int,
                 features: Sequence[int]) -> np.ndarray:
    """Majority-vote predictions over the selected features.

    Neighbor order breaks distance ties by training row index; a tied vote
    goes to the tied class that appears earliest in that neighbor order.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    Xtr, Xte, nom_cols, ytr = _aligned_matrices(train, test, features)
    space = FeatureSpace(n_features=nom_cols.size, numeric_idx=np.flatnonzero(~nom_cols),
                         nominal_idx=np.flatnonzero(nom_cols), inv_scale=None)
    k = min(k, Xtr.shape[0])
    preds = np.empty(Xte.shape[0], dtype=np.int64)
    for lo in range(0, Xte.shape[0], _QUERY_CHUNK):
        sq = _dense_distances_subtract(Xte[lo:lo + _QUERY_CHUNK], Xtr, space)
        nearest = np.argsort(sq, axis=1, kind="stable")[:, :k]
        for i, order in enumerate(nearest, start=lo):
            votes = np.bincount(ytr[order])
            preds[i] = next(c for c in ytr[order] if votes[c] == votes.max())
    return preds


def evaluate(predictions: np.ndarray, labels: np.ndarray) -> dict:
    """Accuracy and F1: binary positive-class F1 on two classes, macro
    otherwise; empty denominators count as 0."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise DataError("predictions and labels must be aligned and non-empty")
    acc = float((predictions == labels).mean())
    classes = int(max(predictions.max(), labels.max())) + 1

    def f1_of(c: int) -> float:
        tp = int(((predictions == c) & (labels == c)).sum())
        fp = int(((predictions == c) & (labels != c)).sum())
        fn = int(((predictions != c) & (labels == c)).sum())
        if 2 * tp + fp + fn == 0:
            return 0.0
        return 2 * tp / (2 * tp + fp + fn)

    if classes <= 2:
        f1 = f1_of(1)
    else:
        f1 = float(np.mean([f1_of(c) for c in range(classes)]))
    return {"accuracy": acc, "f1": f1}


def stratified_folds(labels: np.ndarray, folds: int, seed: int = 0) -> np.ndarray:
    """Fold id per instance; every class spreads evenly over the folds."""
    labels = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise DataError(f"fold count must be >= 2, got {folds}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.shape[0], dtype=np.int64)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.size < folds:
            raise DataError(
                f"class {int(c)} has {members.size} instances, fewer than "
                f"{folds} folds")
        members = rng.permutation(members)
        assignment[members] = np.arange(members.size) % folds
    return assignment


def cross_validate(dataset: Dataset, folds: int,
                   select_fn: Callable[[Dataset], Sequence[int]],
                   knn_k: int = 3, seed: int = 0) -> dict:
    """Stratified CV: select on the training folds, score on the held-out
    fold with the kNN classifier.  Returns per-fold and aggregate metrics."""
    assignment = stratified_folds(dataset.labels, folds, seed)
    fold_metrics = []
    fold_features = []
    for f in range(folds):
        test_idx = np.flatnonzero(assignment == f)
        train_idx = np.flatnonzero(assignment != f)
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        features = list(select_fn(train))
        preds = knn_classify(train, test, knn_k, features)
        fold_metrics.append(evaluate(preds, test.labels))
        fold_features.append([int(j) for j in features])
    acc = np.array([m["accuracy"] for m in fold_metrics])
    f1 = np.array([m["f1"] for m in fold_metrics])
    return {
        "folds": folds,
        "accuracy_mean": float(acc.mean()),
        "accuracy_std": float(acc.std()),
        "f1_mean": float(f1.mean()),
        "f1_std": float(f1.std()),
        "per_fold": fold_metrics,
        "selected_per_fold": fold_features,
    }
