"""Classifier-based evaluation of feature selections.

A small k-nearest-neighbor classifier plus stratified cross-validation
that reruns the selection inside every training fold, so test labels can
never leak into the selection step.  The classifier runs on the selector's
per-partition search (``neighbors._search_block``): the same row tiles,
the same float32 bounds, exact float64 distances measured once for the
rows the bounds leave in, and the same (distance, row id) merge, over one
class that holds every training row; a majority vote then labels each test
row.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, FeatureSpace, zscore_normalize
from .errors import DataError
from .neighbors import _search_block

__all__ = ["knn_classify", "evaluate", "cross_validate", "stratified_folds"]


def _aligned_matrices(train: Dataset, test: Dataset, features: Sequence[int]):
    """Dense effective matrices over the feature subset (a test set that is
    not normalized is scaled with the training statistics), the training
    labels, and the subset's ``FeatureSpace``, which reads rows as they
    are.  A NaN or an infinity in either matrix raises ``DataError``."""
    features = list(int(j) for j in features)
    if not features:
        raise DataError("empty feature subset")
    for j in features:
        if not 0 <= j < train.n_features:
            raise DataError(f"feature index {j} out of range")
    if train.n_features != test.n_features:
        raise DataError("train and test feature spaces differ")
    if train.n_instances == 0:
        raise DataError("empty training set")
    tr = train if train.normalized else zscore_normalize(train)
    nominal = ~train.numeric[features]
    space = FeatureSpace(n_features=len(features), numeric_idx=np.flatnonzero(~nominal),
                         nominal_idx=np.flatnonzero(nominal), inv_scale=None)
    Xtr = tr.columns(features).T
    Xte = test.columns(features).T
    if not test.normalized and tr.stds is not None:
        replace(space, means=tr.means[features],
                stds=tr.stds[features]).scaled(Xte, out=Xte)
    for name, X in (("train", Xtr), ("test", Xte)):
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:  # it would never enter a neighbor list
            raise DataError(f"{name} row {bad[0, 0]}: non-finite value in "
                            f"feature {features[bad[0, 1]]}")
    return Xtr, Xte, tr.labels, space


def knn_classify(train: Dataset, test: Dataset, k: int,
                 features: Sequence[int]) -> np.ndarray:
    """Majority-vote predictions over the selected features.

    Neighbor order breaks distance ties by training row index; a tied vote
    goes to the tied class that appears earliest in that neighbor order.
    A NaN or an infinity among the values read raises ``DataError``.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    Xtr, Xte, ytr, space = _aligned_matrices(train, test, features)
    m = Xtr.shape[0]
    k = min(k, m)
    rows, _, _ = _search_block(Xtr, 0, m, Xte, space, np.zeros(m, dtype=np.intp), 1, k)
    preds = np.empty(Xte.shape[0], dtype=np.int64)
    for i, near in enumerate(ytr[rows[:, 0]]):
        votes = np.bincount(near)
        preds[i] = next(c for c in near if votes[c] == votes.max())
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
    if labels.size and labels.min() < 0:
        raise DataError("labels must be nonnegative class ids")
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.shape[0], dtype=np.int64)
    for c in np.flatnonzero(np.bincount(labels)):
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
