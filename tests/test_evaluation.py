"""Classifier scoring and leakage-safe cross-validation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import beliefsel

from beliefsel import neighbors
from beliefsel.dataset import Dataset, FeatureKind, zscore_normalize
from beliefsel.errors import DataError
from beliefsel.evaluation import (cross_validate, evaluate, knn_classify,
                                  stratified_folds)

NUM = FeatureKind.NUMERIC


def brute_force_vote(Xtr, ytr, Xte, nominal, k):
    """Majority votes over a full float64 scan of the z-scaled rows, with
    distance ties broken by training row and vote ties by neighbor order."""
    want = []
    for q in Xte:
        d = np.sqrt((((Xtr - q) ** 2)[:, ~nominal]).sum(axis=1)
                    + (Xtr[:, nominal] != q[nominal]).sum(axis=1))
        near = ytr[np.lexsort((np.arange(len(Xtr)), d))[:k]]
        votes = np.bincount(near)
        want.append(next(c for c in near if votes[c] == votes.max()))
    return want


def two_blobs(seed=0, m=60, n=4, gap=8.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, m)
    y[:2] = [0, 1]
    X = rng.standard_normal((m, n))
    X[:, 0] += gap * y
    return Dataset(X, y, [NUM] * n)


class TestKnnClassify:
    def test_separable_blobs_classified_perfectly(self):
        train = two_blobs(0)
        test = two_blobs(1)
        preds = knn_classify(train, test, 3, [0])
        assert np.array_equal(preds, test.labels)

    def test_single_neighbor_hand_check(self):
        train = Dataset(np.array([[0.0], [10.0]]), [0, 1], [NUM])
        test = Dataset(np.array([[1.0], [9.0]]), [0, 0], [NUM])
        preds = knn_classify(train, test, 1, [0])
        assert preds.tolist() == [0, 1]

    def test_distance_tie_prefers_lower_train_row(self):
        # both train rows sit at distance 1 from the probe
        train = Dataset(np.array([[1.0], [-1.0]]), [1, 0], [NUM])
        train = Dataset(train.rows, [1, 0], [NUM], means=np.zeros(1),
                        stds=np.ones(1), normalized=True)
        test = Dataset(np.array([[0.0]]), [0], [NUM], normalized=True)
        assert knn_classify(train, test, 1, [0]).tolist() == [1]

    def test_vote_tie_goes_to_nearest_tied_class(self):
        train = Dataset(np.array([[0.0], [2.0], [2.5], [10.0]]),
                        [0, 1, 1, 0], [NUM], means=np.zeros(1),
                        stds=np.ones(1), normalized=True)
        test = Dataset(np.array([[1.0]]), [0], [NUM], normalized=True)
        # k=4: two votes each; nearest neighbor (row 0, class 0) decides
        assert knn_classify(train, test, 4, [0]).tolist() == [0]

    def test_k_larger_than_train_set_is_clamped(self):
        train = Dataset(np.array([[0.0], [1.0]]), [0, 1], [NUM])
        test = Dataset(np.array([[0.2]]), [0], [NUM])
        preds = knn_classify(train, test, 50, [0])
        assert preds.shape == (1,)

    def test_nominal_features_use_mismatch_distance(self):
        train = Dataset(np.array([[0.0], [1.0], [2.0]]), [0, 1, 1],
                        [FeatureKind.NOMINAL])
        test = Dataset(np.array([[0.0], [2.0]]), [0, 0], [FeatureKind.NOMINAL])
        preds = knn_classify(train, test, 1, [0])
        assert preds.tolist() == [0, 1]

    def test_feature_subset_defines_the_metric(self):
        # feature 1 would separate the probe differently than feature 0
        train = Dataset(np.array([[0.0, 5.0], [5.0, 0.0]]), [0, 1], [NUM] * 2)
        test = Dataset(np.array([[0.5, 0.5]]), [0], [NUM] * 2)
        assert knn_classify(train, test, 1, [0]).tolist() == [0]
        assert knn_classify(train, test, 1, [1]).tolist() == [1]

    def test_bad_arguments_rejected(self):
        train = two_blobs(2, m=10)
        test = two_blobs(3, m=4)
        with pytest.raises(DataError):
            knn_classify(train, test, 0, [0])
        with pytest.raises(DataError):
            knn_classify(train, test, 1, [])
        with pytest.raises(DataError):
            knn_classify(train, test, 1, [99])
        empty = Dataset(np.empty((0, 4)), [], [NUM] * 4, normalized=True)
        with pytest.raises(DataError, match="empty training set"):
            knn_classify(empty, test, 1, [0])

    def test_non_finite_value_rejected(self):
        train = two_blobs(4, m=10)
        test = two_blobs(5, m=4)
        test.rows[2, 1] = np.nan
        with pytest.raises(DataError, match="test row 2: non-finite value in feature 1"):
            knn_classify(train, test, 1, [0, 1])
        pre = Dataset(np.array([[0.0], [np.inf]]), [0, 1], [NUM], normalized=True)
        with pytest.raises(DataError, match="train row 1"):
            knn_classify(pre, Dataset(np.zeros((1, 1)), [0], [NUM]), 1, [0])

    @pytest.mark.parametrize("small_tiles", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_brute_force_vote_over_row_tiles(self, monkeypatch, small_tiles, k):
        # Continuous mixed-kind data, so no distance ties; the 45 training
        # rows fold in one step, or in six with 8-row tiles.
        if small_tiles:
            monkeypatch.setattr(neighbors, "_DENSE_TILE_BYTES", 0)
        rng = np.random.default_rng(k)
        X = rng.standard_normal((60, 6)) * [1.0, 5.0, 1.0, 0.1, 1.0, 30.0]
        X[:, 2] = rng.integers(0, 3, 60)
        y = rng.integers(0, 3, 60)
        kinds = [FeatureKind.NOMINAL if j == 2 else NUM for j in range(6)]
        train, test = Dataset(X[:45], y[:45], kinds), Dataset(X[45:], y[45:], kinds)
        features = [5, 2, 0, 3]
        stats = zscore_normalize(train)
        mean, std = stats.means[features], stats.stds[features]
        Xtr = (X[:45, features] - mean) / std
        Xte = (X[45:, features] - mean) / std
        nominal = np.array([j == 2 for j in features])
        want = brute_force_vote(Xtr, y[:45], Xte, nominal, k)
        assert knn_classify(train, test, k, features).tolist() == want


    @pytest.mark.parametrize("huge", ["test", "train"])
    def test_rows_too_large_for_float32_are_measured_exactly(self, monkeypatch, huge):
        # Test rows near 1e25 are scaled to z-scores whose squared norms
        # overflow float32; a training row stored on the z-scale can be as
        # large.  Their blocks must get no float32 bound (8-row tiles, so
        # the other tiles still take one) and vote as a float64 scan does.
        monkeypatch.setattr(neighbors, "_DENSE_TILE_BYTES", 0)
        rng = np.random.default_rng(9)
        n = 260
        X = rng.standard_normal((60, n))
        y = rng.integers(0, 3, 60)
        X[:, 0] += 3.0 * y
        train, test = X[:45], X[45:]
        if huge == "test":
            test[::2] = 1e25 * (1.0 + rng.random((8, n)))
            train = Dataset(train, y[:45], [NUM] * n)
        else:
            train[20] = 1e25
            train = Dataset(train, y[:45], [NUM] * n, normalized=True)
        test = Dataset(test, y[45:], [NUM] * n, normalized=huge == "train")
        Xtr, Xte = train.rows, test.rows
        if huge == "test":
            stats = zscore_normalize(train)
            Xtr, Xte = ((X - stats.means) / stats.stds for X in (Xtr, Xte))
        want = brute_force_vote(Xtr, y[:45], Xte, np.zeros(n, dtype=bool), 3)
        assert knn_classify(train, test, 3, list(range(n))).tolist() == want

class TestEvaluate:
    def test_perfect_predictions(self):
        out = evaluate(np.array([0, 1, 1, 0]), np.array([0, 1, 1, 0]))
        assert out == {"accuracy": 1.0, "f1": 1.0}

    def test_binary_f1_hand_check(self):
        # tp=1 fp=1 fn=1 -> precision=recall=0.5 -> f1=0.5
        out = evaluate(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))
        assert out["accuracy"] == 0.5
        assert out["f1"] == pytest.approx(0.5)

    def test_no_positive_predictions_or_labels_scores_zero(self):
        out = evaluate(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert out["accuracy"] == 1.0
        assert out["f1"] == 0.0  # empty positive class, denominator rule

    def test_macro_f1_averages_per_class(self):
        preds = np.array([0, 1, 2, 2])
        labels = np.array([0, 1, 1, 2])
        per_class = []
        for c in range(3):
            tp = ((preds == c) & (labels == c)).sum()
            fp = ((preds == c) & (labels != c)).sum()
            fn = ((preds != c) & (labels == c)).sum()
            per_class.append(2 * tp / (2 * tp + fp + fn))
        out = evaluate(preds, labels)
        assert out["f1"] == pytest.approx(np.mean(per_class))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate(np.array([0]), np.array([0, 1]))


class TestStratifiedFolds:
    def test_classes_spread_evenly(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, 90)
        labels[:30] = 0  # make class sizes uneven
        assignment = stratified_folds(labels, 5, seed=1)
        for c in np.unique(labels):
            counts = np.bincount(assignment[labels == c], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_deterministic_per_seed(self):
        labels = np.arange(40) % 2
        a = stratified_folds(labels, 4, seed=7)
        b = stratified_folds(labels, 4, seed=7)
        c = stratified_folds(labels, 4, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_small_class_rejected(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(DataError):
            stratified_folds(labels, 2)
        with pytest.raises(DataError):
            stratified_folds(np.zeros(10, dtype=int), 1)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError, match="nonnegative"):
            stratified_folds(np.array([0, 1, -1, 0, 1, -1]), 2)


class TestCrossValidate:
    def test_selection_never_sees_the_test_fold(self):
        # feature 0 stores the global row id, so the selection callback can
        # report exactly which rows it was given
        m = 40
        X = np.column_stack([np.arange(m, dtype=float),
                             np.random.default_rng(0).standard_normal(m)])
        y = np.arange(m) % 2
        ds = Dataset(X, y, [NUM] * 2)
        seen = []

        def spy(train):
            seen.append(sorted(int(v) for v in train.rows[:, 0]))
            return [1]

        out = cross_validate(ds, 4, spy, knn_k=1, seed=3)
        assignment = stratified_folds(y, 4, seed=3)
        for f in range(4):
            train_ids = sorted(np.flatnonzero(assignment != f).tolist())
            assert seen[f] == train_ids
        assert out["selected_per_fold"] == [[1]] * 4

    def test_informative_feature_scores_high(self):
        ds = two_blobs(5, m=80)
        out = cross_validate(ds, 4, lambda train: [0], knn_k=3, seed=0)
        assert out["accuracy_mean"] > 0.9
        assert out["f1_mean"] > 0.9
        assert len(out["per_fold"]) == 4

    def test_noise_feature_scores_near_chance(self):
        ds = two_blobs(6, m=80)
        out = cross_validate(ds, 4, lambda train: [3], knn_k=3, seed=0)
        assert out["accuracy_mean"] < 0.75

    def test_aggregates_match_per_fold_values(self):
        ds = two_blobs(7, m=60)
        out = cross_validate(ds, 3, lambda train: [0, 1], knn_k=1, seed=2)
        accs = [m["accuracy"] for m in out["per_fold"]]
        assert out["accuracy_mean"] == pytest.approx(np.mean(accs))
        assert out["accuracy_std"] == pytest.approx(np.std(accs))


def test_selection_and_evaluation_leave_numpy_ma_unimported():
    # numpy's set routines (np.unique, np.setdiff1d, np.union1d) import the
    # three numpy.ma modules on first use: about 1.25 MB of RSS and 13 ms
    # on a process's first selection.  A fresh interpreter runs a two-batch
    # theta=0.5 selection, dense and sparse, and a cross-validation.
    script = textwrap.dedent("""
        import io, sys
        from beliefsel import SelectorConfig, generate, run_belief
        from beliefsel.dataset import parse_libsvm
        from beliefsel.evaluation import cross_validate
        config = SelectorConfig(n_select=3, theta=0.5, batches=2, sample_rate=0.5,
                                partitions=2, seed=0)
        ds, _ = generate("sd3", 0)
        text = "".join(f"{i % 2} {i % 7 + 1}:{i * 0.1} {i % 5 + 9}:1.5\\n" for i in range(40))
        for data in (ds, parse_libsvm(io.StringIO(text))):
            run_belief(data, config)
            cross_validate(data, 3, lambda d: run_belief(d, config).selected_features())
        assert "numpy.ma" not in sys.modules, sorted(m for m in sys.modules if "numpy.ma" in m)
    """)
    src = str(Path(beliefsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
