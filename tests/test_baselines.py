"""Mutual information, discretization, and the greedy MI baseline."""

import math
import tracemalloc

import numpy as np
import pytest

from beliefsel import baselines
from beliefsel.baselines import (ContingencyTable, discretize_equal_width,
                                 mrmr_select, mutual_information)
from beliefsel.dataset import Dataset, FeatureKind
from beliefsel.errors import DataError


class TestMutualInformation:
    def test_identical_balanced_bits_carry_one_bit(self):
        a = np.array([0, 1, 0, 1, 0, 1])
        assert mutual_information(a, a) == 1.0

    def test_independent_bits_carry_zero(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert mutual_information(a, b) == 0.0

    def test_hand_expanded_table(self):
        # joint counts  [[2, 1], [0, 1]]
        a = np.array([0, 0, 0, 1])
        b = np.array([0, 0, 1, 1])
        want = (0.5 * math.log2(0.5 / (0.75 * 0.5))
                + 0.25 * math.log2(0.25 / (0.75 * 0.5))
                + 0.25 * math.log2(0.25 / (0.25 * 0.5)))
        assert mutual_information(a, b) == pytest.approx(want, abs=1e-15)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.integers(0, 4, 50)
            b = rng.integers(0, 3, 50)
            mab = mutual_information(a, b)
            assert mab == pytest.approx(mutual_information(b, a), abs=1e-12)
            assert mab > -1e-12

    def test_relabeling_codes_changes_nothing(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, 60)
        b = rng.integers(0, 2, 60)
        perm = np.array([2, 0, 1])
        assert mutual_information(perm[a], b) == pytest.approx(
            mutual_information(a, b), abs=1e-12)

    def test_bad_vectors_rejected(self):
        with pytest.raises(DataError):
            mutual_information(np.array([0, 1]), np.array([0]))
        with pytest.raises(DataError):
            mutual_information(np.array([-1, 0]), np.array([0, 1]))
        with pytest.raises(DataError):
            ContingencyTable.from_codes(np.array([]), np.array([]))


class TestDiscretize:
    def test_two_bins_split_at_midpoint(self):
        assert discretize_equal_width(np.array([0.0, 5.0, 10.0]), 2).tolist() == [0, 1, 1]

    def test_maximum_lands_in_top_bin(self):
        codes = discretize_equal_width(np.linspace(0, 1, 11), 10)
        assert codes[-1] == 9
        assert codes.max() == 9

    def test_constant_vector_is_single_bin(self):
        assert discretize_equal_width(np.full(5, 2.5), 10).tolist() == [0] * 5

    def test_codes_stay_in_range(self):
        rng = np.random.default_rng(8)
        for bins in (1, 3, 10):
            codes = discretize_equal_width(rng.standard_normal(100), bins)
            assert codes.min() >= 0 and codes.max() < bins

    def test_bad_bin_count_rejected(self):
        with pytest.raises(DataError):
            discretize_equal_width(np.array([1.0]), 0)


class TestMrmrSelect:
    def test_first_pick_maximizes_label_mi(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, 200)
        X = rng.standard_normal((200, 5))
        X[:, 3] = y + 0.05 * rng.standard_normal(200)  # near-perfect predictor
        ds = Dataset(X, y, [FeatureKind.NUMERIC] * 5)
        res = mrmr_select(ds, 1)
        assert res.selected_features() == [3]

    def test_copy_of_chosen_feature_is_penalized(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, 300)
        noise = rng.integers(0, 2, 300)
        strong = np.where(rng.random(300) < 0.9, y, 1 - y)
        weak = np.where(rng.random(300) < 0.75, y, 1 - y)  # independent noise
        X = np.column_stack([strong, strong, weak, noise]).astype(float)
        ds = Dataset(X, y, [FeatureKind.NOMINAL] * 4)
        res = mrmr_select(ds, 2)
        # feature 1 is an exact copy of the first pick: its difference score
        # goes negative while the weaker distinct predictor keeps most of its MI
        assert res.selected_features() == [0, 2]

    def test_scores_match_direct_recomputation(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 3, 120)
        X = rng.integers(0, 3, (120, 6)).astype(float)
        X[:, 1] = (y + rng.integers(0, 2, 120)) % 3
        ds = Dataset(X, y, [FeatureKind.NOMINAL] * 6)
        res = mrmr_select(ds, 4)
        codes = [X[:, j].astype(int) for j in range(6)]
        chosen = []
        for item in res.selected:
            j = item.feature
            rel = mutual_information(codes[j], y)
            pen = (sum(mutual_information(codes[j], codes[c]) for c in chosen)
                   / len(chosen)) if chosen else 0.0
            assert item.weight == pytest.approx(rel, abs=1e-12)
            assert item.score == pytest.approx(rel - pen, abs=1e-12)
            chosen.append(j)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(12)
        y = rng.integers(0, 2, 80)
        X = rng.standard_normal((80, 7))
        ds = Dataset(X, y, [FeatureKind.NUMERIC] * 7)
        assert (mrmr_select(ds, 5).selected_features()
                == mrmr_select(ds, 5).selected_features())

    @pytest.mark.parametrize("budget", [0, 8 * 120 * 3])
    def test_column_blocks_do_not_change_the_result(self, monkeypatch, budget):
        # Blocks of one and of three columns cut across the nominal columns.
        rng = np.random.default_rng(13)
        y = rng.integers(0, 3, 120)
        X = rng.standard_normal((120, 8))
        X[:, [2, 5]] = rng.integers(0, 3, (120, 2))
        X[:, 6] = y + 0.3 * rng.standard_normal(120)
        ds = Dataset(X, y, [FeatureKind.NOMINAL if j in (2, 5) else FeatureKind.NUMERIC
                            for j in range(8)])
        whole = mrmr_select(ds, 4)
        monkeypatch.setattr(baselines, "_COLUMN_BLOCK_BYTES", budget)
        assert mrmr_select(ds, 4).selected == whole.selected

    def test_sparse_columns_are_read_a_block_at_a_time(self):
        # All 3000 columns as floats next to their codes would take 48 MB.
        rng = np.random.default_rng(14)
        m, n = 1000, 3000
        rows = [(np.sort(rng.choice(n, 5, replace=False)), rng.standard_normal(5))
                for _ in range(m)]
        ds = Dataset(rows, rng.integers(0, 2, m), [FeatureKind.NUMERIC] * n)
        tracemalloc.start()
        try:
            mrmr_select(ds, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * n + 3 * baselines._COLUMN_BLOCK_BYTES

    def test_selection_size_validated(self):
        ds = Dataset(np.zeros((4, 2)), [0, 1, 0, 1], [FeatureKind.NUMERIC] * 2)
        with pytest.raises(DataError):
            mrmr_select(ds, 3)
