"""Mutual information, discretization, and the greedy MI baseline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsel import baselines
from beliefsel.baselines import discretize_equal_width, mrmr_select
from beliefsel.dataset import Dataset, FeatureKind
from beliefsel.errors import DataError
from oracles import ContingencyTable, mutual_information


def kernel_mi(a, b):
    """MI of two code vectors through the block kernel, as a one-row block."""
    return float(baselines._mi_rows(np.asarray(a)[None, :], np.asarray(b))[0])


# Every exact case runs through the scalar oracle and the block kernel.
MI = (mutual_information, kernel_mi)


class TestMutualInformation:
    def test_identical_balanced_bits_carry_one_bit(self):
        a = np.array([0, 1, 0, 1, 0, 1])
        for mi in MI:
            assert mi(a, a) == 1.0

    def test_independent_bits_carry_zero(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        for mi in MI:
            assert mi(a, b) == 0.0

    def test_hand_expanded_table(self):
        # joint counts  [[2, 1], [0, 1]]
        a = np.array([0, 0, 0, 1])
        b = np.array([0, 0, 1, 1])
        want = (0.5 * math.log2(0.5 / (0.75 * 0.5))
                + 0.25 * math.log2(0.25 / (0.75 * 0.5))
                + 0.25 * math.log2(0.25 / (0.25 * 0.5)))
        for mi in MI:
            assert mi(a, b) == pytest.approx(want, abs=1e-15)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.integers(0, 4, 50)
            b = rng.integers(0, 3, 50)
            for mi in MI:
                mab = mi(a, b)
                assert mab == pytest.approx(mi(b, a), abs=1e-12)
                assert mab > -1e-12

    def test_relabeling_codes_changes_nothing(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, 60)
        b = rng.integers(0, 2, 60)
        perm = np.array([2, 0, 1])
        for mi in MI:
            assert mi(perm[a], b) == pytest.approx(mi(a, b), abs=1e-12)

    def test_bad_vectors_rejected(self):
        for mi in MI:
            with pytest.raises(DataError):
                mi(np.array([0, 1]), np.array([0]))
            with pytest.raises(DataError):
                mi(np.array([-1, 0]), np.array([0, 1]))
        for empty in (ContingencyTable.from_codes, kernel_mi):
            with pytest.raises(DataError):
                empty(np.array([]), np.array([]))

    @settings(max_examples=60)
    @given(m=st.integers(1, 200), rows=st.integers(1, 6), a=st.integers(1, 300),
           b=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_kernel_rows_match_the_oracle(self, m, rows, a, b, seed):
        # uint16 codes below a, labels below b; row 0 is constant at 0 and
        # row 1 holds the single code a - 1.
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, a, (rows + 2, m)).astype(np.uint16)
        codes[0] = 0
        codes[1] = a - 1
        labels = rng.integers(0, b, m)
        got = baselines._mi_rows(codes, labels)
        for row, value in zip(codes, got):
            assert value == pytest.approx(mutual_information(row, labels), abs=1e-12)


class TestDiscretize:
    def test_two_bins_split_at_midpoint(self):
        assert discretize_equal_width(np.array([0.0, 5.0, 10.0]), 2).tolist() == [0, 1, 1]

    def test_maximum_lands_in_top_bin(self):
        codes = discretize_equal_width(np.linspace(0, 1, 11), 10)
        assert codes[-1] == 9
        assert codes.max() == 9

    def test_constant_vector_is_single_bin(self):
        assert discretize_equal_width(np.full(5, 2.5), 10).tolist() == [0] * 5

    def test_range_too_narrow_to_split_is_single_bin(self):
        # span / bins underflows to 0 here; dividing by it once warned
        # "divide by zero" (an error under the suite's warning filter) and
        # returned garbage codes.  One subnormal step wider splits.
        assert discretize_equal_width(np.array([0.0, 5e-324]), 10).tolist() == [0, 0]
        assert discretize_equal_width(np.array([0.0, 5e-324, 1e-323]), 2).tolist() == [0, 1, 1]

    def test_codes_stay_in_range(self):
        rng = np.random.default_rng(8)
        for bins in (1, 3, 10):
            codes = discretize_equal_width(rng.standard_normal(100), bins)
            assert codes.min() >= 0 and codes.max() < bins

    def test_bad_bin_count_rejected(self):
        with pytest.raises(DataError):
            discretize_equal_width(np.array([1.0]), 0)

    @pytest.mark.parametrize("values, match", [
        ([], "empty vector"),
        ([0.0, np.nan, 1.0], "non-finite"),
        ([0.0, np.inf], "non-finite"),
        ([-np.inf, 0.0], "non-finite"),
        ([0.0, 1e308, -1e308], r"range -1e\+308 to 1e\+308 overflows")],
        ids=["empty", "nan", "inf", "-inf", "overflow"])
    def test_bad_values_are_data_error(self, values, match):
        # These once raised a bare ValueError, warned from the cast or the
        # division, or (the finite values whose range overflows) returned
        # code -2**63.
        with pytest.raises(DataError, match=match):
            discretize_equal_width(np.array(values, dtype=np.float64))


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
        for j, norm, score in zip(res.features, res.normalized, res.scores):
            rel = mutual_information(codes[j], y)
            pen = (sum(mutual_information(codes[j], codes[c]) for c in chosen)
                   / len(chosen)) if chosen else 0.0
            assert res.weights.values[j] == norm == pytest.approx(rel, abs=1e-12)
            assert score == pytest.approx(rel - pen, abs=1e-12)
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
        blocked = mrmr_select(ds, 4)
        assert blocked.to_json_obj()["selected"] == whole.to_json_obj()["selected"]

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

    def test_numeric_codes_take_one_byte(self):
        # Codes of 2000 x 1500 numeric columns: 3 MB at one byte each, 24 MB
        # as int64.  Nominal codes stay int64, so a negative one is rejected.
        rng = np.random.default_rng(15)
        m, n = 2000, 1500
        rows = [(np.sort(rng.choice(n, 10, replace=False)), rng.standard_normal(10))
                for _ in range(m)]
        ds = Dataset(rows, rng.integers(0, 2, m), [FeatureKind.NUMERIC] * n)
        tracemalloc.start()
        try:
            mrmr_select(ds, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= m * n + 3 * baselines._COLUMN_BLOCK_BYTES
        col = np.array([0.0, 1.0, 2.0])
        assert baselines._feature_codes(col, True, 10).dtype == np.uint8
        assert baselines._feature_codes(col, True, 300).dtype == np.uint16
        assert baselines._feature_codes(col, False, 10).dtype == np.int64
        nominal = Dataset(np.array([[0.0], [-1.0]]), [0, 1], [FeatureKind.NOMINAL])
        with pytest.raises(DataError, match="nonnegative"):
            mrmr_select(nominal, 1)

    def test_wide_nominal_codes_hold_one_table_at_a_time(self):
        # After the first pick each candidate's table against it has about
        # 1000 x 1000 cells (8 MB), over the block budget, so a block holds
        # one feature and one table.  Besides the int64 codes, the bound
        # leaves 128 KiB for the run's small arrays and Python objects.
        rng = np.random.default_rng(16)
        m, n = 600, 8
        X = rng.integers(0, 1000, (m, n)).astype(float)
        ds = Dataset(X, rng.integers(0, 2, m), [FeatureKind.NOMINAL] * n)
        table = 8 * (int(X.max()) + 1) ** 2
        tracemalloc.start()
        try:
            res = mrmr_select(ds, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * n + baselines._COLUMN_BLOCK_BYTES + table + (1 << 17)
        codes = X.astype(int)
        pick = res.features[0]
        for j, penalty in zip(res.features[1:], res.penalties[1:]):
            pen = mutual_information(codes[:, j], codes[:, pick])
            assert penalty == pytest.approx(pen, abs=1e-12)

    def test_selection_size_validated(self):
        ds = Dataset(np.zeros((4, 2)), [0, 1, 0, 1], [FeatureKind.NUMERIC] * 2)
        with pytest.raises(DataError):
            mrmr_select(ds, 3)

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), [FeatureKind.NUMERIC] * 3)
        with pytest.raises(DataError, match="at least one instance"):
            mrmr_select(ds, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("budget", [1 << 22, 8 * 30 * 3])
    def test_non_finite_value_names_the_lowest_feature(self, monkeypatch, bad, budget):
        # Blocks of three columns put features 2 and 4 in different blocks.
        rng = np.random.default_rng(17)
        X = rng.standard_normal((30, 6))
        X[7, 4] = bad
        X[3, 2] = bad
        ds = Dataset(X, rng.integers(0, 2, 30), [FeatureKind.NUMERIC] * 6)
        monkeypatch.setattr(baselines, "_COLUMN_BLOCK_BYTES", budget)
        with pytest.raises(DataError, match=r"feature 2 holds a non-finite value"):
            mrmr_select(ds, 1)

    @pytest.mark.parametrize("budget", [1 << 22, 8 * 30 * 3])
    def test_overflowing_range_names_the_lowest_feature(self, monkeypatch, budget):
        # Finite values whose range overflows float64 once got code -2**63,
        # which the byte cast turned into 0, so the feature scored MI 0.
        # Blocks of three columns put features 2 and 4 in different blocks.
        rng = np.random.default_rng(17)
        X = rng.standard_normal((30, 6))
        X[[1, 8], 4] = [-1e308, 1e308]
        X[[3, 5], 2] = [1e308, -1e308]
        ds = Dataset(X, rng.integers(0, 2, 30), [FeatureKind.NUMERIC] * 6)
        monkeypatch.setattr(baselines, "_COLUMN_BLOCK_BYTES", budget)
        with pytest.raises(DataError, match=r"feature 2 holds values from -1e\+308 "
                                            r"to 1e\+308, whose range overflows"):
            mrmr_select(ds, 1)
