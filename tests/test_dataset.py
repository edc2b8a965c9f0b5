"""Parsing, normalization, partitioning, and sampling."""

import io
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from beliefsel import dataset
from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, parse_csv,
                               parse_libsvm, partition, read_metadata,
                               write_csv, write_libsvm, write_metadata,
                               zscore_normalize)
from beliefsel.errors import DataError
from beliefsel.selection import SelectorConfig, run_belief


def make_dense(m=12, n=5, n_classes=2, seed=0, nominal=()):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    for j in nominal:
        X[:, j] = rng.integers(0, 3, m)
    kinds = [FeatureKind.NOMINAL if j in nominal else FeatureKind.NUMERIC
             for j in range(n)]
    y = rng.integers(0, n_classes, m)
    y[:n_classes] = np.arange(n_classes)  # every class present
    return Dataset(X, y, kinds)


def reference_zscore(ds):
    """The three-copy dense z-score: copy, gather numeric columns, scatter back."""
    X = ds.rows.copy()
    mask = ds.numeric
    mean = np.zeros(ds.n_features)
    std = np.ones(ds.n_features)
    if mask.any():
        sub = X[:, mask]
        mu = sub.mean(axis=0)
        sigma = sub.std(axis=0)
        sigma[sigma == 0.0] = 1.0
        X[:, mask] = (sub - mu) / sigma
        mean[mask] = mu
        std[mask] = sigma
    return X, mean, std


def reference_statistics(ds, width=64):
    """reference_zscore's means and stds, taken over slices of ``width``
    columns so its copies stay small; a column's statistics depend on that
    column alone."""
    parts = [reference_zscore(Dataset(ds.rows[:, a:a + width], ds.labels,
                                      ds.numeric[a:a + width]))
             for a in range(0, ds.n_features, width)]
    return (np.concatenate([mean for _, mean, _ in parts]),
            np.concatenate([std for _, _, std in parts]))


def mixed_dense(m, n, seed):
    """Numeric columns of mixed scale and offset, nominal 3 and 7, constant 1."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n)) * rng.uniform(0.01, 1e3, n) + rng.uniform(-1e3, 1e3, n)
    nominal = np.isin(np.arange(n), (3, 7))
    X[:, nominal] = rng.integers(0, 4, (m, 2))
    X[:, 1] = 2.5
    kinds = [FeatureKind.NOMINAL if f else FeatureKind.NUMERIC for f in nominal]
    return Dataset(X, rng.integers(0, 2, m), kinds)


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("1 3:0.5 7:1.2\n0 1:2.0\n"))
        idx, vals = ds.row(0)
        assert idx.tolist() == [2, 6]
        assert vals.tolist() == [0.5, 1.2]
        assert ds.n_features == 7
        assert ds.labels.tolist() == [1, 0]

    def test_label_only_line_is_empty_row(self):
        ds = parse_libsvm(io.StringIO("0\n1 2:1.0\n"))
        idx, vals = ds.row(0)
        assert idx.size == 0 and vals.size == 0
        assert ds.labels[0] == 0

    def test_signed_labels_map_in_numeric_order(self):
        ds = parse_libsvm(io.StringIO("+1 1:1\n-1 1:2\n-1 2:3\n"))
        assert ds.labels.tolist() == [1, 0, 0]

    def test_nondecreasing_indices_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm(io.StringIO("1 3:0.5 3:1.0\n"))
        with pytest.raises(DataError):
            parse_libsvm(io.StringIO("1 5:0.5 2:1.0\n"))

    def test_malformed_token_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm(io.StringIO("1 3:abc\n"))
        with pytest.raises(DataError):
            parse_libsvm(io.StringIO("1 0:1.0\n"))  # 1-based

    def test_declared_width_checked(self):
        with pytest.raises(DataError):
            parse_libsvm(io.StringIO("1 9:1.0\n"), n_features=5)
        ds = parse_libsvm(io.StringIO("1 3:1.0\n"), n_features=10)
        assert ds.n_features == 10

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm(io.StringIO(""))

    @pytest.mark.parametrize("token, line, where", [
        pytest.param(t, "0 1:1.0 3:{}", r"at index 3", id=t)
        for t in ["nan", "inf", "-inf", "NaN"]
    ] + [
        pytest.param(t, "{} 1:1.0 3:2.0", r"in column 1 \(label\)", id=f"label-{t}")
        for t in ["nan", "-inf"]
    ])
    def test_non_finite_value_names_line_and_index(self, token, line, where):
        with pytest.raises(DataError, match=rf"line 2: .* {where}"):
            parse_libsvm(io.StringIO(f"1 1:0.5\n{line.format(token)}\n"))


class TestParseCsv:
    TEXT = "a,b,color,class\n1.5,2,red,yes\n0.5,3,blue,no\n2.5,1,red,yes\n"

    def test_kinds_inferred_and_nominal_coded(self):
        ds = parse_csv(io.StringIO(self.TEXT), label_column="class")
        assert ds.numeric.tolist() == [True, True, False]
        # first-appearance coding: red -> 0, blue -> 1
        assert ds.rows[:, 2].tolist() == [0.0, 1.0, 0.0]
        assert ds.labels.tolist() == [0, 1, 0]

    def test_unknown_kind_names_its_position(self):
        with pytest.raises(DataError, match=r"kind 2 is 'bogus'"):
            parse_csv(io.StringIO(self.TEXT), label_column="class",
                      kinds=["numeric", FeatureKind.NUMERIC, "bogus"])

    def test_label_column_by_position(self):
        ds = parse_csv(io.StringIO(self.TEXT), label_column=3)
        assert ds.n_features == 3
        ds = parse_csv(io.StringIO(self.TEXT), label_column=-1)
        assert ds.n_features == 3

    def test_numeric_labels_sorted(self):
        text = "x,class\n1.0,2\n2.0,0\n3.0,1\n"
        ds = parse_csv(io.StringIO(text))
        assert ds.labels.tolist() == [2, 0, 1]

    def test_ragged_row_rejected(self):
        with pytest.raises(DataError):
            parse_csv(io.StringIO("a,b,class\n1,2\n"))

    def test_missing_label_column_rejected(self):
        with pytest.raises(DataError):
            parse_csv(io.StringIO(self.TEXT), label_column="nope")

    @pytest.mark.parametrize("token, column, kinds", [
        pytest.param(t, 2, None, id=t) for t in ["nan", "inf", "-Infinity"]
    ] + [
        # NaN never equals itself, so it must not reach the code tables.
        pytest.param("nan", 2, [FeatureKind.NUMERIC, FeatureKind.NOMINAL],
                     id="nominal-nan"),
        pytest.param("nan", 3, None, id="label-nan"),
        pytest.param("inf", 3, None, id="label-inf"),
    ])
    def test_non_finite_cell_names_line_and_column(self, token, column, kinds):
        # The blank line still counts, so the report matches the file.
        cells = ["3.0", "5.0", "1"]
        cells[column - 1] = token
        text = "a,b,class\n1.0,2.0,0\n\n" + ",".join(cells) + "\n"
        name = ["a", "b", "class"][column - 1]
        with pytest.raises(DataError,
                           match=rf"line 4: .* column {column} \('{name}'\)"):
            parse_csv(io.StringIO(text), kinds=kinds)

    def test_forced_numeric_kind_on_text_rejected(self):
        with pytest.raises(DataError):
            parse_csv(io.StringIO(self.TEXT), label_column="class",
                      kinds=[FeatureKind.NUMERIC] * 3)


class TestRoundTrip:
    def test_libsvm_round_trip(self):
        rng = np.random.default_rng(3)
        lines = []
        for i in range(20):
            nnz = rng.integers(0, 6)
            idx = np.sort(rng.choice(15, size=nnz, replace=False)) + 1
            toks = [str(rng.integers(0, 2))]
            toks += [f"{j}:{rng.standard_normal():.6f}" for j in idx]
            lines.append(" ".join(toks))
        ds = parse_libsvm(io.StringIO("\n".join(lines) + "\n"))
        buf = io.StringIO()
        write_libsvm(ds, buf)
        ds2 = parse_libsvm(io.StringIO(buf.getvalue()), n_features=ds.n_features)
        assert ds2.labels.tolist() == ds.labels.tolist()
        for i in range(ds.n_instances):
            assert np.array_equal(ds.row(i)[0], ds2.row(i)[0])
            assert np.array_equal(ds.row(i)[1], ds2.row(i)[1])

    def test_dense_libsvm_round_trip_keeps_all_zero_rows(self):
        ds = make_dense(m=10, n=6, seed=4)
        rows = ds.rows.copy()
        rows[rows < 0.3] = 0.0
        rows[3] = 0.0
        ds = Dataset(rows, ds.labels, ds.numeric)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        assert buf.getvalue().splitlines()[3] == str(ds.labels[3])
        ds2 = parse_libsvm(io.StringIO(buf.getvalue()), n_features=ds.n_features)
        assert ds2.labels.tolist() == ds.labels.tolist()
        assert np.array_equal(ds2.rows.to_dense(ds.n_features), rows)

    def test_csv_round_trip(self):
        ds = make_dense(m=15, n=6, nominal=(2, 4), seed=5)
        buf = io.StringIO()
        write_csv(ds, buf)
        ds2 = parse_csv(io.StringIO(buf.getvalue()), label_column="class",
                        kinds=ds.numeric)
        assert np.array_equal(ds.rows, ds2.rows)
        assert np.array_equal(ds.labels, ds2.labels)
        assert np.array_equal(ds.numeric, ds2.numeric)

    def test_metadata_sidecar_round_trip(self):
        ds = zscore_normalize(make_dense(nominal=(1,)))
        buf = io.StringIO()
        write_metadata(ds, buf)
        doc = read_metadata(io.StringIO(buf.getvalue()))
        assert doc["n_features"] == ds.n_features
        assert doc["kinds"][1] == "nominal"
        assert doc["normalized"] is True
        np.testing.assert_allclose(doc["means"], ds.means)


class TestZscore:
    def test_three_point_column(self):
        # mean 4, population sigma sqrt(8/3): values map to -/+ sqrt(1.5)
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), [0, 0, 1],
                     [FeatureKind.NUMERIC])
        out = zscore_normalize(ds)
        root = math.sqrt(1.5)
        np.testing.assert_allclose(out.column(0), [-root, 0.0, root],
                                   rtol=0, atol=1e-15)
        assert out.means[0] == 4.0
        np.testing.assert_allclose(out.stds[0], math.sqrt(8.0 / 3.0))

    def test_population_not_sample_sigma(self):
        vals = np.array([1.0, 2.0, 3.0, 10.0])
        ds = Dataset(vals[:, None], [0, 0, 1, 1], [FeatureKind.NUMERIC])
        out = zscore_normalize(ds)
        assert abs(out.stds[0] - vals.std()) < 1e-15          # ddof=0
        assert abs(out.stds[0] - vals.std(ddof=1)) > 1e-3

    def test_constant_feature_zeroed_with_unit_sigma(self):
        X = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        ds = Dataset(X, [0, 1, 0, 1, 0], [FeatureKind.NUMERIC] * 2)
        out = zscore_normalize(ds)
        assert np.all(out.column(0) == 0.0)
        assert out.stds[0] == 1.0

    def test_post_state_and_idempotence(self):
        ds = make_dense(m=40, n=6, seed=1)
        out = zscore_normalize(ds)
        assert out.normalized
        Z = out.feature_space().scaled(out.rows)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(Z.std(axis=0) - 1.0) < 1e-6)
        again = zscore_normalize(out)
        np.testing.assert_allclose(again.feature_space().scaled(again.rows), Z,
                                   atol=1e-9, rtol=0)

    def test_nominal_untouched(self):
        ds = make_dense(m=20, n=4, nominal=(1,), seed=2)
        out = zscore_normalize(ds)
        assert np.array_equal(out.column(1), ds.rows[:, 1])

    @pytest.mark.parametrize("m", [1, 7, 9000])
    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_dense_matches_three_copy_reference(self, m, width, monkeypatch):
        # 9000 rows pass numpy's 8192-element pairwise block; width patches
        # the block budget so blocks split inside the feature range.
        if width is not None:
            monkeypatch.setattr(dataset, "_STATS_BYTES", 8 * dataset._LEAF_ROWS * width)
        ds = mixed_dense(m, 11, seed=m)
        before = ds.rows.copy()
        out = zscore_normalize(ds)
        X, mean, std = reference_zscore(ds)
        assert np.array_equal(out.feature_space().scaled(out.rows), X)
        assert np.array_equal(out.means, mean)
        assert np.array_equal(out.stds, std)
        assert np.array_equal(ds.rows, before)
        assert ds.means is None and not ds.normalized

    @pytest.mark.parametrize("bad, first", [((8,), 8), ((8, 6), 6), ((4, 8), 4)])
    def test_dense_non_finite_in_later_block_names_its_feature(self, bad, first,
                                                               monkeypatch):
        # Two-column blocks: numeric features 1-2, 3-4, 5-6 and 7-8; with
        # two or more workers the later blocks go to another thread.
        monkeypatch.setattr(dataset, "_STATS_BYTES", 8 * dataset._LEAF_ROWS * 2)
        ds = make_dense(m=10, n=9, nominal=(0,), seed=4)
        for j in bad:
            ds.rows[j - 3, j] = np.nan
        for workers in (1, 2, 3):
            with pytest.raises(DataError, match=rf"feature {first} "):
                zscore_normalize(ds, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("m, width", [(5, 2), (40, None), (9000, 3)])
    def test_pooled_normalize_matches_single_thread(self, m, width, workers,
                                                    monkeypatch):
        # (5, 2): five stats blocks, so eight workers outnumber the blocks.
        # (40, None): one block, which stays on the calling thread.
        # (9000, 3): three stats blocks of four columns or fewer.
        if width is not None:
            monkeypatch.setattr(dataset, "_STATS_BYTES", 8 * dataset._LEAF_ROWS * width)
        ds = mixed_dense(m, 11, seed=m)
        one = zscore_normalize(ds)
        out = zscore_normalize(ds, workers=workers)
        X, mean, std = reference_zscore(ds)
        for got in (one, out):
            assert np.array_equal(got.feature_space().scaled(got.rows), X)
            assert np.array_equal(got.means, mean)
            assert np.array_equal(got.stds, std)

    def test_run_belief_normalizes_on_the_partition_pool(self, monkeypatch):
        seen = []
        pool = dataset._map_pool

        def spy(fn, items, workers):
            seen.append((fn.__name__, workers))
            return pool(fn, items, workers)

        monkeypatch.setattr(dataset, "_map_pool", spy)
        run_belief(make_dense(m=30, n=4, seed=6),
                   SelectorConfig(n_select=2, partitions=3, theta=0.0))
        # Statistics only: the rows stay raw and are z-scored as read.
        assert ("column_stats", 3) in seen
        assert not any(name == "write" for name, _ in seen)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_normalize_holds_one_stats_block_per_worker(self, workers):
        # numpy reports its buffers to tracemalloc.  Five 1024-column blocks
        # go to the pool; each thread holds one leaf buffer of at most
        # _STATS_BYTES at a time (the variance reuses it), and the rows are
        # shared, not copied.
        ds = make_dense(m=300, n=5000, nominal=(3, 40), seed=9)
        tracemalloc.start()
        try:
            zscore_normalize(ds, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (workers + 1) * dataset._STATS_BYTES

    def test_dense_normalize_makes_no_copy(self):
        # numpy reports its buffers to tracemalloc.  The statistics hold one
        # leaf buffer of at most _STATS_BYTES; the output shares the
        # input's rows.
        ds = make_dense(m=20000, n=60, nominal=(3, 40), seed=9)
        tracemalloc.start()
        try:
            out = zscore_normalize(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.rows is ds.rows
        assert peak <= 2 * dataset._STATS_BYTES

    @pytest.mark.parametrize("n", [1, 3, 1025])
    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257,
                                   8191, 8192, 8193, 20001])
    def test_row_order_statistics_match_column_gather(self, m, n):
        # The statistics rebuild numpy's pairwise order from row slices:
        # 128-row leaves, 8 lanes, halves at multiples of 8.  Column 0 has a
        # 1e8 offset and a 1e-3 spread; n=3 puts a nominal column between
        # two numeric ones (a gathered leaf); n=1025 is two column blocks.
        rng = np.random.default_rng(m * 7 + n)
        X = np.empty((m, n))
        rng.standard_normal(out=X)
        X *= rng.uniform(0.01, 1e3, n)
        X += rng.uniform(-1e3, 1e3, n)
        X[:, 0] = 1e8 + 1e-3 * rng.standard_normal(m)
        kinds = [FeatureKind.NUMERIC] * n
        if n == 3:
            X[:, 1] = rng.integers(0, 4, m)
            kinds[1] = FeatureKind.NOMINAL
        ds = Dataset(X, rng.integers(0, 2, m), kinds)
        out = zscore_normalize(ds, workers=2)
        mean, std = reference_statistics(ds)
        assert np.array_equal(out.means, mean)
        assert np.array_equal(out.stds, std)

    @pytest.mark.parametrize("n, blocks", [(1024, 1), (1025, 2)])
    def test_statistics_blocks_are_1024_columns_wide(self, n, blocks, monkeypatch):
        seen = []
        pool = dataset._map_pool

        def spy(fn, items, workers):
            items = list(items)
            seen.append(len(items))
            return pool(fn, items, workers)

        monkeypatch.setattr(dataset, "_map_pool", spy)
        zscore_normalize(make_dense(m=20, n=n, seed=1), workers=2)
        assert seen == [blocks]

    @pytest.mark.parametrize("sparse", [False, True])
    def test_overflowing_spread_names_its_feature(self, sparse):
        # The mean of feature 1 is finite; its squared deviations are not.
        X = np.array([[1.0, 1e200, 0.5], [2.0, -1e200, 0.0], [0.0, 1e200, 3.0]])
        rows = [(np.flatnonzero(x), x[x != 0]) for x in X] if sparse else X
        ds = Dataset(rows, [0, 1, 0], [FeatureKind.NUMERIC] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"feature 1 .*spread overflows"):
                zscore_normalize(ds)

    def test_sparse_statistics_match_per_row_loop(self):
        rng = np.random.default_rng(8)
        rows = []
        for _ in range(300):
            idx = np.sort(rng.choice(40, rng.integers(0, 8), replace=False))
            rows.append((idx.astype(np.int64), rng.standard_normal(idx.size) * 5))
        ds = Dataset(rows, rng.integers(0, 2, 300), [FeatureKind.NUMERIC] * 40)
        s = np.zeros(40)
        for idx, vals in rows:
            np.add.at(s, idx, vals)
        mean = s / 300
        # Two passes: squared deviations of the stored entries, then the
        # absent zeros, (300 - count) of them per feature.
        ss = np.zeros(40)
        count = np.zeros(40, dtype=np.int64)
        for idx, vals in rows:
            np.add.at(ss, idx, (vals - mean[idx]) ** 2)
            np.add.at(count, idx, 1)
        std = np.sqrt((ss + (300 - count) * (mean * mean)) / 300)
        std[std == 0.0] = 1.0
        out = zscore_normalize(ds)
        assert np.array_equal(out.means, mean)
        assert np.array_equal(out.stds, std)

    def test_sparse_large_offset_keeps_its_spread(self):
        # Feature 0 is 1e8 + N(0, 1) in every row, feature 1 in every other
        # row.  The one-pass sq/m - mean^2 cancels to noise on both.
        rng = np.random.default_rng(21)
        X = np.zeros((400, 2))
        X[:, 0] = 1e8 + rng.standard_normal(400)
        X[::2, 1] = 1e8 + rng.standard_normal(200)
        rows = [(np.flatnonzero(x), x[x != 0]) for x in X]
        sparse = zscore_normalize(Dataset(rows, np.arange(400) % 2, [FeatureKind.NUMERIC] * 2))
        dense = zscore_normalize(Dataset(X, np.arange(400) % 2, [FeatureKind.NUMERIC] * 2))
        np.testing.assert_allclose(sparse.stds, dense.stds, rtol=1e-12, atol=0)

    def test_sparse_without_stored_entries_normalizes(self):
        # Every value absent: means 0 and stds 1, as for constant features.
        empty = (np.array([], dtype=np.int64), np.ones(0))
        out = zscore_normalize(Dataset([empty] * 4, [0, 1, 1, 0], [FeatureKind.NUMERIC] * 3))
        assert out.means.tolist() == [0.0] * 3 and out.stds.tolist() == [1.0] * 3

    def test_sparse_is_lazy(self):
        ds = parse_libsvm(io.StringIO("0 1:2.0\n0 1:4.0\n1 1:6.0\n"))
        out = zscore_normalize(ds)
        # raw storage untouched, transform applied through column()
        assert out.row(0)[1].tolist() == [2.0]
        root = math.sqrt(1.5)
        np.testing.assert_allclose(out.column(0), [-root, 0.0, root], atol=1e-15)
        assert np.all(np.abs(out.column(0).mean()) < 1e-9)

    def test_sparse_renormalize_composes(self):
        ds = parse_libsvm(io.StringIO("0 1:2.0 2:1.0\n0 1:4.0\n1 1:6.0\n"))
        once = zscore_normalize(ds)
        twice = zscore_normalize(once)
        for j in range(ds.n_features):
            np.testing.assert_allclose(twice.column(j), once.column(j), atol=1e-9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            zscore_normalize(Dataset(np.empty((0, 2)), [], [FeatureKind.NUMERIC] * 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_non_finite_names_first_bad_feature(self, bad):
        ds = make_dense(m=10, n=5, nominal=(0,), seed=4)
        ds.rows[3, 4] = bad
        ds.rows[6, 2] = bad
        with pytest.raises(DataError, match=r"feature 2 "):
            zscore_normalize(ds)

    def test_sparse_non_finite_names_first_bad_feature(self):
        rows = [(np.array([0, 3]), np.array([1.0, np.inf])),
                (np.array([1]), np.array([np.nan]))]
        ds = Dataset(rows, [0, 1], [FeatureKind.NUMERIC] * 4)
        with pytest.raises(DataError, match=r"feature 1 "):
            zscore_normalize(ds)

    def test_prenormalized_dense_input_is_checked_before_search(self):
        # Pre-normalized input skips zscore_normalize, and with it the
        # statistics that check the numeric columns.
        ds = make_dense(m=20, n=5, nominal=(0,), seed=5)
        ds.rows[7, 3] = np.nan
        pre = Dataset(ds.rows, ds.labels, ds.numeric, normalized=True)
        with pytest.raises(DataError, match=r"feature 3 "):
            run_belief(pre, SelectorConfig(n_select=2))

    def test_prenormalized_sparse_input_is_checked_before_search(self):
        rows = [(np.array([0]), np.array([1.0])), (np.array([1]), np.array([np.inf])),
                (np.array([0, 1]), np.array([2.0, 3.0])), (np.array([1]), np.array([1.0]))]
        pre = Dataset(rows, [0, 1, 0, 1], [FeatureKind.NUMERIC] * 2, normalized=True)
        with pytest.raises(DataError, match=r"feature 1 "):
            run_belief(pre, SelectorConfig(n_select=1, k=1))


class TestPartition:
    def test_sizes_differ_by_at_most_one(self):
        ds = make_dense(m=10)
        pd = partition(ds, 3)
        sizes = [int(pd.starts[g + 1] - pd.starts[g]) for g in range(3)]
        assert sorted(sizes, reverse=True) == [4, 3, 3]

    def test_single_partition_is_input_order(self):
        ds = make_dense(m=7)
        pd = partition(ds, 1)
        assert np.arange(pd.starts[0], pd.starts[1]).tolist() == list(range(7))

    def test_blocks_cover_every_row_once(self):
        ds = make_dense(m=23)
        pd = partition(ds, 5)
        seen = np.concatenate([np.arange(pd.starts[g], pd.starts[g + 1]) for g in range(5)])
        assert sorted(seen.tolist()) == list(range(23))

    def test_block_order_is_global_order(self):
        ds = make_dense(m=17)
        pd = partition(ds, 4)
        flat = []
        for g in range(4):
            block = np.arange(pd.starts[g], pd.starts[g + 1]).tolist()
            assert block == sorted(block)
            flat += block
        assert flat == sorted(flat)

    def test_too_many_partitions_rejected(self):
        ds = make_dense(m=4)
        with pytest.raises(DataError):
            partition(ds, 5)
        with pytest.raises(DataError):
            partition(ds, 0)


class TestMapPool:
    """``_map_pool``: item 0 on the calling thread, the rest on a pool of
    one thread fewer, results and errors in item order."""

    def test_results_in_item_order_when_later_items_finish_first(self):
        done = [threading.Event() for _ in range(3)]
        finished = []

        def fn(x):
            if x < 2:  # each item waits for the one after it
                assert done[x + 1].wait(5)
            finished.append(x)
            done[x].set()
            return x * x

        assert dataset._map_pool(fn, range(3), 3) == [0, 1, 4]
        assert finished == [2, 1, 0]

    def test_item_zero_runs_on_the_calling_thread(self):
        ids = dataset._map_pool(lambda x: threading.get_ident(), range(3), 3)
        assert ids[0] == threading.get_ident()
        assert threading.get_ident() not in ids[1:]

    def test_at_most_workers_items_at_once(self):
        lock = threading.Lock()
        running = [0]
        peak = [0]

        def fn(x):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            return x

        for workers in (1, 2, 3):
            peak[0] = 0
            assert dataset._map_pool(fn, range(6), workers) == list(range(6))
            assert 1 <= peak[0] <= workers

    @pytest.mark.parametrize("bad", [0, 2])
    def test_an_item_error_reaches_the_caller(self, bad):
        def fn(x):
            if x == bad:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=f"item {bad}"):
            dataset._map_pool(fn, range(3), 3)

    def test_first_error_in_item_order_wins(self):
        def fn(x):
            if x:
                time.sleep(0.02 * (3 - x))  # item 2 fails first
                raise ValueError(f"item {x}")

        with pytest.raises(ValueError, match="item 1"):
            dataset._map_pool(fn, range(3), 3)

    def test_no_pool_thread_outlives_the_call(self):
        def fail(x):
            raise ValueError(f"item {x}")

        before = threading.active_count()
        dataset._map_pool(lambda x: time.sleep(0.01), range(3), 3)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="item 0"):
            dataset._map_pool(fail, range(3), 3)
        assert threading.active_count() == before


class TestDrawSample:
    def test_size_is_ceiling_of_rate(self):
        ds = make_dense(m=10)
        pd = partition(ds, 2)
        batches = draw_sample(pd, 0.25, 1, seed=1)
        assert sum(len(b) for b in batches) == 3  # ceil(2.5)

    @pytest.mark.parametrize("rate,m,size", [(0.07, 100, 7), (0.28, 75, 21),
                                             (0.05, 10_000, 500)])
    def test_size_of_a_product_just_above_an_integer(self, rate, m, size):
        # 0.07 * 100 is 7.000000000000001 in float64; its ceiling drew 8.
        pd = partition(make_dense(m=m, n=1), 1)
        assert sum(len(b) for b in draw_sample(pd, rate, 2, seed=0)) == size

    def test_without_replacement_and_deterministic(self):
        ds = make_dense(m=50)
        pd = partition(ds, 4)
        a = draw_sample(pd, 0.5, 1, seed=9)[0]
        b = draw_sample(pd, 0.5, 1, seed=9)[0]
        assert len(set(a.indices.tolist())) == len(a)
        assert a.indices.tolist() == b.indices.tolist()
        c = draw_sample(pd, 0.5, 1, seed=10)[0]
        assert a.indices.tolist() != c.indices.tolist()

    def test_sample_independent_of_partition_count(self):
        ds = make_dense(m=60)
        a = draw_sample(partition(ds, 1), 0.3, 1, seed=4)[0]
        b = draw_sample(partition(ds, 7), 0.3, 1, seed=4)[0]
        assert a.indices.tolist() == b.indices.tolist()

    def test_batches_partition_the_sample(self):
        ds = make_dense(m=40)
        pd = partition(ds, 3)
        batches = draw_sample(pd, 1.0, 3, seed=0)
        sizes = [len(b) for b in batches]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate([b.indices for b in batches])
        assert sorted(merged.tolist()) == sorted(
            draw_sample(pd, 1.0, 1, seed=0)[0].indices.tolist())

    def test_members_carry_row_copies(self):
        ds = make_dense(m=10)
        pd = partition(ds, 2)
        batch = draw_sample(pd, 1.0, 1, seed=0)[0]
        i = int(batch.indices[0])
        assert np.array_equal(batch.rows[0], ds.rows[i])
        batch.rows[0, 0] += 100.0
        assert batch.rows[0, 0] != ds.rows[i, 0]
        batch.labels[0] += 1
        assert batch.labels[0] != ds.labels[i]

    def test_bad_rate_rejected(self):
        pd = partition(make_dense(m=10), 2)
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(DataError):
                draw_sample(pd, rate)
        with pytest.raises(DataError):
            draw_sample(pd, 0.5, batches=0)


class TestDatasetBasics:
    def test_priors_match_counts(self):
        ds = make_dense(m=30, n_classes=3, seed=8)
        priors = ds.class_priors()
        assert priors.sum() == pytest.approx(1.0)
        counts = np.bincount(ds.labels, minlength=3)
        np.testing.assert_allclose(priors, counts / 30)

    def test_subset_keeps_values_and_labels(self):
        ds = make_dense(m=20, seed=3)
        sub = ds.subset([4, 1, 7])
        assert np.array_equal(sub.rows, ds.rows[[4, 1, 7]])
        assert sub.labels.tolist() == ds.labels[[4, 1, 7]].tolist()
        assert sub.n_classes == ds.n_classes

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, 3], [FeatureKind.NUMERIC], n_classes=2)
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, -1], [FeatureKind.NUMERIC])

    def test_non_finite_nominal_value_rejected(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 2, (40, 4)).astype(float)
        X[17, 2] = np.nan
        y = np.arange(40) % 2
        with pytest.raises(DataError, match=r"row 17: .* nominal feature 2"):
            Dataset(X, y, [FeatureKind.NOMINAL] * 4)

    def test_non_finite_nominal_value_found_in_a_later_row_block(self, monkeypatch):
        # Blocks of 3 rows: the first bad value in row order is reported,
        # the lowest nominal feature within its row, by its global row id.
        monkeypatch.setattr(dataset, "_STATS_BYTES", 3 * 8 * 5)
        rng = np.random.default_rng(9)
        X = rng.integers(0, 2, (40, 5)).astype(float)
        X[17, 4], X[17, 2], X[20, 1] = np.inf, np.nan, np.nan
        X[16, 0] = np.nan  # numeric: left to zscore_normalize
        kinds = [FeatureKind.NUMERIC] + [FeatureKind.NOMINAL] * 4
        with pytest.raises(DataError, match=r"row 17: .* nominal feature 2"):
            Dataset(X, np.arange(40) % 2, kinds)

    def test_nominal_check_reads_row_blocks(self):
        # numpy reports its buffers to tracemalloc.  The check holds one
        # block of at most _STATS_BYTES rows at a time, never a gather of
        # every nominal column (2000 x 250 x 8 B = 4 MB here).
        ds = make_dense(m=2000, n=500, nominal=range(0, 500, 2), seed=4)
        tracemalloc.start()
        try:
            out = Dataset(ds.rows, ds.labels, ds.numeric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.rows is ds.rows
        assert peak <= dataset._STATS_BYTES

    @pytest.mark.parametrize("bad", [
        pytest.param([4, 2], id="unsorted"),
        pytest.param([1, 3, 3], id="duplicate"),
        pytest.param([-1, 2], id="negative"),
    ])
    def test_bad_sparse_indices_in_a_later_row_rejected(self, bad):
        # The rows before are valid, and the step from 5 down to the bad
        # row's first index crosses a row boundary, which is allowed.
        rows = [(np.array([0, 5]), np.ones(2)), (np.array([], dtype=np.int64), np.ones(0)),
                (np.array([2, 5]), np.ones(2)), (np.array(bad), np.ones(len(bad)))]
        with pytest.raises(DataError, match="sparse indices must be ascending and unique"):
            Dataset(rows, [0, 1, 0, 1], [FeatureKind.NUMERIC] * 6)

    def test_empty_sparse_rows_accepted(self):
        empty = (np.array([], dtype=np.int64), np.ones(0))
        rows = [empty, (np.array([3, 7]), np.ones(2)), empty,
                (np.array([1, 2]), np.ones(2)), empty]
        assert Dataset(rows, [0, 1, 0, 1, 0], [FeatureKind.NUMERIC] * 4).n_features == 8
        assert Dataset([empty, empty], [0, 1], [FeatureKind.NUMERIC] * 4).n_features == 4

    def test_sparse_index_check_matches_per_row_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rows = [(np.sort(rng.choice(12, rng.integers(0, 5), replace=False)),)
                    for _ in range(rng.integers(1, 6))]
            if rng.random() < 0.7:  # break one row's order, sign or uniqueness
                r = rng.integers(len(rows))
                idx = rows[r][0].copy()
                if idx.size:
                    idx[rng.integers(idx.size)] = rng.integers(-2, 12)
                rows[r] = (idx,)
            rows = [(idx, np.ones(idx.size)) for (idx,) in rows]
            valid = all(idx.size == 0 or (np.all(np.diff(idx) > 0) and idx[0] >= 0)
                        for idx, _ in rows)
            labels = np.zeros(len(rows), dtype=np.int64)
            if valid:
                width = max([int(idx[-1]) + 1 for idx, _ in rows if idx.size] + [0])
                assert Dataset(rows, labels, []).n_features == width
            else:
                with pytest.raises(DataError, match="ascending and unique"):
                    Dataset(rows, labels, [])

    def test_dense_statistics_are_applied_on_read(self):
        # The normalized dataset shares the raw rows; every read z-scores
        # them to the three-copy reference's values, bit for bit.
        ds = make_dense(m=40, n=6, nominal=(2,), seed=3)
        ds.rows[:, 4] *= 1e4
        X, mean, std = reference_zscore(ds)
        lazy = zscore_normalize(ds)
        assert lazy.rows is ds.rows
        assert np.array_equal(lazy.means, mean) and np.array_equal(lazy.stds, std)
        assert np.array_equal(lazy.feature_space().scaled(ds.rows), X)
        assert np.array_equal(lazy.columns(range(6)), X.T)
        sub = lazy.subset([5, 1, 30])
        assert np.array_equal(sub.feature_space().scaled(sub.rows), X[[5, 1, 30]])
        # Rows passed as normalized without statistics are read as they are.
        pre = Dataset(X, ds.labels, ds.numeric, normalized=True)
        assert pre.feature_space().scaled(pre.rows) is pre.rows
        assert np.array_equal(pre.column(4), X[:, 4])
        assert pre.subset([3]).feature_space().means is None

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("means, stds, normalized, message", [
        pytest.param(np.zeros(3), None, True, "given together", id="no-stds"),
        pytest.param(None, np.ones(3), True, "given together", id="no-means"),
        pytest.param(np.zeros(2), np.ones(2), True, "each hold 3 values", id="short"),
        pytest.param(np.zeros(3), np.ones((3, 1)), True, "each hold 3 values", id="2-d"),
        pytest.param([0.0, np.nan, 0.0], np.ones(3), True, "finite", id="nan-mean"),
        pytest.param(np.zeros(3), [1.0, np.inf, 1.0], True, "finite", id="inf-std"),
        pytest.param(np.zeros(3), [1.0, np.nan, 1.0], True, "finite", id="nan-std"),
        pytest.param(np.zeros(3), [1.0, 0.0, 1.0], True, "> 0", id="zero-std"),
        pytest.param(np.zeros(3), [1.0, 1.0, -2.0], True, "> 0", id="negative-std"),
        pytest.param(np.zeros(3), np.ones(3), False, "only on a normalized dataset",
                     id="not-normalized"),
    ])
    def test_bad_statistics_rejected(self, sparse, means, stds, normalized, message):
        X = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]])
        rows = [(np.flatnonzero(x), x[x != 0]) for x in X] if sparse else X
        with pytest.raises(DataError, match=message):
            Dataset(rows, [0, 1], [FeatureKind.NUMERIC] * 3, means=means,
                    stds=stds, normalized=normalized)
        ok = Dataset(rows, [0, 1], [FeatureKind.NUMERIC] * 3, means=[0.0, 1.0, 2.0],
                     stds=[1.0, 2.0, 0.5], normalized=True)
        assert np.array_equal(ok.column(1), [-0.5, 1.0])

    @pytest.mark.parametrize("normalized", [False, True])
    def test_sparse_columns_match_a_scan_per_column(self, normalized):
        # Features 2 and 9 have no entries and rows 1 and 4 are empty;
        # features are asked for out of order and twice.
        rows = [(np.array([0, 3]), np.array([1.5, -2.0])), (np.array([], int), np.array([])),
                (np.array([0, 1, 7]), np.array([3.0, 4.0, 0.25])), (np.array([3]), np.array([8.0])),
                (np.array([], int), np.array([])), (np.array([1, 3, 7]), np.array([-1.0, 2.0, 5.0]))]
        ds = Dataset(rows, [0, 1, 0, 1, 0, 1], [FeatureKind.NUMERIC] * 10)
        if normalized:
            ds = zscore_normalize(ds)

        def scan(j):  # one pass over every stored entry per column
            col = np.zeros(ds.n_instances)
            at = np.flatnonzero(ds.rows.indices == j)
            col[np.searchsorted(ds.rows.indptr, at, side="right") - 1] = ds.rows.data[at]
            if normalized:
                col = (col - ds.means[j]) / ds.stds[j]
            return col

        feats = [7, 2, 0, 9, 3, 7, 1]
        got = ds.columns(feats)
        assert got.shape == (len(feats), ds.n_instances)
        for row, j in zip(got, feats):
            assert np.array_equal(row, scan(j))
            assert np.array_equal(row, ds.column(j))
        with pytest.raises(DataError, match="feature index 10"):
            ds.columns([1, 10])

    def test_feature_space_scales_only_rows_with_statistics(self):
        dense = make_dense(m=12, seed=2)
        assert dense.feature_space().scaled(dense.rows) is dense.rows
        pre = Dataset(dense.rows, dense.labels, dense.numeric, normalized=True)
        assert pre.feature_space().scaled(pre.rows) is pre.rows
        raw = parse_libsvm(io.StringIO("0 1:2.0 3:4.0\n1 2:1.0\n0 1:6.0\n"))
        assert raw.feature_space().scaled(raw.rows) is raw.rows  # no x1.0 copy
        norm = zscore_normalize(raw)
        got = norm.feature_space().scaled(norm.rows)
        assert np.array_equal(got.indptr, raw.rows.indptr)
        assert np.array_equal(got.indices, raw.rows.indices)
        assert np.array_equal(got.data, raw.rows.data * (1.0 / norm.stds)[raw.rows.indices])

    def test_kinds_stored_as_one_read_only_array(self):
        X = np.zeros((2, 3))
        ds = Dataset(X, [0, 1], ["numeric", FeatureKind.NOMINAL, FeatureKind.NUMERIC])
        assert ds.numeric.dtype == bool and ds.numeric.tolist() == [True, False, True]
        assert not ds.numeric.flags.writeable
        assert np.array_equal(zscore_normalize(ds).numeric, ds.numeric)
        assert np.array_equal(ds.subset([1]).numeric, ds.numeric)
        # A bool array is copied, so the caller's array cannot change the kinds.
        flags = np.array([True, True, False])
        kept = Dataset(X, [0, 1], flags)
        flags[0] = False
        assert kept.numeric.tolist() == [True, True, False]
        assert Dataset(X, [0, 1], [FeatureKind.NOMINAL] * 3).numeric.tolist() == [False] * 3

    @pytest.mark.parametrize("sparse", [False, True])
    def test_unknown_kind_names_its_position(self, sparse):
        rows = [(np.array([0]), np.array([1.0]))] * 2 if sparse else np.zeros((2, 3))
        with pytest.raises(DataError, match=r"kind 1 is 'bogus'"):
            Dataset(rows, [0, 1], ["numeric", "bogus", "numeric"])

    def test_sparse_must_be_numeric(self):
        rows = [(np.array([0]), np.array([1.0]))]
        with pytest.raises(DataError):
            Dataset(rows, [0], [FeatureKind.NOMINAL])
