"""Neighbor search against a brute-force oracle."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsel.dataset import (Dataset, FeatureKind, _zscore_on_read, draw_sample,
                               parse_libsvm, partition, zscore_normalize)
from beliefsel import neighbors
from beliefsel.errors import DataError
from beliefsel.neighbors import (GRAM_MIN_FEATURES, LOCATOR_BYTES,
                                 _dense_distances_subtract, feature_diff,
                                 instance_distance, neighborhood)


def oracle_neighbors(pdata, batch, k):
    """All-pairs scan with scalar distances, sorted by (distance, row id)."""
    ds = pdata.dataset
    space = ds.feature_space()
    out = {}
    for pos in range(len(batch)):
        gid = int(batch.indices[pos])
        per_class = {}
        for j in range(ds.n_instances):
            if j == gid:
                continue
            d = instance_distance(ds.row(gid), ds.row(j), space)
            per_class.setdefault(int(ds.labels[j]), []).append((d, j))
        merged = {}
        for c, cands in per_class.items():
            cands.sort()
            merged[c] = cands[:k]
        out[gid] = merged
    return out


def as_global(batch, table):
    """Table slots as {gid: {class: [(distance, global id)]}}, with padding
    dropped and empty classes omitted."""
    out = {}
    for gid, rows, dist in zip(batch.indices.tolist(), table.rows, table.dist):
        out[gid] = {
            c: [(float(d), int(r)) for d, r in zip(dist[c], rows[c]) if r >= 0]
            for c in range(rows.shape[0]) if rows[c, 0] >= 0
        }
    return out


def random_dataset(seed, m=60, n=6, n_classes=2, nominal=(), lattice=False):
    rng = np.random.default_rng(seed)
    if lattice:
        X = rng.integers(0, 4, (m, n)).astype(float)
    else:
        X = rng.standard_normal((m, n))
    for j in nominal:
        X[:, j] = rng.integers(0, 3, m)
    kinds = [FeatureKind.NOMINAL if j in nominal else FeatureKind.NUMERIC
             for j in range(n)]
    y = rng.integers(0, n_classes, m)
    y[:n_classes] = np.arange(n_classes)
    return Dataset(X, y, kinds)


def sparse_dataset(seed, m=48, n=12, lattice=True):
    """Sparse rows with 1-4 entries, two empty rows (5 and 17), rows 30 and
    41 exact copies of row 9 (all n features, long enough for the order of
    a sum to matter) in its class, and class 2 held by two rows."""
    rng = np.random.default_rng(seed)

    def values(size):
        return (rng.integers(1, 4, size).astype(float) if lattice
                else rng.standard_normal(size))

    rows = [(np.sort(rng.choice(n, size, replace=False)), values(size))
            for size in rng.integers(1, 5, m)]
    rows[5] = rows[17] = (np.array([], dtype=np.int64), np.empty(0))
    rows[9] = rows[30] = rows[41] = (np.arange(n), values(n))
    y = rng.integers(0, 2, m)
    y[:2] = [0, 1]
    y[[30, 41]] = y[9]
    y[[3, 40]] = 2
    return Dataset(rows, y, [FeatureKind.NUMERIC] * n)


def tiled_dataset(seed, m=61, n=7, lattice=True, twins=True):
    """Mixed-kind rows in three classes, for 8-row search tiles: rows 16..39
    are all class 0 (so whole tiles hold no class 1 or 2 row), class 2 is
    rows 3 and 50 only, and, with ``twins``, row 8 is an exact copy of row 7
    in its class, on the other side of the first tile boundary."""
    rng = np.random.default_rng(seed)
    X = (rng.integers(0, 4, (m, n)).astype(float) if lattice
         else rng.standard_normal((m, n)))
    X[:, 1] = rng.integers(0, 3, m)
    y = rng.integers(0, 2, m)
    y[16:40] = 0
    y[[3, 50]] = 2
    if twins:
        X[8], y[8] = X[7], y[7]
    kinds = [FeatureKind.NOMINAL if j == 1 else FeatureKind.NUMERIC for j in range(n)]
    return Dataset(X, y, kinds)


def assert_matches_oracle(pdata, batch, k, rtol=1e-12):
    """Ids exact, distances within ``rtol``, against ``oracle_neighbors``."""
    got = as_global(batch, neighborhood(pdata, batch, k))
    want = oracle_neighbors(pdata, batch, k)
    assert got.keys() == want.keys()
    for gid in want:
        assert got[gid].keys() == want[gid].keys()
        for c in want[gid]:
            assert [r for _, r in got[gid][c]] == [r for _, r in want[gid][c]]
            np.testing.assert_allclose([d for d, _ in got[gid][c]],
                                       [d for d, _ in want[gid][c]], rtol=rtol, atol=0)
    return got


@st.composite
def lattice_datasets(draw):
    """Small mixed-kind datasets on a coarse lattice, so distance ties and
    exact duplicate rows are common.  2-4 classes hold rows; the last of
    them holds only one or two, and one more class is declared with none.
    Rows are either stored as read, or raw with statistics applied on read:
    integer means and power-of-two stds, so every z-scored value, and
    every distance, is exact."""
    m = draw(st.integers(8, 60))
    n = draw(st.integers(1, 12))
    present = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(list(FeatureKind)), min_size=n, max_size=n))
    X = np.array(draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)),
                 dtype=float).reshape(m, n)
    y = np.array(draw(st.lists(st.integers(0, present - 2), min_size=m, max_size=m)))
    few = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2, unique=True))
    y[few] = present - 1
    numeric = np.array([kind is FeatureKind.NUMERIC for kind in kinds])
    if draw(st.booleans()):
        return Dataset(X, y, kinds, n_classes=present + 1)
    means = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    stds = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                                  min_size=n, max_size=n)))
    means[~numeric], stds[~numeric] = 0.0, 1.0
    return Dataset(X, y, kinds, n_classes=present + 1, means=means, stds=stds,
                   normalized=True, scale_on_read=True)


class TestFeatureDiff:
    def test_numeric_absolute_difference(self):
        assert feature_diff(0.2, 0.5, FeatureKind.NUMERIC) == pytest.approx(0.3)
        assert feature_diff(-1.0, 2.0, FeatureKind.NUMERIC) == 3.0

    def test_nominal_indicator(self):
        assert feature_diff(2.0, 2.0, FeatureKind.NOMINAL) == 0.0
        assert feature_diff(0.0, 1.0, FeatureKind.NOMINAL) == 1.0
        # magnitude of the code gap is irrelevant
        assert feature_diff(0.0, 7.0, FeatureKind.NOMINAL) == 1.0


class TestInstanceDistance:
    def test_dense_euclidean(self):
        ds = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]), [0, 1],
                     [FeatureKind.NUMERIC] * 2)
        space = ds.feature_space()
        assert instance_distance(ds.row(0), ds.row(1), space) == 5.0

    def test_mixed_kinds_add_indicator(self):
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 2.0]]), [0, 1],
                     [FeatureKind.NUMERIC, FeatureKind.NOMINAL])
        space = ds.feature_space()
        assert instance_distance(ds.row(0), ds.row(1), space) == math.sqrt(5.0)

    def test_sparse_against_dense(self):
        ds = parse_libsvm(io.StringIO("0 1:3.0\n1 1:1.0 2:1.0\n"))
        space = ds.feature_space()
        dense = np.array([0.0, 4.0])
        assert instance_distance(ds.row(0), dense, space) == 5.0
        assert instance_distance(dense, ds.row(0), space) == 5.0

    def test_sparse_pair(self):
        ds = parse_libsvm(io.StringIO("0 1:3.0\n1 2:4.0\n"))
        space = ds.feature_space()
        assert instance_distance(ds.row(0), ds.row(1), space) == 5.0

    def test_sparse_matches_densified(self):
        rng = np.random.default_rng(7)
        lines = []
        for _ in range(25):
            idx = np.sort(rng.choice(12, size=rng.integers(1, 6), replace=False)) + 1
            toks = [str(rng.integers(0, 2))]
            toks += [f"{j}:{rng.standard_normal():.6f}" for j in idx]
            lines.append(" ".join(toks))
        ds = zscore_normalize(parse_libsvm(io.StringIO("\n".join(lines))))
        space = ds.feature_space()
        dense = np.column_stack([ds.column(j) for j in range(ds.n_features)])
        for a in range(0, 25, 5):
            for b in range(1, 25, 7):
                got = instance_distance(ds.row(a), ds.row(b), space)
                want = float(np.sqrt(((dense[a] - dense[b]) ** 2).sum()))
                assert got == pytest.approx(want, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        space = Dataset(np.zeros((1, 2)), [0], [FeatureKind.NUMERIC] * 2).feature_space()
        with pytest.raises(DataError):
            instance_distance(np.zeros(2), np.zeros(3), space)


class TestVectorizedKernels:
    def test_subtract_kernel_matches_scalar(self):
        # Same terms per pair; the block-level reduction may move the last
        # bit on long rows, so the bound is one part in 1e13, not equality.
        ds = random_dataset(11, m=40, n=9, nominal=(2, 5))
        space = ds.feature_space()
        Q = ds.rows[:7]
        sq = _dense_distances_subtract(Q, ds.rows, space)
        for i in range(7):
            for j in range(40):
                scalar = instance_distance(ds.rows[i], ds.rows[j], space)
                assert math.sqrt(sq[i, j]) == pytest.approx(scalar, rel=1e-13, abs=0.0)

    def test_gram_kernel_close_to_scalar(self):
        ds = random_dataset(12, m=50, n=GRAM_MIN_FEATURES + 10)
        pdata = partition(zscore_normalize(ds), 1)
        batch = draw_sample(pdata, 0.2, 1, seed=0)[0]
        table = neighborhood(pdata, batch, k=3)
        got = as_global(batch, table)
        want = oracle_neighbors(pdata, batch, 3)
        for gid in want:
            for c in want[gid]:
                got_ids = [t[1] for t in got[gid][c]]
                want_ids = [t[1] for t in want[gid][c]]
                assert got_ids == want_ids
                for (dg, _), (dw, _) in zip(got[gid][c], want[gid][c]):
                    assert dg == pytest.approx(dw, abs=1e-9)


class TestNeighborhood:
    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_matches_oracle(self, p, lattice):
        ds = random_dataset(20 + p, m=57, n=7, n_classes=3,
                            nominal=(1,), lattice=lattice)
        pdata = partition(zscore_normalize(ds) if not lattice else ds, p)
        batch = draw_sample(pdata, 0.3, 1, seed=2)[0]
        table = neighborhood(pdata, batch, k=3)
        assert as_global(batch, table) == oracle_neighbors(pdata, batch, 3)

    def test_partition_count_does_not_change_result(self):
        ds = zscore_normalize(random_dataset(33, m=80, n=12, n_classes=3))
        batches = {}
        tables = {}
        for p in (1, 3, 8):
            pdata = partition(ds, p)
            batch = draw_sample(pdata, 0.25, 1, seed=5)[0]
            batches[p] = batch.indices.tolist()
            tables[p] = as_global(batch, neighborhood(pdata, batch, k=4))
        assert batches[1] == batches[3] == batches[8]
        assert tables[1] == tables[3] == tables[8]  # ids and float distances

    def test_self_excluded_but_duplicate_rows_eligible(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0], [9.0, 9.0]])
        ds = Dataset(X, [0, 0, 0, 1], [FeatureKind.NUMERIC] * 2)
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        table = neighborhood(pdata, batch, k=1)
        got = as_global(batch, table)
        assert got[0][0] == [(0.0, 1)]  # twin row, not itself
        assert got[1][0] == [(0.0, 0)]

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_tie_broken_by_ascending_row_id(self, p):
        # rows 1, 2, 3 all at distance 2 from row 0
        X = np.array([[0.0], [2.0], [-2.0], [2.0], [0.5]])
        ds = Dataset(X, [0, 1, 1, 1, 1], [FeatureKind.NUMERIC], n_classes=2)
        pdata = partition(ds, p)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        got = as_global(batch, neighborhood(pdata, batch, k=3))
        assert got[0][1] == [(0.5, 4), (2.0, 1), (2.0, 2)]

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_tie_at_kth_distance_across_partition_boundary(self, p):
        # From row 0: row 1 at 0.5, rows 2..8 at 3, rows 9..19 at 2.  Eleven
        # rows tie at the 3rd-nearest distance, on both sides of the
        # partition boundary at row 10 when p is 2.
        X = np.array([0.0, 0.5] + [3.0, -3.0] * 3 + [3.0, -2.0]
                     + [2.0, -2.0] * 5)[:, None]
        ds = Dataset(X, [0] + [1] * 19, [FeatureKind.NUMERIC])
        pdata = partition(ds, p)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        got = as_global(batch, neighborhood(pdata, batch, k=3))
        assert got[0][1] == [(0.5, 1), (2.0, 9), (2.0, 10)]
        assert got == oracle_neighbors(pdata, batch, 3)

    def test_short_bucket_when_class_is_small(self):
        X = np.arange(8.0)[:, None]
        y = [0, 0, 0, 0, 0, 0, 0, 1]
        ds = Dataset(X, y, [FeatureKind.NUMERIC])
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        table = neighborhood(pdata, batch, k=3)
        got = as_global(batch, table)
        assert len(got[0][1]) == 1  # lone opposite-class row
        assert 1 not in got[7]      # no same-class partner, bucket omitted
        assert len(got[0][0]) == 3

    def test_sparse_dataset_end_to_end(self):
        rng = np.random.default_rng(44)
        lines = []
        for i in range(40):
            idx = np.sort(rng.choice(10, size=rng.integers(1, 5), replace=False)) + 1
            toks = [str(i % 2)]
            toks += [f"{j}:{rng.standard_normal():.4f}" for j in idx]
            lines.append(" ".join(toks))
        ds = zscore_normalize(parse_libsvm(io.StringIO("\n".join(lines))))
        for p in (1, 4):
            pdata = partition(ds, p)
            batch = draw_sample(pdata, 0.25, 1, seed=3)[0]
            got = as_global(batch, neighborhood(pdata, batch, k=2))
            want = oracle_neighbors(pdata, batch, 2)
            for gid in want:
                for c in want[gid]:
                    assert [t[1] for t in got[gid][c]] == [t[1] for t in want[gid][c]]
                    for (dg, _), (dw, _) in zip(got[gid][c], want[gid][c]):
                        assert dg == pytest.approx(dw, abs=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lattice", [True, False])
    def test_sparse_matches_oracle(self, p, k, lattice):
        # Unscaled lattice values keep every distance exact, so ties resolve
        # as in the oracle; z-scored normal values exercise the lazy scale.
        ds = sparse_dataset(60 + p, lattice=lattice)
        pdata = partition(ds if lattice else zscore_normalize(ds), p)
        batch = draw_sample(pdata, 1.0, 1, seed=p)[0]
        got = assert_matches_oracle(pdata, batch, k)
        c = int(ds.labels[9])
        assert got[30][c][:2] == [(0.0, 9), (0.0, 41)][:k]
        assert len(got[3][2]) == 1  # class 2 has one row besides row 3

    @pytest.mark.parametrize("p", [1, 2])
    def test_sparse_duplicates_sit_at_distance_exactly_zero(self, p):
        # Rows i and i + 30 are equal and 50 entries long, so a norm summed
        # in another order than the dot products would be off by an ulp.
        rng = np.random.default_rng(8)
        rows = [(np.sort(rng.choice(200, 50, replace=False)), rng.standard_normal(50))
                for _ in range(30)]
        y = np.tile(rng.integers(0, 2, 30), 2)
        ds = zscore_normalize(Dataset(rows + rows, y, [FeatureKind.NUMERIC] * 200))
        pdata = partition(ds, p)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        table = neighborhood(pdata, batch, k=1)
        own = table.dist[np.arange(60), y[batch.indices], 0]
        assert np.all(own == 0.0)
        assert np.array_equal(table.rows[np.arange(60), y[batch.indices], 0],
                              (batch.indices + 30) % 60)

    def test_sparse_search_temporaries_stay_in_tiles(self):
        # 2000 x 2000 with 200 entries a row: a query chunk's products with
        # the whole partition at once would take about 200 MB.
        rng = np.random.default_rng(5)
        m, n, nnz = 2000, 2000, 200
        rows = [(np.sort(rng.choice(n, nnz, replace=False)), rng.standard_normal(nnz))
                for _ in range(m)]
        ds = zscore_normalize(Dataset(rows, np.arange(m) % 2, [FeatureKind.NUMERIC] * n))
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 0.06, 1, seed=0)[0]
        tracemalloc.start()
        try:
            neighborhood(pdata, batch, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The scaled values and, while the row norms are summed, their
        # squares; then per query chunk the dense buffer, one tile of
        # products and a few distance arrays, each about the tile budget.
        assert peak <= 2 * ds.rows.data.nbytes + 8 * neighbors._TILE_BYTES

    def test_narrow_dense_search_buffers_stay_in_budget(self):
        # 100,000 x 4 raw rows in one partition.  Tiles sized by their own
        # bytes alone would be one 100,000-row tile, and a 128-query block
        # of distances to it 102 MB.
        rng = np.random.default_rng(6)
        m = 100_000
        ds = Dataset(rng.standard_normal((m, 4)), np.arange(m) % 3, [FeatureKind.NUMERIC] * 4)
        pdata = partition(_zscore_on_read(ds), 1)
        batch = draw_sample(pdata, 0.001, 1, seed=0)[0]
        tracemalloc.start()
        try:
            neighborhood(pdata, batch, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The class member lists (2.4 MB), then per tile the z-scored rows,
        # the distance block, a class's copy of it and its argpartition
        # indices, each within the tile budget.
        assert peak <= 4 * neighbors._DENSE_TILE_BYTES

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stored", ["raw", "zscored"])
    def test_tiled_search_matches_oracle(self, monkeypatch, p, k, stored):
        # 8-row tiles over partitions of 61, 31/30 and 21/20/20 rows: every
        # row is sampled, so tile edges are queries too.  Row 7 ends a tile
        # and row 8, its twin, starts the next; class 2 has two rows, fewer
        # than k = 3 or 5.
        monkeypatch.setattr(neighbors, "_DENSE_TILE_BYTES", 0)
        ds = tiled_dataset(70 + p)
        pdata = partition((zscore_normalize if stored == "zscored" else _zscore_on_read)(ds), p)
        assert pdata.dataset.scale_on_read == (stored == "raw")
        batch = draw_sample(pdata, 1.0, 1, seed=p)[0]
        got = assert_matches_oracle(pdata, batch, k)
        c = int(ds.labels[7])
        assert got[7][c][0] == (0.0, 8) and got[8][c][0] == (0.0, 7)
        for gid in set(got) - {7}:  # the twins tie; the lower row id wins
            ids = [r for _, r in got[gid].get(c, [])]
            assert 8 not in ids or ids[ids.index(8) - 1:ids.index(8)] == [7]
        assert len(got[3][2]) == 1 and len(got[10][2]) == min(k, 2)

    @pytest.mark.parametrize("p", [1, 3])
    def test_tiled_gram_search_matches_oracle(self, monkeypatch, p):
        monkeypatch.setattr(neighbors, "_DENSE_TILE_BYTES", 0)
        monkeypatch.setattr(neighbors, "GRAM_MIN_FEATURES", 1)
        ds = tiled_dataset(80 + p, lattice=False, twins=False)
        pdata = partition(_zscore_on_read(ds), p)
        batch = draw_sample(pdata, 0.5, 1, seed=p)[0]
        assert_matches_oracle(pdata, batch, 3)

    @settings(max_examples=40)
    @given(ds=lattice_datasets(), p=st.integers(1, 5), k=st.integers(1, 7),
           gram=st.booleans())
    def test_tiled_search_matches_oracle_on_lattice_data(self, ds, p, k, gram):
        # Exact arithmetic on both sides, so distances must agree exactly
        # and ties must resolve by row id as in the oracle.
        with mock.patch.object(neighbors, "_DENSE_TILE_BYTES", 0), \
                mock.patch.object(neighbors, "GRAM_MIN_FEATURES", 1 if gram else 10 ** 6):
            pdata = partition(ds, min(p, ds.n_instances))
            batch = draw_sample(pdata, 0.3, 1, seed=k)[0]
            assert_matches_oracle(pdata, batch, k, rtol=0)

    def test_k_below_one_rejected(self):
        pdata = partition(random_dataset(1), 2)
        batch = draw_sample(pdata, 0.1, 1, seed=0)[0]
        with pytest.raises(DataError):
            neighborhood(pdata, batch, k=0)


class TestAccounting:
    def test_record_and_byte_bookkeeping(self):
        ds = zscore_normalize(random_dataset(55, m=90, n=8, n_classes=3))
        p, k = 4, 3
        pdata = partition(ds, p)
        batch = draw_sample(pdata, 0.2, 1, seed=7)[0]
        table = neighborhood(pdata, batch, k)
        assert table.emitted_bytes == table.emitted_records * LOCATOR_BYTES
        bound = len(batch) * k * ds.n_classes * p
        assert table.emitted_records <= bound
        merged = int(np.count_nonzero(table.rows >= 0))
        assert merged <= table.emitted_records
        # every emitted record priced as a full dense instance
        assert table.full_instance_bytes == table.emitted_records * 8 * ds.n_features

    def test_locator_payload_is_small_fraction(self):
        ds = zscore_normalize(random_dataset(56, m=200, n=120))
        pdata = partition(ds, 4)
        batch = draw_sample(pdata, 0.1, 1, seed=0)[0]
        table = neighborhood(pdata, batch, k=3)
        assert table.emitted_bytes * 50 <= table.full_instance_bytes
