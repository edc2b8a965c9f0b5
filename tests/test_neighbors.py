"""Neighbor search against a brute-force oracle."""

import io
import math

import numpy as np
import pytest

from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, parse_libsvm,
                               partition, zscore_normalize)
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
