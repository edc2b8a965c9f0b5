"""Distance accumulation and weighting against hand-worked values."""

import numpy as np
import pytest

from beliefsel import estimation
from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, partition,
                               zscore_normalize)
from beliefsel.errors import IntegrityError
from beliefsel.estimation import (ClassDistanceStats, WeightVector,
                                  accumulate_partition, belief_weights,
                                  estimate_batch, merge_stats, pair_diffs,
                                  relief_reference, relieff_reference)
from beliefsel.neighbors import NeighborTable, instance_distance
from beliefsel.redundancy import CollisionTables


def tiny_bits():
    """Two nominal bits, class = first bit.  All by-hand quantities below."""
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return Dataset(X, [0, 0, 1, 1], [FeatureKind.NOMINAL] * 2)


def belief_oracle(ds, sample_ids, k):
    """Scalar-loop reimplementation of the accumulate-then-weight rule."""
    space = ds.feature_space()
    C, n = ds.n_classes, ds.n_features
    miss = np.zeros((C, n))
    hit = np.zeros((C, n))
    mc = np.zeros(C)
    hc = np.zeros(C)
    for i in sample_ids:
        y = int(ds.labels[i])
        d = np.array([instance_distance(ds.row(i), ds.row(j), space)
                      for j in range(ds.n_instances)])
        d[i] = np.inf
        for c in range(C):
            members = np.flatnonzero(ds.labels == c)
            members = members[np.isfinite(d[members])]
            chosen = members[np.lexsort((members, d[members]))[:k]]
            if chosen.size == 0:
                continue
            total = np.zeros(n)
            for j in chosen:
                total += pair_diffs(ds.row(i), ds.row(j), space)
            if c == y:
                hit[y] += total
                hc[y] += chosen.size
            else:
                miss[y] += total
                mc[y] += chosen.size
    priors = ds.class_priors()
    mavg = np.divide(miss, mc[:, None], out=np.zeros_like(miss),
                     where=mc[:, None] > 0)
    havg = np.divide(hit, hc[:, None], out=np.zeros_like(hit),
                     where=hc[:, None] > 0)
    return priors @ mavg - priors @ havg


def accumulation_input(kind, seed):
    """Continuous z-scored mixed-kind, all-nominal, z-scored sparse or
    z-scored one-feature data over three classes, so slot order can move
    the bits of a sum."""
    rng = np.random.default_rng(seed)
    m, n = 40, 6
    y = rng.integers(0, 3, m)
    y[:3] = [0, 1, 2]
    if kind == "single":
        X = rng.standard_normal((m, 1))
        return zscore_normalize(Dataset(X, y, [FeatureKind.NUMERIC]))
    if kind == "sparse":
        rows = [(np.sort(rng.choice(n, size, replace=False)), rng.standard_normal(size))
                for size in rng.integers(0, 5, m)]
        return zscore_normalize(Dataset(rows, y, [FeatureKind.NUMERIC] * n))
    if kind == "nominal":
        return Dataset(rng.integers(0, 3, (m, n)).astype(float), y, [FeatureKind.NOMINAL] * n)
    X = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4, n)
    X[:, [1, 4]] = rng.integers(0, 3, (m, 2))
    kinds = [FeatureKind.NOMINAL if j in (1, 4) else FeatureKind.NUMERIC for j in range(n)]
    return zscore_normalize(Dataset(X, y, kinds))


def pipeline_weights(ds, k=1, p=1, rate=1.0, seed=0):
    from beliefsel.neighbors import neighborhood
    pdata = partition(ds, p)
    batch = draw_sample(pdata, rate, 1, seed=seed)[0]
    table = neighborhood(pdata, batch, k)
    stats = estimate_batch(pdata, batch, table)
    return batch, belief_weights(stats, ds.class_priors())


class TestBeliefWeights:
    def test_single_feature_worked_example(self):
        stats = ClassDistanceStats(
            miss_dist=np.array([[4.0], [2.0]]),
            hit_dist=np.array([[1.0], [1.0]]),
            miss_count=np.array([2.0, 2.0]),
            hit_count=np.array([2.0, 2.0]),
            collisions=CollisionTables.empty(1),
        )
        w = belief_weights(stats, np.array([0.5, 0.5]))
        assert w.values[0] == 1.0  # 0.5*2 + 0.5*1 - (0.5*0.5 + 0.5*0.5)

    def test_zero_count_class_contributes_nothing(self):
        stats = ClassDistanceStats(
            miss_dist=np.array([[2.0], [5.0]]),
            hit_dist=np.zeros((2, 1)),
            miss_count=np.array([1.0, 0.0]),  # class 1 saw no misses
            hit_count=np.zeros(2),
            collisions=CollisionTables.empty(1),
        )
        w = belief_weights(stats, np.array([0.5, 0.5]))
        assert w.values[0] == 1.0
        assert np.all(np.isfinite(w.values))

    def test_prior_shape_checked(self):
        stats = ClassDistanceStats.zeros(2, 3)
        with pytest.raises(IntegrityError):
            belief_weights(stats, np.array([1.0]))

    def test_tiny_dataset_by_hand(self):
        # Every instance has one hit at hamming distance 1 (second bit
        # flips) and one nearest miss with only the first bit flipped.
        ds = tiny_bits()
        _, w = pipeline_weights(ds, k=1)
        assert w.values.tolist() == [1.0, -1.0]


class TestAccumulation:
    def test_matches_scalar_oracle_dense(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((45, 5))
        X[:, 3] = rng.integers(0, 3, 45)
        kinds = [FeatureKind.NUMERIC] * 3 + [FeatureKind.NOMINAL, FeatureKind.NUMERIC]
        y = rng.integers(0, 3, 45)
        y[:3] = [0, 1, 2]
        ds = zscore_normalize(Dataset(X, y, kinds))
        for p in (1, 3):
            batch, w = pipeline_weights(ds, k=2, p=p, rate=0.4, seed=9)
            want = belief_oracle(ds, batch.indices.tolist(), k=2)
            np.testing.assert_allclose(w.values, want, atol=1e-12, rtol=0)

    def test_matches_scalar_oracle_exactly_on_nominal(self):
        rng = np.random.default_rng(18)
        X = rng.integers(0, 2, (40, 6)).astype(float)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        ds = Dataset(X, y, [FeatureKind.NOMINAL] * 6)
        batch, w = pipeline_weights(ds, k=3, p=4, rate=0.5, seed=4)
        want = belief_oracle(ds, batch.indices.tolist(), k=3)
        assert np.array_equal(w.values, want)  # integer sums, no rounding

    def test_deterministic_merge_matches_default(self):
        rng = np.random.default_rng(19)
        X = rng.integers(0, 3, (60, 5)).astype(float)
        y = rng.integers(0, 2, 60)
        y[:2] = [0, 1]
        ds = Dataset(X, y, [FeatureKind.NOMINAL] * 5)
        _, w1 = pipeline_weights(ds, k=2, p=6, rate=0.5)
        _, w2 = pipeline_weights(ds, k=2, p=6, rate=0.5)
        assert np.array_equal(w1.values, w2.values)

    @pytest.mark.parametrize("kind", ["mixed", "nominal", "sparse", "single"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_sums_add_pair_by_pair_in_slot_order(self, kind, p, k, monkeypatch):
        # The accumulated sums are the same float additions, in the same
        # order, as this loop: each (sample, class) group adds its slot
        # diffs in slot order, then folds into its class row in (sample,
        # class) order.  A budget of three samples per gather chunk makes
        # the fold cross chunks.  One feature with k = 9 gives groups of
        # eight and more slots, where a pairwise sum would differ.
        from beliefsel.neighbors import neighborhood
        ds = accumulation_input(kind, 10 * k + p)
        space = ds.feature_space()
        X = space.scaled(ds.rows)
        X = X.to_dense(ds.n_features) if ds.is_sparse else X
        C, n = ds.n_classes, ds.n_features
        monkeypatch.setattr(estimation, "_GATHER_BYTES", 3 * C * k * n * 8)
        pdata = partition(ds, p)
        batch = draw_sample(pdata, 0.6, 1, seed=p)[0]
        table = neighborhood(pdata, batch, k)
        valid = table.rows >= 0
        nbrs = table.rows[valid]
        own = np.broadcast_to(batch.indices[:, None, None], table.rows.shape)[valid]
        block = pair_diffs(X[nbrs], X[own], space)
        assert np.array_equal(block, [pair_diffs(X[a], X[b], space)
                                      for a, b in zip(nbrs, own)])
        for g in range(p):
            start, end = pdata.starts[g], pdata.starts[g + 1]
            hit, miss = np.zeros((C, n)), np.zeros((C, n))
            hc, mc = np.zeros(C), np.zeros(C)
            for pos, i in enumerate(batch.indices):
                y = batch.labels[pos]
                for c in range(C):
                    group = np.zeros(n)
                    mine = [r for r in table.rows[pos, c] if start <= r < end]
                    for r in mine:
                        group += pair_diffs(X[r], X[i], space)
                    (hit if c == y else miss)[y] += group
                    (hc if c == y else mc)[y] += len(mine)
            stats = accumulate_partition(pdata, g, batch, table)
            assert np.array_equal(stats.hit_dist, hit)
            assert np.array_equal(stats.miss_dist, miss)
            assert np.array_equal(stats.hit_count, hc)
            assert np.array_equal(stats.miss_count, mc)

    def test_missing_bucket_is_integrity_error(self):
        ds = tiny_bits()
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        # nothing for any sample
        table = NeighborTable(k=1, rows=np.empty((0, 2, 1), dtype=np.int64),
                              dist=np.empty((0, 2, 1)))
        with pytest.raises(IntegrityError):
            accumulate_partition(pdata, 0, batch, table)

    def test_corrupt_locator_is_integrity_error(self):
        ds = tiny_bits()
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        shape = (len(batch), ds.n_classes, 1)
        table = NeighborTable(k=1, rows=np.full(shape, 99), dist=np.full(shape, 0.5))
        with pytest.raises(IntegrityError):
            accumulate_partition(pdata, 0, batch, table)

    def test_merge_adds_entrywise(self):
        a = ClassDistanceStats.zeros(2, 3)
        b = ClassDistanceStats.zeros(2, 3)
        a.miss_dist[0, 1] = 2.0
        b.miss_dist[0, 1] = 3.0
        a.hit_count[1] = 4.0
        out = merge_stats(a, b)
        assert out.miss_dist[0, 1] == 5.0
        assert out.hit_count[1] == 4.0
        with pytest.raises(IntegrityError):
            merge_stats(a, ClassDistanceStats.zeros(3, 3))

    def test_collisions_off_by_default(self):
        ds = tiny_bits()
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        from beliefsel.neighbors import neighborhood
        table = neighborhood(pdata, batch, 1)
        stats = estimate_batch(pdata, batch, table)
        assert stats.collisions.pair_count == 0

    def test_collision_tracking_adds_no_diff_work(self, monkeypatch):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        ds = zscore_normalize(Dataset(X, y, [FeatureKind.NUMERIC] * 4))
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 0.5, 1, seed=0)[0]
        from beliefsel.neighbors import neighborhood
        table = neighborhood(pdata, batch, 2)
        calls = {"n": 0}
        real_abs = np.abs

        def counting_abs(*args, **kwargs):
            calls["n"] += 1
            return real_abs(*args, **kwargs)

        monkeypatch.setattr(np, "abs", counting_abs)
        accumulate_partition(pdata, 0, batch, table)
        without = calls["n"]
        calls["n"] = 0
        accumulate_partition(pdata, 0, batch, table,
                             tracked=np.arange(4), collect_collisions=True)
        assert calls["n"] == without  # rates reuse the diffs already taken


class TestReferenceRules:
    def test_binary_single_neighbor_by_hand(self):
        w = relief_reference(tiny_bits())
        assert w.values.tolist() == [1.0, -1.0]

    def test_multiclass_rule_by_hand(self):
        # Same data: miss terms pick up the opposite-class prior of 1/2.
        w = relieff_reference(tiny_bits(), k=1)
        assert w.values.tolist() == [0.5, -1.0]

    def test_accumulated_weights_equal_binary_rule_at_k1(self):
        # With one neighbor per class and a full sample, grouping the pairs
        # by sample class and prior-averaging is algebraically the plain
        # per-instance average, so the two implementations must agree.
        rng = np.random.default_rng(31)
        for trial in range(4):
            X = rng.standard_normal((24, 4))
            y = rng.integers(0, 2, 24)
            y[:4] = [0, 0, 1, 1]  # both classes need hits
            ds = zscore_normalize(Dataset(X, y, [FeatureKind.NUMERIC] * 4))
            _, w = pipeline_weights(ds, k=1)
            ref = relief_reference(ds)
            np.testing.assert_allclose(w.values, ref.values, atol=1e-12, rtol=0)

    def test_reference_rules_rank_a_planted_feature_first(self):
        rng = np.random.default_rng(32)
        y = rng.integers(0, 2, 80)
        y[:2] = [0, 1]
        X = rng.standard_normal((80, 5))
        X[:, 2] += 2.5 * y  # strong class signal on one feature
        ds = zscore_normalize(Dataset(X, y, [FeatureKind.NUMERIC] * 5))
        assert relieff_reference(ds, k=3).ranking()[0] == 2
        assert relief_reference(ds).ranking()[0] == 2


class TestWeightVector:
    def test_ranking_breaks_ties_toward_lower_index(self):
        w = WeightVector(values=np.array([0.5, 0.9, 0.5, 0.9]), method="x")
        assert w.ranking().tolist() == [1, 3, 0, 2]

    def test_json_rows_follow_ranking(self):
        w = WeightVector(values=np.array([0.1, 0.7]), method="x")
        rows = w.to_json_obj()
        assert rows[0] == {"feature": 1, "weight": 0.7}
        assert rows[1]["feature"] == 0
