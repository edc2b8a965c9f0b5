"""Distance accumulation and weighting against hand-worked values."""

import numpy as np
import pytest

from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, partition,
                               zscore_normalize)
from beliefsel.errors import IntegrityError
from beliefsel.estimation import (ClassDistanceStats, WeightVector,
                                  accumulate_partition, belief_weights,
                                  estimate_batch, merge_stats, pair_diffs,
                                  relief_reference, relieff_reference)
from beliefsel.neighbors import NeighborLocator, NeighborTable, instance_distance
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

    def test_missing_bucket_is_integrity_error(self):
        ds = tiny_bits()
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        table = NeighborTable(k=1, buckets={})  # nothing for any sample
        with pytest.raises(IntegrityError):
            accumulate_partition(pdata, 0, batch, table)

    def test_corrupt_locator_is_integrity_error(self):
        ds = tiny_bits()
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        buckets = {int(g): {0: [NeighborLocator(0, 99, 0.5)]}
                   for g in batch.indices}
        with pytest.raises(IntegrityError):
            accumulate_partition(pdata, 0, batch, NeighborTable(k=1, buckets=buckets))

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
