"""Distance accumulation and weighting against hand-worked values."""

import math
import tracemalloc

import numpy as np
import pytest

from beliefsel import estimation
from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, partition,
                               zscore_normalize)
from beliefsel.errors import IntegrityError
from beliefsel.estimation import (ClassDistanceStats, WeightVector,
                                  accumulate_partition, belief_weights,
                                  estimate_batch, merge_stats, pair_diffs)
from beliefsel.neighbors import NeighborTable
from beliefsel.redundancy import CollisionTables
from oracles import instance_distance, relief_reference, relieff_reference


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
                total += pair_diffs(space.scaled(ds.row(i)), space.scaled(ds.row(j)),
                                    space)
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
        # class) order.  A budget of four pairs per chunk makes groups of
        # three (k = 3) and nine (k = 9) straddle chunk boundaries, so
        # their sums carry from one chunk into the next.  One feature with
        # k = 9 gives groups of eight and more slots, where a pairwise sum
        # would differ.
        from beliefsel.neighbors import neighborhood
        ds = accumulation_input(kind, 10 * k + p)
        space = ds.feature_space()
        X = space.scaled(ds.rows)
        X = X.to_dense(ds.n_features) if ds.is_sparse else X
        C, n = ds.n_classes, ds.n_features
        monkeypatch.setattr(estimation, "_CHUNK_BYTES", 4 * n * 8)
        pdata = partition(ds, p)
        batch = draw_sample(pdata, 0.6, 1, seed=p)[0]
        table = neighborhood(pdata, batch, k)
        valid = table.rows >= 0
        nbrs = table.rows[valid]
        own = np.broadcast_to(batch.indices[:, None, None], table.rows.shape)[valid]
        block = pair_diffs(X[nbrs], X[own], space)
        assert np.array_equal(block, [pair_diffs(X[a], X[b], space)
                                      for a, b in zip(nbrs, own)])
        straddling = 0
        for g in range(p):
            start, end = pdata.starts[g], pdata.starts[g + 1]
            hit, miss = np.zeros((C, n)), np.zeros((C, n))
            hc, mc = np.zeros(C), np.zeros(C)
            walked = 0
            for pos, i in enumerate(batch.indices):
                y = batch.labels[pos]
                for c in range(C):
                    group = np.zeros(n)
                    mine = [r for r in table.rows[pos, c] if start <= r < end]
                    for r in mine:
                        group += pair_diffs(X[r], X[i], space)
                    (hit if c == y else miss)[y] += group
                    (hc if c == y else mc)[y] += len(mine)
                    if mine and walked // 4 != (walked + len(mine) - 1) // 4:
                        straddling += 1
                    walked += len(mine)
            stats = accumulate_partition(pdata, g, batch, table)
            assert np.array_equal(stats.hit_dist, hit)
            assert np.array_equal(stats.miss_dist, miss)
            assert np.array_equal(stats.hit_count, hc)
            assert np.array_equal(stats.miss_count, mc)
        assert straddling or k not in (3, 9)

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
                             tracked=np.arange(4))
        assert calls["n"] == without  # rates reuse the diffs already taken

    @pytest.mark.parametrize("n, budget", [(4, 5 * 4 * 8), (2000, None)])
    def test_pairs_go_through_in_budget_sized_chunks(self, n, budget, monkeypatch):
        # A partition's pairs go through in the fewest chunks of at most
        # cap = budget // (8 n) pairs, whatever the number of samples they
        # span: 5 pairs at n = 4 with a patched budget, 65 at n = 2000 with
        # the real one.  The pairs are spread evenly, so chunk sizes differ
        # by at most one and there is no short tail.  Chunks sized by
        # samples would make one pair_diffs call per sample here.
        if budget is not None:
            monkeypatch.setattr(estimation, "_CHUNK_BYTES", budget)
        rng = np.random.default_rng(29)
        X = rng.standard_normal((120, n))
        y = rng.integers(0, 2, 120)
        y[:2] = [0, 1]
        ds = zscore_normalize(Dataset(X, y, [FeatureKind.NUMERIC] * n))
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 0.8, 1, seed=3)[0]
        from beliefsel.neighbors import neighborhood
        table = neighborhood(pdata, batch, 3)
        sizes = []
        real = estimation.pair_diffs

        def spy(a, b, space, out=None):
            sizes.append(a.shape[0])
            return real(a, b, space, out=out)

        monkeypatch.setattr(estimation, "pair_diffs", spy)
        cap = max(1, estimation._CHUNK_BYTES // (8 * n))
        for g in range(2):
            sizes.clear()
            pairs = int(((table.rows >= pdata.starts[g])
                         & (table.rows < pdata.starts[g + 1])).sum())
            accumulate_partition(pdata, g, batch, table)
            assert len(sizes) == -(-pairs // cap) < len(batch)
            assert sum(sizes) == pairs and max(sizes) <= cap
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("collect, window", [
        pytest.param(False, 300, id="False"), pytest.param(True, 300, id="True"),
        pytest.param(True, 40, id="True-window")])
    def test_memory_is_tables_plus_a_few_chunks(self, collect, window):
        # numpy reports its buffers to tracemalloc.  3000 x 300 rows read
        # through the z-scale, half of them sampled: 9000 pairs, 21 chunks
        # of 428-429 pairs (about 1 MiB each).  The peak must stay within
        # the stats and collision tables plus the chunk-sized arrays (two
        # while weighing, three while folding) and the per-pair index
        # arrays, not grow with the pair count; also
        # with a window of 40 features spread over the 300, whose fold
        # moves the joint columns into window order and back.
        from beliefsel.neighbors import neighborhood
        rng = np.random.default_rng(37)
        X = rng.standard_normal((3000, 300))
        y = rng.integers(0, 2, 3000)
        ds = zscore_normalize(Dataset(X, y, [FeatureKind.NUMERIC] * 300))
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 0.5, 1, seed=0)[0]
        table = neighborhood(pdata, batch, 3)
        tracked = np.arange(300) if window == 300 else np.arange(3, 300, 7)[:40]
        assert tracked.size == window
        tracemalloc.start()
        try:
            stats = accumulate_partition(pdata, 0, batch, table,
                                         tracked=tracked if collect else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = sum(a.nbytes for a in (
            stats.miss_dist, stats.hit_dist, stats.miss_count, stats.hit_count,
            stats.collisions.joint, stats.collisions.marginal))
        assert stats.collisions.pair_count == (9000 if collect else 0)
        assert peak <= tables + 4 * estimation._CHUNK_BYTES

    @pytest.mark.parametrize("kappa", [0.8, 0.0])
    def test_in_place_diffs_and_rates_keep_their_bits(self, kappa):
        # Mixed numeric and nominal rows, with gaps on both sides of kappa
        # and past the collision span: diffs written over their first (or
        # second) operand, and rates over their diffs, equal the
        # allocating forms bit for bit.
        from beliefsel.redundancy import collision_rates
        ds = window_input("mixed")
        space = ds.feature_space()
        X = space.scaled(ds.rows)
        a, b = X[:20] * 3.0, X[20:40]
        want = pair_diffs(a, b, space)
        for operand in ("a", "b"):
            buf = (a if operand == "a" else b).copy()
            got = (pair_diffs(buf, b, space, out=buf) if operand == "a"
                   else pair_diffs(a, buf, space, out=buf))
            assert got is buf and np.array_equal(got, want), operand
        assert (want < 1.2).any() and ((want > 1.2) & (want < 6)).any()
        assert (want > 6).any()
        rates = collision_rates(want, space, kappa)
        buf = want.copy()
        got = collision_rates(buf, space, kappa, out=buf)
        assert got is buf and np.array_equal(got, rates)


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


def window_input(kind, seed=41, m=40, n=30):
    """Mixed numeric/nominal dense or sparse z-scored data over three
    classes, wide enough that the first batch's window (20 features a
    pick) leaves features out."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, m)
    y[:3] = [0, 1, 2]
    y[3:6] = [0, 1, 2]
    if kind == "sparse":
        rows = [(np.sort(rng.choice(n, size, replace=False)), rng.standard_normal(size))
                for size in rng.integers(2, 12, m)]
        return zscore_normalize(Dataset(rows, y, [FeatureKind.NUMERIC] * n))
    X = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-2, 3, n)
    X[:, :4] += y[:, None]
    nominal = np.arange(2, n, 5)
    X[:, nominal] = rng.integers(0, 3, (m, nominal.size))
    kinds = [FeatureKind.NOMINAL if j in nominal else FeatureKind.NUMERIC
             for j in range(n)]
    return zscore_normalize(Dataset(X, y, kinds))


def assert_stats_equal(a, b):
    for name in ("miss_dist", "hit_dist", "miss_count", "hit_count"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("tracked", "joint", "marginal"):
        assert np.array_equal(getattr(a.collisions, name),
                              getattr(b.collisions, name)), name
    assert a.collisions.pair_count == b.collisions.pair_count


class TestFirstBatchWindow:
    """run_belief weighs the first batch's pairs, takes its window from
    their weights, then folds collisions for that window in a second
    estimate_batch call; each batch's stats must be the bits of one pass
    with its window known up front."""

    @staticmethod
    def one_pass_reference(pdata, batches, k, n_select, kappa):
        """The batch loop with every tracked set known before its batch's
        single pass: the first from that batch's own weights at
        FIRST_BATCH_ETA, later ones from the weights so far at
        LATER_BATCH_ETA, each the top ceil(n_select * eta) by one stable
        sort, ascending."""
        from beliefsel.neighbors import neighborhood
        from beliefsel.selection import FIRST_BATCH_ETA, LATER_BATCH_ETA
        priors = pdata.dataset.class_priors()

        def top(stats, eta):
            values = belief_weights(stats, priors).values
            order = np.lexsort((np.arange(values.size), -values))
            return np.sort(order[:math.ceil(n_select * eta)])

        total, out = None, []
        for batch in batches:
            table = neighborhood(pdata, batch, k)
            if total is None:
                tracked = top(estimate_batch(pdata, batch, table), FIRST_BATCH_ETA)
            out.append(estimate_batch(pdata, batch, table, tracked=tracked,
                                      kappa=kappa))
            total = out[-1] if total is None else merge_stats(total, out[-1])
            tracked = top(total, LATER_BATCH_ETA)
        return out

    @pytest.mark.parametrize("batches, calls", [(1, 2), (2, 3)])
    def test_each_window_and_the_final_weights_are_computed_once(
            self, monkeypatch, batches, calls):
        # Batch 1's window, each later batch's window, and the final
        # weights: no window is computed after the last batch.
        from beliefsel import selection
        seen = []
        real = selection.belief_weights

        def counting(stats, priors):
            seen.append(stats)
            return real(stats, priors)

        monkeypatch.setattr(selection, "belief_weights", counting)
        ds = window_input("mixed", seed=43)
        cfg = selection.SelectorConfig(n_select=1, k=2, sample_rate=0.8,
                                       batches=batches, partitions=2, theta=0.5,
                                       seed=4)
        result = selection.run_belief(ds, cfg)
        assert len(seen) == calls
        final = real(seen[-1], ds.class_priors())
        assert np.array_equal(result.weights.values, final.values)

    # run_belief weighs batch 1 and folds its collisions in two calls,
    # whether the window leaves features out (n_select 1 tracks 20 of 30)
    # or saturates (n_select 2: 40 >= 30); the reference takes one call.
    @pytest.mark.parametrize("kind", ["mixed", "sparse"])
    @pytest.mark.parametrize("n_select, passes", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_run_belief_batches_equal_the_one_pass_reference(
            self, monkeypatch, p, n_select, passes, kind):
        from beliefsel import selection
        ds = window_input(kind, seed=43)
        cfg = selection.SelectorConfig(n_select=n_select, k=2, sample_rate=0.8,
                                       batches=2, partitions=p, theta=0.5,
                                       kappa=0.6, seed=4)
        merged, calls = [], []
        real_merge = selection.merge_stats
        real_acc = estimation.accumulate_partition

        def spy(a, b):
            merged.append((a, b))  # batch 1's stats, then batch 2's
            return real_merge(a, b)

        def counting(*args, **kwargs):
            calls.append(int(args[2].indices[0]))  # the batch it serves
            return real_acc(*args, **kwargs)

        monkeypatch.setattr(selection, "merge_stats", spy)
        monkeypatch.setattr(estimation, "accumulate_partition", counting)
        selection.run_belief(ds, cfg)
        pdata = partition(ds, p)
        batches = draw_sample(pdata, cfg.sample_rate, cfg.batches, cfg.seed)
        first, second = (int(b.indices[0]) for b in batches)
        assert calls == [first] * (passes * p) + [second] * p
        want = self.one_pass_reference(pdata, batches, cfg.k, n_select, cfg.kappa)
        assert len(merged) == 1 and len(want) == 2
        for a, b in zip(merged[0], want):
            assert_stats_equal(a, b)
