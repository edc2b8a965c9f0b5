"""Collision accounting and the pairwise redundancy measure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsel import estimation, redundancy, selection
from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, partition,
                               zscore_normalize)
from beliefsel.errors import DataError, IntegrityError
from beliefsel.estimation import accumulate_partition
from beliefsel.neighbors import NeighborTable, neighborhood, pair_diffs
from beliefsel.redundancy import (COLLISION_SPAN, CollisionTables, collision_rates,
                                  compute_mcr)
from oracles import (add_pair_rates, add_rate_rows, collision_rate, normalized,
                     pair_mass, raw)

NUM = FeatureKind.NUMERIC
NOM = FeatureKind.NOMINAL


def tables_from_rates(rate_rows, tracked=None, n=None):
    n = n if n is not None else len(rate_rows[0])
    tracked = range(n) if tracked is None else tracked
    t = CollisionTables.empty(n, tracked)
    for row in rate_rows:
        add_pair_rates(t, np.asarray(row, dtype=float))
    return t


class TestCollisionRate:
    def test_linear_decay_values(self):
        assert collision_rate(0.0, 0.0, NUM) == 1.0
        assert collision_rate(0.0, 1.2, NUM) == pytest.approx(0.8)
        assert collision_rate(0.0, COLLISION_SPAN, NUM) == 0.0
        assert collision_rate(0.0, 50.0, NUM) == 0.0  # clamped, never negative

    def test_window_discards_weak_rates(self):
        # gap 1.8 gives raw rate 0.7, inside the open (0, 0.8) window
        assert collision_rate(0.0, 1.8, NUM, kappa=0.8) == 0.0
        assert collision_rate(0.0, 1.8, NUM, kappa=0.7) == pytest.approx(0.7)
        assert collision_rate(0.0, 1.2, NUM, kappa=0.8) == pytest.approx(0.8)

    def test_nominal_ignores_window(self):
        assert collision_rate(2.0, 2.0, NOM, kappa=0.99) == 1.0
        assert collision_rate(0.0, 1.0, NOM) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 0.99))
    def test_rate_lands_in_zero_or_window(self, a, b, kappa):
        r = collision_rate(a, b, NUM, kappa=kappa)
        assert r == 0.0 or kappa <= r <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.standard_normal(2) * 3
            assert collision_rate(a, b, NUM) == collision_rate(b, a, NUM)


class TestCollisionTables:
    def test_identical_pair_adds_one_everywhere(self):
        ds = Dataset(np.zeros((2, 3)), [0, 1], [NUM, NUM, NOM])
        space = ds.feature_space()
        t = CollisionTables.empty(3, range(3))
        add_pair_rates(t, collision_rates(np.zeros(3), space))
        assert t.marginal.tolist() == [1.0, 1.0, 1.0]
        assert t.pair_count == 1

    def test_joint_takes_minimum_and_upper_triangle(self):
        t = tables_from_rates([[1.0, 0.8, 0.0]])
        assert t.joint[0, 1] == pytest.approx(0.8)   # min(1.0, 0.8)
        assert t.joint[1, 0] == 0.0                  # canonical orientation
        assert t.joint[0, 2] == 0.0                  # zero rate kills the pair
        assert np.all(np.diag(t.joint) == 0.0)
        assert t.pair_count == 1                     # counted regardless

    def test_mass_matches_brute_force_pair_loop(self):
        # Same check for a contiguous tracked run and a scattered one; the
        # two internal masking paths must agree with the plain pair loop.
        rng = np.random.default_rng(9)
        for tracked in (range(2, 7), (0, 2, 5, 6)):
            rows = [np.where(rng.random(8) < 0.4, 0.0,
                             rng.uniform(0.8, 1.0, 8)) for _ in range(12)]
            t = tables_from_rates(rows, tracked=tracked, n=8)
            ts = set(tracked)
            for i in range(8):
                for j in range(i + 1, 8):
                    if i not in ts and j not in ts:
                        continue
                    want = sum(min(r[i], r[j]) for r in rows)
                    assert pair_mass(t, i, j) == pytest.approx(want, abs=1e-12)

    def test_partial_tracking_keeps_all_marginals(self):
        t = tables_from_rates([[0.9, 1.0, 0.8]], tracked=(0,))
        assert t.marginal.tolist() == [0.9, 1.0, 0.8]
        assert t.joint.shape == (1, 3)
        assert t.joint[0].tolist() == [0.0, pytest.approx(0.9), pytest.approx(0.8)]
        assert pair_mass(t, 1, 2) == 0.0  # untracked pair never accumulates

    def test_merge_unions_tracked_and_sums_mass(self):
        a = tables_from_rates([[1.0, 0.0, 1.0, 0.0]], tracked=(0,))
        b = tables_from_rates([[1.0, 1.0, 1.0, 1.0]], tracked=(2,))
        merged = a.merge(b)
        assert merged.tracked.tolist() == [0, 2]
        assert merged.pair_count == 2
        assert pair_mass(merged, 0, 2) == 2.0  # one unit from each orientation
        assert merged.marginal.tolist() == [2.0, 1.0, 2.0, 1.0]

    def test_merge_order_does_not_matter(self):
        rng = np.random.default_rng(5)
        rows = [rng.random(4).round(1) for _ in range(6)]
        a = tables_from_rates(rows[:2], tracked=(0, 1))
        b = tables_from_rates(rows[2:4], tracked=(1, 3))
        c = tables_from_rates(rows[4:], tracked=(2,))
        left = a.merge(b).merge(c)
        right = c.merge(b).merge(a)
        assert left.pair_count == right.pair_count
        np.testing.assert_allclose(left.marginal, right.marginal, atol=1e-12)
        for i in range(4):
            for j in range(i + 1, 4):
                assert pair_mass(left, i, j) == pytest.approx(
                    pair_mass(right, i, j), abs=1e-12)

    def test_feature_count_mismatch_rejected(self):
        a = CollisionTables.empty(3)
        with pytest.raises(IntegrityError):
            a.merge(CollisionTables.empty(4))
        with pytest.raises(IntegrityError):
            add_pair_rates(a, np.ones(5))
        with pytest.raises(DataError):
            CollisionTables.empty(3, (5,))


def random_rates(rng, pairs, n):
    """Rate rows shaped like real ones: 0 or in the [0.8, 1] window."""
    return np.where(rng.random((pairs, n)) < 0.4, 0.0,
                    rng.uniform(0.8, 1.0, (pairs, n)))


def joint_oracle(rows, tracked, n):
    """Plain loop over pairs and cells: the joint table one update writes.

    Row r (feature f) holds sum(min(r[f], r[j])) for j > f and for the
    untracked j < f; every other cell stays 0.
    """
    ts = set(tracked)
    want = np.zeros((len(tracked), n))
    for r, f in enumerate(sorted(ts)):
        for j in range(n):
            if j != f and (j > f or j not in ts):
                want[r, j] = sum(min(row[f], row[j]) for row in rows)
    return want


def exact_joint(blocks, tracked, n):
    """The fold's own additions: each owned cell adds each block's sum of
    per-pair mins, block by block.  A block of at least
    ``_TRANSPOSE_MIN_PAIRS`` pairs sums with ``np.add.reduce`` over the
    contiguous 1-D array of its mins; a smaller one adds them one pair at a
    time, in pair order."""
    ts = sorted(set(tracked))
    want = np.zeros((len(ts), n))
    for rates in blocks:
        transposed = rates.shape[0] >= redundancy._TRANSPOSE_MIN_PAIRS
        for r, f in enumerate(ts):
            for j in range(n):
                if j == f or (j < f and j in ts):
                    continue
                mins = np.ascontiguousarray(np.minimum(rates[:, f], rates[:, j]))
                if transposed:
                    total = np.add.reduce(mins)
                else:
                    total = mins[0]
                    for x in mins[1:]:
                        total += x
                want[r, j] += total
    return want


def chunk_edges(pairs, cap):
    """The fewest chunks of at most ``cap`` pairs, sizes differing by at
    most one."""
    chunks = -(-pairs // cap)
    return [pairs * q // chunks for q in range(chunks + 1)]


TRACKED_SETS = [range(9), range(3, 8), (0, 2, 5, 6, 8), (4,), ()]


class TestBatchedFold:
    @pytest.mark.parametrize("tracked", TRACKED_SETS)
    def test_rate_rows_match_pair_loop(self, tracked):
        rng = np.random.default_rng(11)
        rows = random_rates(rng, 17, 9)
        t = CollisionTables.empty(9, tracked)
        add_rate_rows(t, rows[:5])
        add_rate_rows(t, rows[5:])
        np.testing.assert_allclose(t.joint, joint_oracle(rows, tracked, 9),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(t.marginal, rows.sum(axis=0), rtol=0, atol=1e-12)
        assert t.pair_count == 17

    @pytest.mark.parametrize("cut", [None, 1, 10])
    @pytest.mark.parametrize("tracked", TRACKED_SETS)
    def test_rate_blocks_follow_the_exact_rule(self, tracked, cut, monkeypatch):
        # Blocks of 40, 3, 17 and 70 pairs: the real cut folds them all
        # pairs x features, a cut of 10 folds the 40 and 70 features x
        # pairs, a cut of 1 every one.  Sums of 17 and more values tell
        # numpy's pairwise sum from a sequential one.
        if cut is not None:
            monkeypatch.setattr(redundancy, "_TRANSPOSE_MIN_PAIRS", cut)
        rng = np.random.default_rng(14)
        rows = random_rates(rng, 130, 9)
        blocks = np.split(rows, [40, 43, 60])
        t = CollisionTables.empty(9, tracked)
        with t.window_fold() as fold:
            for block in blocks:
                fold(block)
        want = exact_joint(blocks, tracked, 9)
        assert np.array_equal(t.joint, want)
        assert np.array_equal(t.marginal, sum(b.sum(axis=0) for b in blocks))
        np.testing.assert_allclose(t.joint, joint_oracle(rows, tracked, 9),
                                   rtol=1.5e-15, atol=0)
        if cut is not None and len(tracked) > 1:
            monkeypatch.setattr(redundancy, "_TRANSPOSE_MIN_PAIRS", 10**9)
            assert not np.array_equal(want, exact_joint(blocks, tracked, 9))

    def test_window_fold_restores_feature_order(self):
        # A window that interleaves tracked and untracked features: inside
        # the fold the columns are [tracked, untracked]; on exit (also after
        # an error) they are back in feature order, with the mass folded.
        rng = np.random.default_rng(15)
        rows = random_rates(rng, 6, 9)
        tracked = (0, 2, 5, 6, 8)
        t = CollisionTables.empty(9, tracked)
        add_rate_rows(t, rows[:2])
        before = t.joint.copy()
        with pytest.raises(IntegrityError):
            with t.window_fold() as fold:
                fold(rows[2:])
                order = [0, 2, 5, 6, 8, 1, 3, 4, 7]
                assert np.array_equal(
                    t.joint, exact_joint([rows[:2], rows[2:]], tracked, 9)[:, order])
                fold(np.ones((2, 8)))
        assert np.array_equal(t.joint, exact_joint([rows[:2], rows[2:]], tracked, 9))
        assert not np.array_equal(before, t.joint)

    @pytest.mark.parametrize("tracked, cut", [
        pytest.param(t, cut, id=f"tracked{i}{suffix}")
        for cut, suffix in ((None, ""), (1, "-transposed"))
        for i, t in enumerate(TRACKED_SETS)])
    def test_partition_folds_rate_rows_in_budget_blocks(self, tracked, cut,
                                                        monkeypatch):
        # A budget of three rows cuts each partition's pairs into the
        # fewest chunks of at most 3 pairs, spread evenly; each chunk's
        # rate rows must fold as one add_rate_rows block, in (sample,
        # class, slot) order, so the tables have the bits of that fold and
        # match the pair-by-pair oracle.  A cut of 1 folds the chunks
        # features x pairs, the real one pairs x features.
        monkeypatch.setattr(estimation, "_CHUNK_BYTES", 3 * 8 * 9)
        if cut is not None:
            monkeypatch.setattr(redundancy, "_TRANSPOSE_MIN_PAIRS", cut)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((40, 9))
        X[:, [2, 7]] = rng.integers(0, 2, (40, 2))
        y = rng.integers(0, 3, 40)
        y[:3] = [0, 1, 2]
        kinds = [NOM if j in (2, 7) else NUM for j in range(9)]
        ds = zscore_normalize(Dataset(X, y, kinds))
        space = ds.feature_space()
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 0.6, 1, seed=1)[0]
        table = neighborhood(pdata, batch, 3)
        for g in range(2):
            mine = (table.rows >= pdata.starts[g]) & (table.rows < pdata.starts[g + 1])
            i, c, j = np.nonzero(mine)
            diffs = pair_diffs(space.scaled(ds.rows[table.rows[i, c, j]]),
                               batch.rows[i], space)
            rates = collision_rates(diffs, space, kappa=0.8)
            assert rates.shape[0] > 6 and rates.any()
            want = CollisionTables.empty(9, tracked)
            edges = chunk_edges(rates.shape[0], 3)
            assert len(edges) > 3 and len(edges) - 1 == -(-rates.shape[0] // 3)
            blocks = [rates[a:b] for a, b in zip(edges[:-1], edges[1:])]
            for block in blocks:
                add_rate_rows(want, block)
            got = accumulate_partition(pdata, g, batch, table, tracked=tracked,
                                       kappa=0.8).collisions
            assert np.array_equal(got.joint, want.joint)
            assert np.array_equal(got.marginal, want.marginal)
            np.testing.assert_allclose(got.marginal, rates.sum(axis=0),
                                       rtol=0, atol=1e-12)
            assert got.pair_count == want.pair_count == rates.shape[0]
            np.testing.assert_allclose(got.joint, joint_oracle(rates, tracked, 9),
                                       rtol=0, atol=1e-12)
            assert np.array_equal(got.joint, exact_joint(blocks, tracked, 9))

    def test_partition_without_pairs_changes_nothing(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), [0, 0, 1, 1], [NUM] * 2)
        pdata = partition(ds, 1)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        shape = (len(batch), 2, 1)
        table = NeighborTable(k=1, rows=np.full(shape, -1),
                              dist=np.full(shape, np.inf))
        stats = accumulate_partition(pdata, 0, batch, table, tracked=range(2))
        assert stats.collisions.pair_count == 0
        assert stats.collisions.joint.shape == (2, 2)
        assert not stats.collisions.joint.any()
        assert not stats.collisions.marginal.any()

    def test_block_of_diffs_with_nominal_columns(self):
        rng = np.random.default_rng(13)
        kinds = [NUM, NOM, NUM, NOM, NUM]
        ds = Dataset(np.zeros((2, 5)), [0, 1], kinds)
        space = ds.feature_space()
        diffs = np.abs(rng.standard_normal((8, 5))) * 2.0
        diffs[:, [1, 3]] = rng.integers(0, 2, (8, 2))
        rates = collision_rates(diffs, space, kappa=0.8)
        assert rates.shape == (8, 5)
        for p in range(8):
            for j, kind in enumerate(kinds):
                want = collision_rate(0.0, diffs[p, j], kind, kappa=0.8)
                assert rates[p, j] == pytest.approx(want, abs=1e-15)
            np.testing.assert_array_equal(
                collision_rates(diffs[p], space, kappa=0.8), rates[p])
        t = CollisionTables.empty(5, (1, 2))
        add_rate_rows(t, rates)
        np.testing.assert_allclose(t.joint, joint_oracle(rates, (1, 2), 5),
                                   rtol=0, atol=1e-12)

    def test_sparse_diffs_collide_fully_outside_the_union(self):
        # Diffs of two sparse rows whose union is features 1 and 3: the
        # features outside it differ by exactly 0.
        ds = Dataset([(np.array([0]), np.array([1.0]))], [0], [NUM] * 4)
        rates = collision_rates(np.array([0.0, 1.2, 0.0, 1.8]),
                                ds.feature_space(), kappa=0.8)
        assert rates.tolist() == [1.0, pytest.approx(0.8), 1.0, 0.0]

    def test_rate_rows_shape_checked(self):
        t = CollisionTables.empty(3, range(3))
        with pytest.raises(IntegrityError):
            add_rate_rows(t, np.ones((2, 4)))
        with pytest.raises(IntegrityError):
            add_rate_rows(t, np.ones(3))

    @pytest.mark.parametrize("tracked", TRACKED_SETS)
    def test_same_tracked_merge_matches_realigned_sum(self, tracked):
        # Partition partials of one batch share a tracked set and take the
        # direct sum; it must give the bits of the realigning path, which
        # adds each table into zeros.
        rng = np.random.default_rng(12)
        a = tables_from_rates(random_rates(rng, 7, 9), tracked=tracked, n=9)
        b = tables_from_rates(random_rates(rng, 5, 9), tracked=tracked, n=9)
        merged = a.merge(b)
        realigned = np.zeros_like(a.joint)
        realigned += a.joint
        realigned += b.joint
        assert np.array_equal(merged.tracked, a.tracked)
        assert merged.tracked is not a.tracked
        assert np.array_equal(merged.joint, realigned)
        assert np.array_equal(merged.marginal, a.marginal + b.marginal)
        assert merged.pair_count == 12


class TestRedundancyMeasure:
    def test_dense_table_matches_pair_mass_on_merged_tables(self):
        # Overlapping tracked sets, so merged pairs hold mass in both
        # orientations; every value must follow the formula on pair_mass.
        rng = np.random.default_rng(21)
        n = 8
        rows = random_rates(rng, 40, n)
        parts = [((0, 1, 2, 5), rows[:15]), ((2, 3, 5, 7), rows[15:30]),
                 ((1, 5), rows[30:])]
        merged = None
        for tracked, chunk in parts:
            t = CollisionTables.empty(n, tracked)
            add_rate_rows(t, chunk)
            merged = t if merged is None else merged.merge(t)
        red = compute_mcr(merged)
        pc = merged.marginal / merged.pair_count
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                pij = pair_mass(merged, i, j) / merged.pair_count
                if pij > 0.0 and pc[i] > 0.0 and pc[j] > 0.0:
                    expected[i, j] = min(pc[i], pc[j]) * math.log2(
                        pij / (pc[i] * pc[j]))
        assert np.count_nonzero(expected) > 20
        assert raw(red, 4, 6) == 0.0  # never tracked on either side
        for i in range(n):
            row = red.raw_row(i)
            norm = red.normalized_row(i)
            for j in range(n):
                assert raw(red, i, j) == pytest.approx(expected[i, j], abs=1e-12)
                assert row[j] == raw(red, i, j)
                assert norm[j] == normalized(red, i, j)
        assert red.lo == pytest.approx(min(0.0, expected.min()), abs=1e-12)
        assert red.hi == pytest.approx(max(0.0, expected.max()), abs=1e-12)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_row_blocks_match_pair_mass_on_merged_tables(self, block_rows,
                                                         monkeypatch):
        # The merged table has 6 tracked rows of 8 features; blocks of 1 and
        # 3 rows split it, and the whole oracle check must still hold.
        monkeypatch.setattr(redundancy, "_MCR_BLOCK_BYTES", block_rows * 8 * 8)
        self.test_dense_table_matches_pair_mass_on_merged_tables()

    def test_table_allocates_output_plus_row_blocks(self, monkeypatch):
        # numpy reports its buffers to tracemalloc.  With 8-row blocks of a
        # 300 x 400 table, each block temporary is 25.6 kB next to a 960 kB
        # output; eight of them bound what one block holds at once.
        monkeypatch.setattr(redundancy, "_MCR_BLOCK_BYTES", 8 * 8 * 400)
        rng = np.random.default_rng(5)
        t = CollisionTables.empty(400, rng.choice(400, 300, replace=False))
        t.joint[:] = rng.random(t.joint.shape)
        t.marginal[:] = rng.random(400) * 40
        t.pair_count = 40
        tracemalloc.start()
        try:
            red = compute_mcr(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= red.values.nbytes + 8 * redundancy._MCR_BLOCK_BYTES

    def test_perfect_co_collision_is_exactly_half(self):
        # Both features collide on the same half of the pairs:
        # PC_i = PC_j = PC_ij = 1/2, so the value is 0.5 * log2(2) = 0.5.
        t = tables_from_rates([[1, 1], [1, 1], [0, 0], [0, 0]])
        red = compute_mcr(t)
        assert raw(red, 0, 1) == 0.5

    def test_independent_features_score_exactly_zero(self):
        # PC_ij factorizes: 0.5 * 0.5 = 0.25 on four pairs.
        t = tables_from_rates([[1, 1], [1, 0], [0, 1], [0, 0]])
        red = compute_mcr(t)
        assert raw(red, 0, 1) == 0.0

    def test_duplicate_feature_follows_closed_form(self):
        # A feature paired with its copy: PC_i = PC_j = PC_ij = q gives
        # q * log2(1/q); with q = 1/4 that is exactly 0.5.
        t = tables_from_rates([[1, 1], [0, 0], [0, 0], [0, 0]])
        red = compute_mcr(t)
        assert raw(red, 0, 1) == 0.5
        q = 0.25
        assert raw(red, 0, 1) == pytest.approx(q * math.log2(1.0 / q))

    def test_anti_collision_goes_negative_and_sets_lower_bound(self):
        rows = [[1, 1], [1, 0], [0, 1], [1, 0], [0, 1]]
        red = compute_mcr(tables_from_rates(rows))
        v = raw(red, 0, 1)
        assert v == pytest.approx(0.6 * math.log2(0.2 / 0.36))
        assert v < 0.0
        assert red.lo == v and red.hi == 0.0
        assert normalized(red, 0, 1) == 0.0

    def test_never_colliding_feature_scores_zero(self):
        t = tables_from_rates([[1, 0], [1, 0]])
        red = compute_mcr(t)
        assert raw(red, 0, 1) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(9)
        rows = (rng.random((30, 5)) > 0.4) * rng.uniform(0.8, 1.0, (30, 5))
        a = tables_from_rates(rows[:12].tolist(), tracked=(0, 1, 2))
        b = tables_from_rates(rows[12:].tolist(), tracked=(2, 3, 4))
        red = compute_mcr(a.merge(b))
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert raw(red, i, j) == raw(red, j, i)
                    assert normalized(red, i, j) == normalized(red, j, i)

    def test_empty_accumulation_rejected(self):
        with pytest.raises(DataError):
            compute_mcr(CollisionTables.empty(3))

    def test_normalization_spans_zero_anchor(self):
        rows = [[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 0]]
        red = compute_mcr(tables_from_rates(rows))
        top = raw(red, 0, 1)
        assert top > 0.0
        assert red.hi == top and red.lo == 0.0
        assert normalized(red, 0, 1) == 1.0
        assert normalized(red, 0, 2) == 0.0


class TestTrackingWindows:
    @staticmethod
    def window(scores, n_select, eta):
        """selection._window over one class whose weights are ``scores``."""
        stats = estimation.ClassDistanceStats.zeros(1, scores.size)
        stats.miss_dist[0] = scores
        stats.miss_count[0] = stats.hit_count[0] = 1
        return selection._window(stats, np.ones(1), n_select, eta)

    def test_window_size_is_ceiling(self):
        scores = np.arange(10.0)
        assert self.window(scores, 3, 2.0).size == 6
        assert self.window(scores, 2, 1.5).size == 3   # ceil(3.0)
        assert self.window(scores, 1, 0.5).size == 1   # ceil(0.5)

    def test_window_saturates_at_feature_count(self):
        scores = np.arange(4.0)
        assert self.window(scores, 3, 10.0).tolist() == [0, 1, 2, 3]

    def test_picks_top_scores_with_low_index_ties(self):
        scores = np.array([5.0, 1.0, 5.0, 0.0])
        assert self.window(scores, 1, 2.0).tolist() == [0, 2]
        assert self.window(np.zeros(5), 1, 2.0).tolist() == [0, 1]

    def test_result_is_sorted_ascending(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            scores = rng.standard_normal(20)
            out = self.window(scores, 4, 2.0)
            assert np.all(np.diff(out) > 0)
            assert set(out.tolist()) == set(np.argsort(-scores)[:8].tolist())

    @pytest.mark.parametrize("n_select,eta", [(1, 2.0), (2, 0.5), (20, 2.0)])
    def test_first_batch_window_size(self, monkeypatch, n_select, eta):
        # The first batch tracks min(n, ceil(n_select * FIRST_BATCH_ETA))
        # features; the second min(n, ceil(n_select * LATER_BATCH_ETA)),
        # here set to eta.  The first window is preceded by a weigh-only
        # call with no window, which is skipped here.
        rng = np.random.default_rng(5)
        n = 160
        X = rng.standard_normal((24, n))
        y = np.arange(24) % 2
        ds = Dataset(X, y, [NUM] * n)
        seen = []

        def spy(*args, **kwargs):
            stats = estimation.estimate_batch(*args, **kwargs)
            if kwargs.get("tracked") is not None:
                seen.append(stats)
            return stats

        monkeypatch.setattr(selection, "estimate_batch", spy)
        monkeypatch.setattr(selection, "LATER_BATCH_ETA", eta)
        selection.run_belief(ds, selection.SelectorConfig(
            n_select=n_select, batches=2, theta=0.5))
        first = min(n, math.ceil(n_select * selection.FIRST_BATCH_ETA))
        assert [s.collisions.tracked.size for s in seen] == [
            first, min(n, math.ceil(n_select * eta))]
