"""Forward selection scoring and the end-to-end pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsel import selection
from beliefsel.dataset import Dataset, FeatureKind, draw_sample, partition, zscore_normalize
from beliefsel.errors import DataError
from beliefsel.estimation import WeightVector, estimate_batch
from beliefsel.neighbors import neighborhood
from beliefsel.redundancy import RedundancyTable
from oracles import normalized, sfs_reference
from beliefsel.selection import (RankingResult, SelectorConfig, minmax_normalize,
                                 run_belief, sfs)


def wvec(*values):
    return WeightVector(values=np.array(values, dtype=float), method="test")


def red_table(n, pairs):
    values = np.zeros((n, n))
    for (i, j), v in pairs.items():
        values[i, j] = values[j, i] = v
    lo = min(0.0, values.min())
    hi = max(0.0, values.max())
    return RedundancyTable(n_features=n, tracked=np.arange(n), values=values,
                           lo=lo, hi=hi)


def picks(res):
    """Every field of every pick of a ``RankingResult``, as lists."""
    return [c.tolist() for c in (res.features, res.normalized, res.penalties, res.scores)]


def rescoring_oracle(weights, red, n_select, theta):
    """(feature, score) picks of a forward selection that re-scores every
    remaining candidate from scratch at each step; ties go to the lower
    index."""
    wn = minmax_normalize(weights.values)
    picks = []
    for _ in range(n_select):
        chosen = [f for f, _ in picks]
        best = None
        for i in range(wn.size):
            if i in chosen:
                continue
            pen = 0.0 if red is None else sum(normalized(red, j, i) for j in chosen)
            score = wn[i] - theta * pen
            if best is None or score > best[1]:
                best = (i, score)
        picks.append(best)
    return picks


@st.composite
def tied_selections(draw, max_n=10):
    """(weights, redundancy table or None) over 1-max_n features.  Weights and
    raw redundancy values come from a few levels, so scores tie often; the
    table tracks a random subset of the features, and both orientations of
    a both-tracked pair hold one value."""
    n = draw(st.integers(1, max_n))
    w = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    weights = WeightVector(np.array(w), "test")
    if draw(st.booleans()):
        return weights, None
    tracked = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cells = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 1.0]),
                          min_size=tracked.size * n, max_size=tracked.size * n))
    values = np.array(cells).reshape(tracked.size, n)
    both = values[:, tracked]
    values[:, tracked] = np.triu(both) + np.triu(both, 1).T
    return weights, RedundancyTable(n_features=n, tracked=tracked, values=values,
                                    lo=min(0.0, values.min(initial=0.0)),
                                    hi=max(0.0, values.max(initial=0.0)))


def gaussian_classes(seed, m=120, n=8, shifts=(2.0, 1.5, 1.2)):
    """Binary data with a few mean-shifted columns, the rest pure noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, m)
    y[:2] = [0, 1]
    X = rng.standard_normal((m, n))
    for j, delta in enumerate(shifts):
        X[:, j] += delta * y
    return Dataset(X, y, [FeatureKind.NUMERIC] * n)


class TestMinmax:
    def test_unit_interval_and_endpoints(self):
        out = minmax_normalize(np.array([2.0, 4.0, 8.0]))
        assert out.tolist() == [0.0, pytest.approx(1.0 / 3.0), 1.0]

    def test_constant_vector_maps_to_zero(self):
        assert minmax_normalize(np.full(4, 3.3)).tolist() == [0.0] * 4

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 50), st.floats(-20, 20))
    def test_affine_invariance(self, scale, shift):
        values = np.array([-1.0, 0.25, 2.0, 0.5])
        base = minmax_normalize(values)
        moved = minmax_normalize(values * scale + shift)
        np.testing.assert_allclose(moved, base, atol=1e-9)


class TestSfs:
    def test_zero_theta_is_weight_order(self):
        res = sfs(wvec(0.1, 0.9, 0.5, 0.7), None, 3, theta=0.0)
        assert res.selected_features() == [1, 3, 2]

    def test_ties_break_toward_lower_index(self):
        res = sfs(wvec(0.5, 0.5, 0.5), None, 3, theta=0.0)
        assert res.selected_features() == [0, 1, 2]

    def test_penalty_defers_a_duplicate(self):
        # Features 0 and 1 are interchangeable (max redundancy); a distinct
        # feature at 60% strength overtakes the twin at rank 2.
        weights = wvec(1.0, 1.0, 0.6, 0.0)
        red = red_table(4, {(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.1})
        res = sfs(weights, red, 3, theta=0.5)
        assert res.selected_features() == [0, 2, 1]

    def test_zero_theta_ignores_redundancy_table(self):
        weights = wvec(1.0, 1.0, 0.6)
        red = red_table(3, {(0, 1): 1.0})
        assert sfs(weights, red, 2, theta=0.0).selected_features() == [0, 1]

    def test_matches_full_rescoring_oracle(self):
        # The incremental penalty must equal recomputing the whole sum.
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = 9
            weights = WeightVector(rng.standard_normal(n), "test")
            pairs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        pairs[(i, j)] = float(rng.uniform(-0.2, 1.0))
            red = red_table(n, pairs)
            theta = float(rng.uniform(0.1, 1.0))
            got = sfs(weights, red, 6, theta=theta)
            chosen = [f for f, _ in rescoring_oracle(weights, red, 6, theta)]
            assert got.selected_features() == chosen

    @settings(max_examples=150, deadline=None)
    @given(case=tied_selections(), theta=st.sampled_from([0.0, 0.5, 3.0]), data=st.data())
    def test_matches_rescoring_oracle_on_tied_tables(self, case, theta, data):
        weights, red = case
        n_select = data.draw(st.integers(1, weights.values.size))
        got = sfs(weights, red, n_select, theta=theta)
        assert list(zip(got.features.tolist(), got.scores.tolist())) == \
            rescoring_oracle(weights, red, n_select, theta)

    @settings(max_examples=300, deadline=None)
    @given(case=tied_selections(max_n=40), theta=st.sampled_from([0.0, 0.5, 3.0]),
           data=st.data())
    def test_matches_the_per_pick_sort_reference(self, case, theta, data):
        # Every field of every pick, bit for bit: one sort at theta 0 or
        # without a table, one argmax per pick otherwise.
        weights, red = case
        n_select = data.draw(st.integers(1, weights.values.size))
        assert picks(sfs(weights, red, n_select, theta=theta)) == \
            picks(sfs_reference(weights, red, n_select, theta))

    def test_a_ranking_is_one_sort(self, monkeypatch):
        # The per-pick sort of every remaining candidate took about 20 s
        # on 20,000 features; a ranking sorts once, a penalized pick sorts
        # nothing.
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        values = np.random.default_rng(3).standard_normal(20_000)
        res = sfs(WeightVector(values, "test"), None, 20_000, theta=0.0)
        assert res.selected_features() == np.argsort(-values, kind="stable").tolist()
        weights = wvec(1.0, 1.0, 0.6, 0.0)
        red = red_table(4, {(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.1})
        assert sfs(weights, red, 4, theta=0.5).selected_features() == [0, 2, 1, 3]
        assert len(calls) == 1

    def test_reported_score_decomposition(self):
        weights = wvec(1.0, 0.8, 0.2)
        red = red_table(3, {(0, 1): 1.0})
        res = sfs(weights, red, 2, theta=0.5)
        assert res.features[1] == 1
        assert res.scores[1] == pytest.approx(res.normalized[1] - 0.5 * res.penalties[1])
        assert res.penalties[0] == 0.0

    def test_selection_size_bounds(self):
        with pytest.raises(DataError):
            sfs(wvec(1.0, 2.0), None, 0)
        with pytest.raises(DataError):
            sfs(wvec(1.0, 2.0), None, 3)


class TestRunBelief:
    def test_finds_planted_features_and_reports_metadata(self):
        ds = gaussian_classes(0)
        res = run_belief(ds, SelectorConfig(n_select=3, theta=0.0))
        assert sorted(res.selected_features()) == [0, 1, 2]
        md = res.metadata
        assert md["n_instances"] == 120 and md["n_features"] == 8
        assert md["sample_size"] == 120
        assert md["locator_records"] > 0
        assert md["locator_bytes"] == md["locator_records"] * 16
        assert md["measured_pairs"] >= md["locator_records"]
        for key in ("normalize_s", "sample_s", "search_s", "estimate_s",
                    "redundancy_s", "select_s"):
            assert key in md["timings"]

    def test_tall_search_measures_about_one_pair_per_locator(self):
        # The tall-search benchmark's shape: 10,000 x 500 N(0,1), ten
        # features shifted in class 1, 5% sample, k = 3, two partitions.
        # Only the rows whose bounds no k others beat are measured exactly:
        # 6087 pairs for 6000 locators (16,247 when each tile measured its
        # own survivors).
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10_000, 500))
        y = rng.integers(0, 2, 10_000)
        y[:2] = (0, 1)
        X[np.ix_(y == 1, np.sort(rng.choice(500, 10, replace=False)))] += 1.0
        md = run_belief(Dataset(X, y, [FeatureKind.NUMERIC] * 500),
                        SelectorConfig(n_select=20, k=3, sample_rate=0.05,
                                       partitions=2, theta=0.0)).metadata
        assert md["locator_records"] == 6000
        assert md["locator_records"] <= md["measured_pairs"] <= 1.05 * md["locator_records"]

    def test_deterministic_repeat_runs_are_bit_identical(self):
        ds = gaussian_classes(1)
        cfg = SelectorConfig(n_select=4, partitions=3, sample_rate=0.5, seed=11)
        a = run_belief(ds, cfg)
        b = run_belief(ds, cfg)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert a.selected_features() == b.selected_features()

    def test_default_repeat_runs_agree_to_addition_order(self, monkeypatch):
        # Partials fold in partition order whatever order threads finish in,
        # so collision tables summed over three partition threads and two
        # batches come out the same, bit for bit, on every run.
        tables = []
        mcr = selection.compute_mcr
        monkeypatch.setattr(selection, "compute_mcr",
                            lambda t: tables.append(t) or mcr(t))
        ds = gaussian_classes(1)
        cfg = SelectorConfig(n_select=4, partitions=3, sample_rate=0.5, batches=2,
                             theta=0.5, seed=11)
        a = run_belief(ds, cfg)
        b = run_belief(ds, cfg)
        assert np.array_equal(a.weights.values, b.weights.values)
        ta, tb = tables
        assert ta.joint.any() and ta.pair_count == tb.pair_count
        for field in ("tracked", "joint", "marginal"):
            assert np.array_equal(getattr(ta, field), getattr(tb, field))
        assert a.selected_features() == b.selected_features()

    @pytest.mark.parametrize("n", [9, 260])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_raw_dense_input_weighs_like_its_zscored_copy(self, n, p):
        # run_belief keeps raw rows and z-scores what it reads; the values
        # read are those of a z-scored copy passed as normalized (read in
        # place), bit for bit.  n = 260 takes the Gram kernel.
        rng = np.random.default_rng(p)
        m = 150
        X = rng.standard_normal((m, n)) * rng.uniform(0.01, 100, n) + rng.uniform(-1e3, 1e3, n)
        y = rng.integers(0, 3, m)
        nominal = (0, 5)
        for j in nominal:
            X[:, j] = rng.integers(0, 4, m)
        X[:, 7] = 2.5  # constant
        kinds = [FeatureKind.NOMINAL if j in nominal else FeatureKind.NUMERIC
                 for j in range(n)]
        ds = Dataset(X, y, kinds)
        cfg = SelectorConfig(n_select=4, partitions=p, sample_rate=0.4, batches=2,
                             theta=0.5, seed=p)
        raw = run_belief(ds, cfg)
        lazy = zscore_normalize(ds)
        copy = run_belief(Dataset(lazy.feature_space().scaled(ds.rows), y, kinds,
                                  normalized=True), cfg)
        assert np.array_equal(raw.weights.values, copy.weights.values)
        assert raw.selected_features() == copy.selected_features()
        assert np.array_equal(run_belief(lazy, cfg).weights.values, raw.weights.values)

    def test_raw_input_is_normalized_once_by_zscore_normalize(self, monkeypatch):
        # The benchmark's normalize span wraps this name in the selection
        # module; normalized input, with or without statistics, skips it.
        calls = []
        real = selection.zscore_normalize
        monkeypatch.setattr(selection, "zscore_normalize",
                            lambda ds, workers=1: calls.append(ds) or real(ds, workers))
        ds = gaussian_classes(2)
        cfg = SelectorConfig(n_select=2, partitions=2, theta=0.0)
        run_belief(ds, cfg)
        assert len(calls) == 1 and calls[0] is ds
        lazy = real(ds)
        run_belief(lazy, cfg)
        run_belief(Dataset(lazy.feature_space().scaled(ds.rows), ds.labels, ds.numeric,
                           normalized=True), cfg)
        assert len(calls) == 1

    def test_dense_run_holds_no_copy_of_the_input(self):
        # numpy reports its buffers to tracemalloc.  Search holds a few
        # row tiles, estimation its gather chunks; neither a z-scored copy
        # (32 MB here) nor a (queries x partition rows) distance block.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20000, 200))
        ds = Dataset(X, rng.integers(0, 2, 20000), [FeatureKind.NUMERIC] * 200)
        tracemalloc.start()
        try:
            run_belief(ds, SelectorConfig(n_select=5, sample_rate=0.002, theta=0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2

    def test_zero_theta_skips_collision_tracking(self):
        ds = gaussian_classes(2)
        res = run_belief(ds, SelectorConfig(n_select=3, theta=0.0))
        assert res.metadata["timings"]["redundancy_s"] == pytest.approx(0.0, abs=1e-4)

    def test_batch_split_leaves_weights_unchanged(self):
        ds = gaussian_classes(3, m=90)
        one = run_belief(ds, SelectorConfig(n_select=4, batches=1, theta=0.5))
        four = run_belief(ds, SelectorConfig(n_select=4, batches=4, theta=0.5))
        np.testing.assert_allclose(one.weights.values, four.weights.values,
                                   atol=1e-9, rtol=0)
        assert one.selected_features() == four.selected_features()

    def test_more_batches_than_samples_skips_the_empty_ones(self):
        # 10% of 60 rows is 6 samples; cut into 9 batches, three are empty
        # and the other six hold one sample each, as with 6 batches.
        ds = gaussian_classes(8, m=60)
        cfg = dict(n_select=4, sample_rate=0.1, theta=0.5, partitions=2, seed=3)
        six = run_belief(ds, SelectorConfig(batches=6, **cfg))
        nine = run_belief(ds, SelectorConfig(batches=9, **cfg))
        assert six.metadata["sample_size"] == nine.metadata["sample_size"] == 6
        assert np.array_equal(six.weights.values, nine.weights.values)
        assert six.selected_features() == nine.selected_features()

    def test_estimate_batch_results_count_each_pair_once(self, monkeypatch):
        # run_belief weighs the first batch's pairs in one estimate_batch
        # call and folds their collisions in a second, whether its window
        # (20 or 40 features of 30) leaves features out or covers them all.
        # Per-call counters (the benchmark's spans) must still see every
        # pair once: in the counts of one call and in the collision pair
        # count of one call.
        ds = gaussian_classes(6, m=90, n=30)
        results, totals = [], []
        real_estimate = selection.estimate_batch
        real_merge = selection.merge_stats

        def estimating(*args, **kwargs):
            results.append(real_estimate(*args, **kwargs))
            return results[-1]

        def merging(a, b):
            totals.append(real_merge(a, b))
            return totals[-1]

        monkeypatch.setattr(selection, "estimate_batch", estimating)
        monkeypatch.setattr(selection, "merge_stats", merging)
        for n_select in (1, 2):
            results.clear()
            totals.clear()
            run_belief(ds, SelectorConfig(n_select=n_select, batches=2, theta=0.5))
            assert len(results) == 3 and len(totals) == 1
            total = totals[0]
            pairs = int(total.hit_count.sum() + total.miss_count.sum())
            assert pairs > 0 and total.collisions.pair_count == pairs
            assert sum(int(r.hit_count.sum() + r.miss_count.sum())
                       for r in results) == pairs
            assert sum(r.collisions.pair_count for r in results) == pairs

    def test_redundancy_penalty_applies_above_5000_features(self):
        # The first batch once tracked every pair up to 5000 features and
        # none above, so a one-batch run on a wider input picked what
        # theta 0 picks.  Feature 4000 is a near-copy of the top feature 7.
        rng = np.random.default_rng(12)
        m, n = 60, 5001
        y = np.arange(m) % 2
        X = rng.standard_normal((m, n))
        X[:, 7] += 2.0 * y
        X[:, 4000] = X[:, 7] + 0.01 * rng.standard_normal(m)
        ds = Dataset(X, y, [FeatureKind.NUMERIC] * n)
        plain = run_belief(ds, SelectorConfig(n_select=3, batches=1, theta=0.0))
        assert plain.selected_features()[:2] == [7, 4000]
        res = run_belief(ds, SelectorConfig(n_select=3, batches=1, theta=0.5))
        assert np.any(res.penalties != 0.0)
        strong = run_belief(ds, SelectorConfig(n_select=3, batches=1, theta=5.0))
        assert strong.selected_features()[0] == 7
        assert 4000 not in strong.selected_features()

    def test_window_excludes_untracked_pairs_not_weights(self):
        # The window decides which pairs' collisions fold, never the
        # distance sums the weights come from: no window, a window of two
        # features and every feature give the same sums, bit for bit.
        ds = zscore_normalize(gaussian_classes(4))
        pdata = partition(ds, 2)
        batch = draw_sample(pdata, 1.0, 1, seed=0)[0]
        table = neighborhood(pdata, batch, 3)
        runs = [estimate_batch(pdata, batch, table, tracked=t)
                for t in (None, [1, 5], range(ds.n_features))]
        assert [s.collisions.tracked.size for s in runs] == [0, 2, ds.n_features]
        for name in ("miss_dist", "hit_dist", "miss_count", "hit_count"):
            for stats in runs[1:]:
                assert np.array_equal(getattr(stats, name), getattr(runs[0], name)), name

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_sparse_input_matches_its_dense_equivalent(self, seed):
        # Sparse rows are scaled lazily, dense ones z-scored up front: the
        # same distances and diffs, up to rounding.
        rng = np.random.default_rng(seed)
        m, n = 120, 24
        y = rng.integers(0, 2, m)
        y[:2] = [0, 1]
        X = np.where(rng.random((m, n)) < 0.25, rng.standard_normal((m, n)), 0.0)
        X[:, :3] += rng.random((m, 3)) < 0.2 + 0.5 * y[:, None]  # planted
        rows = [(np.flatnonzero(x), x[x != 0]) for x in X]
        config = SelectorConfig(n_select=5, theta=0.5, sample_rate=0.5,
                                batches=2, partitions=2, seed=seed)
        sparse = run_belief(Dataset(rows, y, [FeatureKind.NUMERIC] * n), config)
        dense = run_belief(Dataset(X, y, [FeatureKind.NUMERIC] * n), config)
        assert sparse.selected_features() == dense.selected_features()
        w = dense.weights.values
        np.testing.assert_allclose(sparse.weights.values, w, rtol=0,
                                   atol=1e-9 * np.abs(w).max())

    def test_single_class_rejected_before_search(self):
        ds = gaussian_classes(7, m=30)
        one = Dataset(ds.rows, np.ones(30, dtype=int), ds.numeric, n_classes=2)
        with pytest.raises(DataError, match="two classes"):
            run_belief(one, SelectorConfig(n_select=2))

    def test_selection_size_validated_before_work(self):
        ds = gaussian_classes(6, m=30)
        for n_select in (99, 0):
            with pytest.raises(DataError, match="selection size"):
                run_belief(ds, SelectorConfig(n_select=n_select))

    @pytest.mark.parametrize("bad", [
        {"kappa": 1.5}, {"kappa": -0.1}, {"kappa": float("nan")},
        {"theta": float("nan")}, {"theta": float("inf")}, {"theta": -0.5}])
    def test_bad_config_value_is_data_error(self, bad):
        # kappa outside [0, 1] used to discard every collision, and a NaN
        # theta gave an arbitrary selection.
        ds = gaussian_classes(6, m=30)
        with pytest.raises(DataError, match=next(iter(bad))):
            run_belief(ds, SelectorConfig(n_select=2, **bad))

    def test_config_bounds_are_accepted(self):
        ds = gaussian_classes(6, m=30)
        for ok in ({"kappa": 0.0}, {"kappa": 1.0}, {"theta": 0.0}):
            run_belief(ds, SelectorConfig(n_select=2, **ok))


class TestRankingResult:
    def test_json_form(self):
        res = sfs(wvec(0.2, 0.8), None, 2, theta=0.0)
        obj = res.to_json_obj()
        assert [s["feature"] for s in obj["selected"]] == [1, 0]
        assert obj["method"] == "test"

    def test_picks_are_arrays_and_json_entries_read_them(self):
        weights = wvec(1.0, 1.0, 0.6, 0.0)
        red = red_table(4, {(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.1})
        res = sfs(weights, red, 3, theta=0.5)
        assert res.features.dtype == np.int64
        for col in (res.normalized, res.penalties, res.scores):
            assert col.dtype == np.float64 and col.shape == (3,)
        entries = res.to_json_obj()["selected"]
        assert [list(e) for e in entries] == [
            ["feature", "weight", "normalized_weight", "penalty", "score"]] * 3
        assert [[type(v) for v in e.values()] for e in entries] == [
            [int, float, float, float, float]] * 3
        assert [e["feature"] for e in entries] == res.selected_features() == [0, 2, 1]
        assert [e["weight"] for e in entries] == [1.0, 0.6, 1.0]
        assert [[e["normalized_weight"], e["penalty"], e["score"]] for e in entries] == \
            np.column_stack(picks(res)[1:]).tolist()

    def test_a_ranking_holds_arrays_not_objects(self):
        # One object per pick (a dataclass, its dict and four floats) took
        # about 320 bytes a feature; a ranking's arrays take five words.
        n = 100_000
        weights = WeightVector(np.random.default_rng(4).standard_normal(n), "test")
        tracemalloc.start()
        try:
            res = sfs(weights, None, n, theta=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.features.size == n
        assert peak <= 8 * 8 * n
