"""Forward selection scoring and the end-to-end pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsel import selection
from beliefsel.dataset import Dataset, FeatureKind, zscore_normalize
from beliefsel.errors import DataError
from beliefsel.estimation import WeightVector
from beliefsel.redundancy import RedundancyTable
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

            wn = minmax_normalize(weights.values)
            chosen = []
            remaining = set(range(n))
            for _ in range(6):
                scored = []
                for i in sorted(remaining):
                    pen = sum(red.normalized(j, i) for j in chosen)
                    scored.append((-(wn[i] - theta * pen), i))
                best = min(scored)[1]
                chosen.append(best)
                remaining.discard(best)
            assert got.selected_features() == chosen

    def test_reported_score_decomposition(self):
        weights = wvec(1.0, 0.8, 0.2)
        red = red_table(3, {(0, 1): 1.0})
        res = sfs(weights, red, 2, theta=0.5)
        second = res.selected[1]
        assert second.feature == 1
        assert second.score == pytest.approx(
            second.normalized_weight - 0.5 * second.penalty)
        assert res.selected[0].penalty == 0.0

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
        for key in ("normalize_s", "sample_s", "search_s", "estimate_s",
                    "redundancy_s", "select_s"):
            assert key in md["timings"]

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
        # read are the copy's, bit for bit.  n = 260 takes the Gram kernel.
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
        copy = run_belief(zscore_normalize(ds), cfg)
        assert np.array_equal(raw.weights.values, copy.weights.values)
        assert raw.selected_features() == copy.selected_features()

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

    def test_window_excludes_untracked_pairs_not_weights(self):
        ds = gaussian_classes(4)
        wide = run_belief(ds, SelectorConfig(n_select=2, eta=4.0))
        narrow = run_belief(ds, SelectorConfig(n_select=2, eta=0.5))
        np.testing.assert_allclose(wide.weights.values, narrow.weights.values,
                                   atol=1e-12)

    def test_threshold_reports_strong_features(self):
        ds = gaussian_classes(5)
        res = run_belief(ds, SelectorConfig(n_select=3, theta=0.0, threshold=0.5))
        above = res.metadata["above_threshold"]
        assert 0 in above
        assert all(minmax_normalize(res.weights.values)[j] > 0.5 for j in above)

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
        one = Dataset(ds.rows, np.ones(30, dtype=int), ds.kinds, n_classes=2)
        with pytest.raises(DataError, match="two classes"):
            run_belief(one, SelectorConfig(n_select=2))

    def test_selection_size_validated_before_work(self):
        ds = gaussian_classes(6, m=30)
        with pytest.raises(DataError):
            run_belief(ds, SelectorConfig(n_select=99))


class TestRankingResult:
    def test_json_and_text_forms(self):
        res = sfs(wvec(0.2, 0.8), None, 2, theta=0.0)
        obj = res.to_json_obj()
        assert [s["feature"] for s in obj["selected"]] == [1, 0]
        assert obj["method"] == "test"
        text = res.to_text()
        assert text.splitlines()[0].startswith("1\t")
