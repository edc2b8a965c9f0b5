"""Pipeline properties on random small inputs: bad input fails loudly, the
result does not depend on how the work is cut into partitions and batches,
and sparse input gives the result of its dense equivalent.

The datasets are dense with mixed numeric and nominal columns, or sparse
and all numeric: m <= 60 rows, n <= 12 features, 2-4 classes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefsel.dataset import (Dataset, FeatureKind, draw_sample, partition,
                               zscore_normalize)
from beliefsel.errors import DataError
from beliefsel.estimation import estimate_batch, merge_stats
from beliefsel.neighbors import neighborhood
from beliefsel.selection import SelectorConfig, run_belief


@st.composite
def small_inputs(draw):
    """(X, labels, kinds, sparse): every class holds a row; nominal columns
    hold codes 0..2; sparse inputs keep about 40% of their cells."""
    m = draw(st.integers(4, 60))
    n = draw(st.integers(1, 12))
    classes = draw(st.integers(2, 4))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, classes, m)
    y[:classes] = np.arange(classes)
    X = rng.standard_normal((m, n)) * rng.uniform(0.1, 100, n)
    if sparse:
        X[rng.random((m, n)) >= 0.4] = 0.0
        numeric = np.ones(n, dtype=bool)
    else:
        numeric = rng.random(n) < 0.6
        X[:, ~numeric] = rng.integers(0, 3, (m, np.count_nonzero(~numeric)))
    kinds = [FeatureKind.NUMERIC if f else FeatureKind.NOMINAL for f in numeric]
    return X, y, kinds, sparse


@st.composite
def configs(draw, n):
    return SelectorConfig(n_select=draw(st.integers(1, n)), k=draw(st.integers(1, 3)),
                          sample_rate=draw(st.sampled_from([0.3, 1.0])),
                          batches=draw(st.integers(1, 2)), partitions=draw(st.integers(1, 3)),
                          theta=draw(st.sampled_from([0.0, 0.5])), seed=draw(st.integers(0, 9)))


def build(X, y, kinds, sparse, **kw):
    # Every nonzero cell is stored, NaN and infinities included.
    rows = [(np.flatnonzero(r), r[r != 0]) for r in X] if sparse else X
    return Dataset(rows, y, kinds, **kw)


@settings(max_examples=60)
@given(data=small_inputs(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       normalized=st.booleans(), pick=st.data())
def test_non_finite_cell_raises(data, bad, normalized, pick):
    # From the constructor (nominal), zscore_normalize (raw numeric) or
    # run_belief's check of input passed as normalized.
    X, y, kinds, sparse = data
    i = pick.draw(st.integers(0, X.shape[0] - 1))
    j = pick.draw(st.integers(0, X.shape[1] - 1))
    X[i, j] = bad
    with pytest.raises(DataError):
        run_belief(build(X, y, kinds, sparse, normalized=normalized),
                   SelectorConfig(n_select=1, k=1, partitions=1, theta=0.5))


@settings(max_examples=20)
@given(data=small_inputs(), pick=st.data())
def test_single_present_class_raises(data, pick):
    X, y, kinds, sparse = data
    present = pick.draw(st.integers(0, int(y.max())))
    ds = build(X, np.full_like(y, present), kinds, sparse, n_classes=int(y.max()) + 1)
    with pytest.raises(DataError, match="two classes"):
        run_belief(ds, pick.draw(configs(X.shape[1])))


@settings(max_examples=60)
@given(data=small_inputs(), normalized=st.booleans(), pick=st.data())
def test_valid_input_gives_finite_weights(data, normalized, pick):
    X, y, kinds, sparse = data
    result = run_belief(build(X, y, kinds, sparse, normalized=normalized),
                        pick.draw(configs(X.shape[1])))
    assert np.isfinite(result.weights.values).all()
    assert result.features.size == len(set(result.selected_features()))


def full_window_stats(ds, config):
    """run_belief's batch loop with a window that covers every feature."""
    pdata = partition(ds, config.partitions)
    total = None
    for batch in draw_sample(pdata, config.sample_rate, config.batches, config.seed):
        if len(batch):
            table = neighborhood(pdata, batch, config.k)
            stats = estimate_batch(pdata, batch, table,
                                   tracked=np.arange(ds.n_features),
                                   kappa=config.kappa)
            total = stats if total is None else merge_stats(total, stats)
    return total


@settings(max_examples=25, deadline=None)
@given(data=small_inputs(), pick=st.data())
def test_partitions_and_batches_do_not_change_the_result(data, pick):
    # Partitions and batches only regroup the same neighbor pairs, so the
    # counts are exact and the sums agree up to the order of additions:
    # weights to 1e-9 of the largest, collision masses to 1e-12 relative.
    X, y, kinds, sparse = data
    ds = build(X, y, kinds, sparse)
    config = pick.draw(configs(X.shape[1]))
    normalized = zscore_normalize(ds)
    first = None
    for p in (1, 2, 3):
        for batches in (1, 2, 3):
            cut = replace(config, partitions=p, batches=batches)
            weights = run_belief(ds, cut).weights.values
            stats = full_window_stats(normalized, cut)
            if first is None:
                first = weights, stats
                continue
            w0, s0 = first
            np.testing.assert_allclose(weights, w0, rtol=0,
                                       atol=1e-9 * max(np.abs(w0).max(), 1e-300))
            for name in ("miss_count", "hit_count"):
                assert np.array_equal(getattr(stats, name), getattr(s0, name))
            a, b = stats.collisions, s0.collisions
            assert a.pair_count == b.pair_count
            np.testing.assert_allclose(a.joint, b.joint, rtol=1e-12, atol=0)
            np.testing.assert_allclose(a.marginal, b.marginal, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(data=small_inputs(), pick=st.data())
def test_sparse_input_matches_its_dense_equivalent(data, pick):
    # All-numeric inputs, stored sparse (the nonzero cells) and dense.
    # Sparse rows are read as value / std and dense ones as (value - mean)
    # / std, and the sparse search squares distances as ||q||^2 + ||b||^2 -
    # 2 q.b, so the two agree up to rounding.  Squared distances agree
    # within 1e-12 of ||q||^2 + ||b||^2 on both scales (that of the sparse
    # sum's cancellation and of the dense centering; plain relative error
    # reached 2.8e-10 on a close pair).
    # The neighbor rows are the same but where rows tie in exact
    # arithmetic, which rounding then orders (a feature stored in one row
    # reads +-m / sqrt(m - 1) in every such feature); there the dense
    # distance of the sparse search's row matches the slot's.  The weights,
    # differences of mean diffs in z units, agree within 1e-12 of the
    # largest or of 1 when the rows are the same.
    X, y, kinds, _ = data
    # Nominal codes read as numbers put rows on a lattice of ties.
    assume(all(kind is FeatureKind.NUMERIC for kind in kinds))
    n = X.shape[1]
    sparse, dense = (zscore_normalize(build(X, y, kinds, s)) for s in (True, False))
    config = replace(pick.draw(configs(n)), batches=1)
    batches, tables = [], []
    for ds in (sparse, dense):
        pdata = partition(ds, config.partitions)
        batches.append(draw_sample(pdata, config.sample_rate, 1, config.seed)[0])
        tables.append(neighborhood(pdata, batches[-1], config.k))
    s, d = tables
    queries = batches[0].indices
    assert np.array_equal(queries, batches[1].indices)
    found = d.rows >= 0
    assert np.array_equal(s.rows >= 0, found)
    assert np.isinf(s.dist[~found]).all() and np.isinf(d.dist[~found]).all()
    D = dense.feature_space().scaled(dense.rows)
    Z = sparse.feature_space().scaled(sparse.rows).to_dense(n)
    sq = (Z * Z).sum(axis=1) + (D * D).sum(axis=1)
    scale = sq[queries, None, None] + sq[s.rows]
    gap = np.abs(s.dist[found] ** 2 - d.dist[found] ** 2)
    assert np.all(gap <= 1e-12 * scale[found])
    swapped = found & (s.rows != d.rows)
    i = np.nonzero(swapped)[0]
    tie = ((D[queries[i]] - D[s.rows[swapped]]) ** 2).sum(axis=1)
    assert np.all(np.abs(tie - d.dist[swapped] ** 2) <= 1e-12 * scale[swapped])
    if not swapped.any():
        ws, wd = (run_belief(ds, config).weights.values for ds in (sparse, dense))
        np.testing.assert_allclose(ws, wd, rtol=0, atol=1e-12 * max(np.abs(wd).max(), 1.0))
