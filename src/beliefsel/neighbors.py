"""Partitioned nearest-neighbor search over class buckets.

Each partition scans only its own block and emits, per sampled instance and
per class, its local top-k candidates as compact locators (row id and
distance).  The reduce step merges the per-partition lists into the global
top-k.  Shipping locators instead of full instances is the point: the
accounting fields on the returned table record exactly how many records the
map phase emitted and what the equivalent full-instance payload would have
been.

A neighbor table is two arrays aligned with the batch, both shaped
(sample, class, k): ``rows`` holds global row ids and ``dist`` distances.
Slots (i, c, :) list the nearest class-c rows to sampled instance i in
ascending (distance, row id) order; a class with fewer than k eligible rows
pads the tail with row -1 at distance +inf, which sorts after every real
neighbor.  Ties at equal distance resolve by ascending global row id, so
the result does not depend on the partition count.

Distances are Euclidean over per-feature diffs: |a - b| for numeric values
(z-scored beforehand, or scaled lazily for sparse rows) and a 0/1 indicator
for nominal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureKind, FeatureSpace, PartitionedDataset, SampleBatch
from .errors import DataError

__all__ = [
    "NeighborTable",
    "feature_diff",
    "instance_distance",
    "neighborhood",
    "LOCATOR_BYTES",
]

# Serialized locator: two 4-byte ints plus one 8-byte real.
LOCATOR_BYTES = 16
DENSE_VALUE_BYTES = 8
SPARSE_NONZERO_BYTES = 12

# At or above this feature count the dense kernel switches to the Gram
# expansion (||a||^2 + ||b||^2 - 2ab), which runs as one matmul.  The switch
# keys on the feature count alone so the partition layout can never change
# which kernel (and hence which floats) a dataset gets.
GRAM_MIN_FEATURES = 256

_QUERY_CHUNK = 128


@dataclass
class NeighborTable:
    """Merged top-k neighbors of one batch, as (sample, class, k) arrays.

    ``rows[i, c]`` holds the global row ids of the nearest class-c rows to
    the batch's i-th instance, sorted by (distance, row id), with ``dist``
    the matching distances; unused slots hold -1 and +inf.  The slots of
    the instance's own class are its near-hits; every other class gives its
    near-misses from that class.  The three counters account the locators
    the partitions emitted before the merge.
    """

    k: int
    rows: np.ndarray
    dist: np.ndarray
    emitted_records: int = 0
    emitted_bytes: int = 0
    full_instance_bytes: int = 0


def feature_diff(a: float, b: float, kind: FeatureKind) -> float:
    """Per-feature difference: |a - b| for numeric, 0/1 mismatch for nominal."""
    if FeatureKind(kind) is FeatureKind.NOMINAL:
        return 0.0 if a == b else 1.0
    return abs(a - b)


def _sparse_effective(row, space: FeatureSpace):
    idx, vals = row
    if space.inv_scale is None:
        return idx, vals
    return idx, vals * space.inv_scale[idx]


def _sparse_sq_dist(row_a, row_b, space: FeatureSpace) -> float:
    """Squared distance between two sparse rows by index merge."""
    ia, va = _sparse_effective(row_a, space)
    ib, vb = _sparse_effective(row_b, space)
    na = float(np.dot(va, va))
    nb = float(np.dot(vb, vb))
    common, pa, pb = np.intersect1d(ia, ib, assume_unique=True, return_indices=True)
    cross = float(np.dot(va[pa], vb[pb]))
    return max(na + nb - 2.0 * cross, 0.0)


def instance_distance(x, y, space: FeatureSpace) -> float:
    """Euclidean distance between two instances of the same feature space.

    Accepts dense rows (ndarray), sparse rows ((indices, values)), or one of
    each; sparse values are scaled through the recorded statistics so the
    result matches the distance between the z-scored dense equivalents.
    """
    x_sparse = not isinstance(x, np.ndarray)
    y_sparse = not isinstance(y, np.ndarray)
    if x_sparse and y_sparse:
        return math.sqrt(_sparse_sq_dist(x, y, space))
    if x_sparse or y_sparse:
        sp, dn = (x, y) if x_sparse else (y, x)
        if dn.shape[0] != space.n_features:
            raise DataError("dimension mismatch between instances")
        scale = space.inv_scale if space.inv_scale is not None else 1.0
        dn_eff = dn * scale
        idx, vals = _sparse_effective(sp, space)
        total = float(np.dot(dn_eff, dn_eff))
        # Replace the dense-only contribution at the sparse row's indices.
        delta = vals - dn_eff[idx]
        total += float(np.dot(delta, delta)) - float(np.dot(dn_eff[idx], dn_eff[idx]))
        return math.sqrt(max(total, 0.0))
    if x.shape != y.shape:
        raise DataError("dimension mismatch between instances")
    if space.all_numeric:
        d = x - y
        return math.sqrt(float((d * d).sum()))
    dn = x[space.numeric_idx] - y[space.numeric_idx]
    num = float((dn * dn).sum())
    nom = float((x[space.nominal_idx] != y[space.nominal_idx]).sum())
    return math.sqrt(num + nom)


# -- dense distance kernels -------------------------------------------------


def _dense_distances_subtract(Q, block, space: FeatureSpace) -> np.ndarray:
    """Row-wise subtract-and-square distances, same terms as the scalar path.

    The per-row reduction happens inside a 2-D block, where numpy may group
    the additions differently than a lone 1-D sum; the result can sit one
    ulp from the scalar value, so only order, not bits, is contractual.
    """
    out = np.empty((Q.shape[0], block.shape[0]))
    if space.all_numeric:
        for i in range(Q.shape[0]):
            d = block - Q[i]
            out[i] = (d * d).sum(axis=1)
        return out
    Bn = block[:, space.numeric_idx]
    Bc = block[:, space.nominal_idx]
    Qn = Q[:, space.numeric_idx]
    Qc = Q[:, space.nominal_idx]
    for i in range(Q.shape[0]):
        d = Bn - Qn[i]
        out[i] = (d * d).sum(axis=1) + (Bc != Qc[i]).sum(axis=1)
    return out


def _dense_distances_gram(Q, block, space: FeatureSpace, block_sq) -> np.ndarray:
    if space.all_numeric:
        Qn, Bn = Q, block
    else:
        Qn, Bn = Q[:, space.numeric_idx], block[:, space.numeric_idx]
    q_sq = (Qn * Qn).sum(axis=1)
    out = q_sq[:, None] + block_sq[None, :] - 2.0 * (Qn @ Bn.T)
    np.maximum(out, 0.0, out=out)
    if not space.all_numeric:
        Bc = block[:, space.nominal_idx]
        Qc = Q[:, space.nominal_idx]
        for i in range(Q.shape[0]):
            out[i] += (Bc != Qc[i]).sum(axis=1)
    return out


# -- partition map ----------------------------------------------------------


def _top_k(dc: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries of each row of ``dc``, ordered by
    (distance, column); all columns when there are at most k.

    ``argpartition`` finds each row's k-th smallest distance in linear
    time.  A row with more than k entries at or below it has a tie at the
    k-th place, and is redone on that short list so the lowest columns win.
    """
    q, m = dc.shape
    if m <= k:
        idx = np.broadcast_to(np.arange(m), (q, m))
    else:
        idx = np.argpartition(dc, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(dc, idx[:, k - 1:], axis=1)
        for r in np.flatnonzero(np.count_nonzero(dc <= kth, axis=1) > k):
            near = np.flatnonzero(dc[r] <= kth[r])
            idx[r] = near[np.argsort(dc[r, near], kind="stable")[:k]]
    order = np.lexsort((idx, np.take_along_axis(dc, idx, axis=1)), axis=1)
    return np.take_along_axis(idx, order, axis=1)


def _search_partition(pdata: PartitionedDataset, g: int, batch: SampleBatch,
                      k: int, space: FeatureSpace):
    """Local top-k per class for every sampled instance, as the (rows,
    dist) arrays of a ``NeighborTable``."""
    ds = pdata.dataset
    start = int(pdata.starts[g])
    end = int(pdata.starts[g + 1])
    labels = ds.labels[start:end]
    members = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    n_samples = len(batch)
    rows = np.full((n_samples, ds.n_classes, k), -1, dtype=np.int64)
    dist = np.full((n_samples, ds.n_classes, k), np.inf)

    if ds.is_sparse:
        block_rows = ds.rows[start:end]
    else:
        block = ds.rows[start:end]
        use_gram = ds.n_features >= GRAM_MIN_FEATURES
        if use_gram:
            Bn = block if space.all_numeric else block[:, space.numeric_idx]
            block_sq = (Bn * Bn).sum(axis=1)

    for lo in range(0, n_samples, _QUERY_CHUNK):
        hi = min(lo + _QUERY_CHUNK, n_samples)
        if ds.is_sparse:
            sq = np.empty((hi - lo, end - start))
            for i in range(lo, hi):
                qrow = batch.row(i)
                for j in range(end - start):
                    sq[i - lo, j] = _sparse_sq_dist(qrow, block_rows[j], space)
        else:
            Q = batch.rows[lo:hi]
            if use_gram:
                sq = _dense_distances_gram(Q, block, space, block_sq)
            else:
                sq = _dense_distances_subtract(Q, block, space)
        d = np.sqrt(sq, out=sq)
        gids = batch.indices[lo:hi]
        own = np.flatnonzero((gids >= start) & (gids < end))
        d[own, gids[own] - start] = np.inf  # never its own neighbor
        for c, cand in members.items():
            dc = d[:, cand]
            top = _top_k(dc, k)
            w = top.shape[1]
            dist[lo:hi, c, :w] = np.take_along_axis(dc, top, axis=1)
            rows[lo:hi, c, :w] = start + cand[top]
    rows[np.isinf(dist)] = -1
    return rows, dist


def neighborhood(pdata: PartitionedDataset, batch: SampleBatch, k: int) -> NeighborTable:
    """Global top-k neighbors per class for every instance in the batch.

    Partitions are searched independently and their candidate lists
    concatenated in partition order; one row-wise sort by (distance, row
    id) then keeps the first k, so the merge does not depend on completion
    order.  A sampled instance is never its own neighbor (excluded by
    global row id, so exact duplicates stay eligible); a class with fewer
    than ``k`` candidates leaves padded slots.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    ds = pdata.dataset
    space = ds.feature_space()
    parts = pdata.map_partitions(
        lambda g: _search_partition(pdata, g, batch, k, space))
    rows, dist = (np.concatenate(a, axis=-1) for a in zip(*parts))
    emitted = rows[rows >= 0]
    if ds.is_sparse:
        inst_bytes = SPARSE_NONZERO_BYTES * sum(ds.rows[r][0].size for r in emitted)
    else:
        inst_bytes = emitted.size * DENSE_VALUE_BYTES * ds.n_features
    keep = np.lexsort((rows, dist), axis=-1)[..., :k]
    return NeighborTable(
        k=k,
        rows=np.take_along_axis(rows, keep, axis=-1),
        dist=np.take_along_axis(dist, keep, axis=-1),
        emitted_records=emitted.size,
        emitted_bytes=emitted.size * LOCATOR_BYTES,
        full_instance_bytes=inst_bytes,
    )
