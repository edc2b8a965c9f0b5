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
the result does not depend on the partition count, except for the last
bits of Gram-path distances (see ``_gram_sq``).

Distances are Euclidean over per-feature diffs (``pair_diffs``): |a - b|
for numeric values and a 0/1 indicator for nominal values, on rows read
through ``FeatureSpace.scaled``.  The batch is put on the z-scale once.
Sparse rows are searched as ||q||^2 + ||b||^2 - 2 q.b over a partition's
stored entries, a tile of rows at a time.

Dense rows are streamed through row tiles: consecutive row ranges, in row
order, each z-scored once per batch into one reused buffer (raw rows with
recorded statistics) or read in place (rows stored z-scored).  Each tile's
distances to the queries are folded into running per-(query, class) best
lists with the same (distance, row id) rule that merges partitions, so the
search holds a few tile-sized buffers per thread whatever the partition
height.  Bits: a distance depends only on its query and row, except that
BLAS rounds the Gram matmul by the shapes it is handed.  Tiles of a
multiple of 8 rows, with the partition spread evenly over them
(``_tile_height``), gave the whole-partition bits on OpenBLAS 0.3.31; rows
gathered by class, or tile heights off the multiple of 8, did not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (_STATS_BYTES as _TILE_BYTES, FeatureKind, FeatureSpace,
                      PartitionedDataset, SampleBatch, SparseRows)
from .errors import DataError

__all__ = [
    "NeighborTable",
    "feature_diff",
    "pair_diffs",
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

# Byte budget of a dense search tile: a partition's rows are z-scored into a
# buffer of at most this many bytes, and a block of at least _QUERY_CHUNK
# query distances to them takes at most as much again, which caps a tile at
# 4096 rows however few the features.  On a 10,000 x 500 input searched by
# two threads (500 queries; 2-vCPU Xeon, numpy 2.4, OpenBLAS on one
# thread), a run with 4 MiB tiles added about 37 MB to the peak RSS and
# with 8 MiB tiles about 57 MB; with a z-scored copy and whole-partition
# distance blocks, 83 MB.
_DENSE_TILE_BYTES = 1 << 22


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


def pair_diffs(a: np.ndarray, b: np.ndarray, space: FeatureSpace) -> np.ndarray:
    """Per-feature differences between two rows, or between two aligned
    (pairs, features) blocks of rows, already on the z-scale: |a - b| for
    numeric features and a 0/1 mismatch for nominal ones."""
    if a.shape != b.shape:
        raise DataError("dimension mismatch between instances")
    d = a - b
    np.abs(d, out=d)
    nom = space.nominal_idx
    if nom.size:
        d[..., nom] = a[..., nom] != b[..., nom]
    return d


def instance_distance(x, y, space: FeatureSpace) -> float:
    """Euclidean distance between two instances of the same feature space.

    Accepts stored dense rows (ndarray), sparse rows ((indices, values)), or
    one of each, expanded to dense and read through ``space.scaled``: the
    result matches the distance between the z-scored dense equivalents.
    """
    x, y = (_dense_row(v, space) for v in (x, y))
    dn = x[space.numeric_idx] - y[space.numeric_idx]
    nom = (x[space.nominal_idx] != y[space.nominal_idx]).sum()
    return math.sqrt(float((dn * dn).sum()) + float(nom))


def _dense_row(row, space: FeatureSpace) -> np.ndarray:
    """A dense or (indices, values) row as a dense vector of effective values."""
    if isinstance(row, tuple):
        idx, vals = row
        row = np.zeros(space.n_features)
        row[idx] = vals
    elif row.shape != (space.n_features,):
        raise DataError("dimension mismatch between instances")
    return space.scaled(row)


# -- dense distance kernels -------------------------------------------------


def _numeric_cols(rows: np.ndarray, space: FeatureSpace) -> np.ndarray:
    return rows if space.all_numeric else rows[:, space.numeric_idx]


def _add_mismatches(out: np.ndarray, Qc: np.ndarray, Bc: np.ndarray) -> None:
    """Add to each squared distance its nominal term: the number of nominal
    features (the columns of ``Qc`` and ``Bc``) on which the query and the
    block row differ."""
    for i in range(Qc.shape[0]):
        out[i] += (Bc != Qc[i]).sum(axis=1)


def _subtract_sq(Qn: np.ndarray, Bn: np.ndarray, out: np.ndarray) -> None:
    """Row-wise subtract-and-square over numeric columns, into ``out``.

    The per-row reduction happens inside a 2-D block, where numpy may group
    the additions differently than a lone 1-D sum; the result can sit one
    ulp from the scalar value, so only order, not bits, is contractual.
    Each row's sum depends on that row alone, so tiling the block keeps the
    bits.
    """
    d = np.empty_like(Bn)  # Bn's layout sets the order of each row's sum
    for i in range(Qn.shape[0]):
        np.subtract(Bn, Qn[i], out=d)
        np.multiply(d, d, out=d)
        d.sum(axis=1, out=out[i])


def _gram_sq(q_sq, b_sq, out: np.ndarray, scratch: np.ndarray) -> None:
    """(||q||^2 + ||b||^2) - 2 q.b over numeric columns, clipped at 0, in
    place on ``out``, which holds the matmul q.b on entry; ``scratch`` is
    shaped like ``out``.  BLAS rounds the matmul by the shapes it is
    handed, so a distance can move in its last bits with the partition
    count (the neighbor ids have not been seen to move), and an exact
    duplicate can sit at a small positive distance (up to ≈1e-6 seen on
    z-scored rows) instead of 0.0.
    """
    np.add(q_sq[:, None], b_sq, out=scratch)
    np.multiply(out, 2.0, out=out)
    np.subtract(scratch, out, out=out)
    np.maximum(out, 0.0, out=out)


def _tile_height(rows: int, n_features: int) -> int:
    """Height of the dense search's row tiles over a partition of ``rows``.

    A tile of at most ``_DENSE_TILE_BYTES`` whose distances to
    ``_QUERY_CHUNK`` queries fit the same budget (a multiple of 8 rows, at
    least 8) sets the tile count; the rows are then spread evenly over that
    many tiles, each a multiple of 8 rows but the last.  On OpenBLAS 0.3.31 a matmul
    against a tile so cut gave the same bits as against the whole partition
    on the benchmark shapes, while a narrow last tile (under ≈200 rows) or a
    height off the multiple of 8 moved some entries in their last bits.
    """
    widest = max(n_features, _QUERY_CHUNK)
    cap = max(8, _DENSE_TILE_BYTES // (8 * widest) // 8 * 8)
    tiles = max(1, -(-rows // cap))
    return -(-rows // (8 * tiles)) * 8


# -- sparse distance kernel -------------------------------------------------


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums over the last axis of CSR-laid ``values`` (0 for an empty
    row).  Norms and dot products both go through this one reduction, so an
    exact duplicate row's product with itself equals its norm bit for bit
    and the pair sits at distance exactly 0."""
    out = np.zeros(values.shape[:-1] + (indptr.shape[0] - 1,))
    full = np.flatnonzero(np.diff(indptr))
    if full.size:
        out[..., full] = np.add.reduceat(values, indptr[full] - indptr[0], axis=-1)
    return out


def _sparse_distances(Q: SparseRows, block: SparseRows, block_sq: np.ndarray,
                      n_features: int) -> np.ndarray:
    """Squared distances (||q||^2 + ||b||^2) - 2 q.b between sparse rows whose
    values are already scaled.

    The queries are scattered into one dense buffer.  The block is taken in
    tiles of consecutive rows whose (queries, stored entries) products fit
    ``_TILE_BYTES`` (at least one row); each tile gathers the buffer at its
    stored indices and multiplies by its values.
    """
    dense_q = Q.to_dense(n_features)
    cross = np.empty((len(Q), len(block)))
    ptr = block.indptr
    budget = max(1, _TILE_BYTES // (8 * len(Q)))
    r0 = 0
    while r0 < len(block):
        r1 = max(r0 + 1, int(np.searchsorted(ptr, ptr[r0] + budget, side="right")) - 1)
        prod = np.take(dense_q, block.indices[ptr[r0]:ptr[r1]], axis=1)
        prod *= block.data[ptr[r0]:ptr[r1]]
        cross[:, r0:r1] = _row_sums(prod, ptr[r0:r1 + 1])
        r0 = r1
    out = _row_sums(Q.data * Q.data, Q.indptr)[:, None] + block_sq - 2.0 * cross
    np.maximum(out, 0.0, out=out)
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


def _keep_k(rows: np.ndarray, dist: np.ndarray, k: int):
    """The first k entries of each (..., candidates) list by (distance, row
    id), as (rows, dist).  Padding (-1, +inf) sorts after every finite
    distance.  Tiles merge into a partition's lists, and partitions into
    the table, by this one rule."""
    keep = np.lexsort((rows, dist), axis=-1)[..., :k]
    return (np.take_along_axis(rows, keep, axis=-1),
            np.take_along_axis(dist, keep, axis=-1))


def _merge_step(rows, dist, d: np.ndarray, first: int, members: dict, k: int):
    """Merge the distances ``d`` from a group of queries to the consecutive
    block rows first, first + 1, ... into the group's running (query,
    class, k) lists ``rows``/``dist``, in place, class by class.
    ``members`` holds each class's block positions, ascending.

    Steps come in ascending row order, so an entry can enter a list only
    by beating its k-th distance (+inf while the list has room).  When no
    more than k entries per query do so, on average, those are merged;
    otherwise (the first step that holds a class) each query's ``_top_k``
    is.  Either way one ``_keep_k`` sorts the lists with their candidates.
    """
    q = d.shape[0]
    for c, cand in members.items():
        cand = cand[np.searchsorted(cand, first):np.searchsorted(cand, first + d.shape[1])]
        if cand.size == 0:
            continue
        # take() copies in C order, where d[:, cand] would come back
        # column-major and argpartition would walk each row with a stride.
        dc = np.take(d, cand - first, axis=1)
        beats = dc < dist[:, c, -1:]
        if np.count_nonzero(beats) > k * q:
            top = _top_k(dc, k)
            qi, j = np.repeat(np.arange(q), top.shape[1]), top.ravel()
        else:
            qi, j = np.divmod(np.flatnonzero(beats), cand.size)
        # Each query's candidates go after its k slots, padded with (-1, +inf).
        count = np.bincount(qi, minlength=q)
        slot = k + np.arange(qi.size) - np.repeat(np.cumsum(count) - count, count)
        all_rows = np.full((q, k + int(count.max())), -1, dtype=np.int64)
        all_dist = np.full(all_rows.shape, np.inf)
        all_rows[:, :k], all_dist[:, :k] = rows[:, c], dist[:, c]
        all_rows[qi, slot], all_dist[qi, slot] = cand[j], dc[qi, j]
        rows[:, c], dist[:, c] = _keep_k(all_rows, all_dist, k)


def _search_partition(pdata: PartitionedDataset, g: int, batch: SampleBatch,
                      Q, k: int, space: FeatureSpace):
    """Local top-k per class for every sampled instance, as the (rows,
    dist) arrays of a ``NeighborTable``.  ``Q`` holds the batch's rows on
    the z-scale."""
    ds = pdata.dataset
    start = int(pdata.starts[g])
    end = int(pdata.starts[g + 1])
    labels = ds.labels[start:end]
    members = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    n_samples = len(batch)
    rows = np.full((n_samples, ds.n_classes, k), -1, dtype=np.int64)
    dist = np.full((n_samples, ds.n_classes, k), np.inf)
    own_local = batch.indices - start  # never its own neighbor
    search = _search_sparse if ds.is_sparse else _search_dense
    for first, lo, hi, d in search(ds.rows, start, end, Q, space):
        own = np.flatnonzero((own_local[lo:hi] >= first)
                             & (own_local[lo:hi] < first + d.shape[1]))
        d[own, own_local[lo + own] - first] = np.inf
        _merge_step(rows[lo:hi], dist[lo:hi], d, first, members, k)
    rows[np.isinf(dist)] = -1
    rows[rows >= 0] += start
    return rows, dist


def _search_sparse(stored: SparseRows, start: int, end: int, Q: SparseRows,
                   space: FeatureSpace):
    """Distances from query chunks to the whole partition, as
    (first block row, query lo, query hi, distances) steps."""
    block = space.scaled(stored[start:end])
    block_sq = _row_sums(block.data * block.data, block.indptr)
    chunk = max(1, min(_QUERY_CHUNK, _TILE_BYTES // (8 * max(space.n_features, 1))))
    for lo in range(0, len(Q), chunk):
        hi = min(lo + chunk, len(Q))
        sq = _sparse_distances(Q[lo:hi], block, block_sq, space.n_features)
        yield 0, lo, hi, np.sqrt(sq, out=sq)


def _search_dense(stored: np.ndarray, start: int, end: int, Q: np.ndarray,
                  space: FeatureSpace):
    """Distances from the queries to the partition, a row tile at a time, as
    (first block row, query lo, query hi, distances) steps.

    Tiles are consecutive row ranges (``_tile_height``) in the outer loop,
    so each is z-scored once per batch; the queries run in groups of
    ``_QUERY_CHUNK`` multiples that fill at most ``_DENSE_TILE_BYTES`` of
    distances.  The Gram matmul of a tile of a multiple of 8 rows takes the
    whole group at once, which gave the same bits as ``_QUERY_CHUNK``
    queries at a time; the last tile of an uneven partition is multiplied
    ``_QUERY_CHUNK`` queries at a time, as the whole-partition search was,
    since there the query count moved some bits.  The tile, distance and
    epilogue buffers are allocated once and reused; a step's distances are
    only valid until the next step.
    """
    n_samples = Q.shape[0]
    height = _tile_height(end - start, space.n_features)
    group = max(1, _DENSE_TILE_BYTES // (8 * height * _QUERY_CHUNK)) * _QUERY_CHUNK
    gram = space.n_features >= GRAM_MIN_FEATURES
    Qn = _numeric_cols(Q, space)
    Qc = None if space.all_numeric else Q[:, space.nominal_idx]
    q_sq = (Qn * Qn).sum(axis=1) if gram else None
    tile_buf = (None if space.means is None
                else np.empty(height * space.n_features))
    dist_buf = np.empty(min(group, n_samples) * height)
    scratch = np.empty(_QUERY_CHUNK * height) if gram else None
    for first in range(0, end - start, height):
        h = min(height, end - start - first)
        raw = stored[start + first:start + first + h]
        tile = space.scaled(raw, out=None if tile_buf is None
                            else tile_buf[:raw.size].reshape(raw.shape))
        Bn = _numeric_cols(tile, space)
        Bc = None if Qc is None else tile[:, space.nominal_idx]
        b_sq = (Bn * Bn).sum(axis=1) if gram else None
        for g0 in range(0, n_samples, group):
            g1 = min(g0 + group, n_samples)
            d = dist_buf[:(g1 - g0) * h].reshape(g1 - g0, h)
            if gram and h % 8 == 0:
                np.matmul(Qn[g0:g1], Bn.T, out=d)
            for lo in range(g0, g1, _QUERY_CHUNK):
                hi = min(lo + _QUERY_CHUNK, g1)
                out = d[lo - g0:hi - g0]
                if gram:
                    if h % 8:
                        np.matmul(Qn[lo:hi], Bn.T, out=out)
                    _gram_sq(q_sq[lo:hi], b_sq, out, scratch[:out.size].reshape(out.shape))
                else:
                    _subtract_sq(Qn[lo:hi], Bn, out)
                if Qc is not None:
                    _add_mismatches(out, Qc[lo:hi], Bc)
            yield first, g0, g1, np.sqrt(d, out=d)


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
    Q = space.scaled(batch.rows)  # once per batch, shared by the partitions
    parts = pdata.map_partitions(
        lambda g: _search_partition(pdata, g, batch, Q, k, space))
    rows, dist = (np.concatenate(a, axis=-1) for a in zip(*parts))
    emitted = rows[rows >= 0]
    if ds.is_sparse:
        inst_bytes = SPARSE_NONZERO_BYTES * int(np.diff(ds.rows.indptr)[emitted].sum())
    else:
        inst_bytes = emitted.size * DENSE_VALUE_BYTES * ds.n_features
    top_rows, top_dist = _keep_k(rows, dist, k)
    return NeighborTable(
        k=k,
        rows=top_rows,
        dist=top_dist,
        emitted_records=emitted.size,
        emitted_bytes=emitted.size * LOCATOR_BYTES,
        full_instance_bytes=inst_bytes,
    )
