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

Distances are Euclidean over per-feature diffs (``pair_diffs``): |a - b|
for numeric values and a 0/1 indicator for nominal values, on rows read
through ``FeatureSpace.scaled``.  The batch's rows are on the z-scale
already: ``draw_sample`` scales them once.

Each search step hands bounds on squared distances, each within a stated
margin of its exact value, with the columns grouped by class.  A
partition's per-(query, class) lists take each class's slice by one rule
(``_Lists``): the rows that neither the slice's k-th bound nor the k-th
smallest upper bound seen before rule out are logged, and the slice's k
smallest bounds join those.  When the partition ends, or the log passes
its byte budget, the logged rows the k smallest then leave in are measured
exactly, once each, and merged by (distance, row id).

Dense rows stream through tiles of consecutive rows, read in row order,
z-scored once per batch in small row blocks (raw rows with recorded
statistics) or read in place (rows stored z-scored), and written in class
order into float32 augmented rows: a thread holds a few tile-sized buffers
whatever the partition height.  A tile's bounds are one float32 matmul.
The rows to measure are gathered again, z-scored once each, and get their
float64 subtract-and-square distance, which depends on its two rows alone,
never on BLAS, the tiling or the partition count; an exact duplicate sits
at 0.0.

Sparse rows are searched as ||q||^2 + ||b||^2 - 2 q.b over a partition's
stored entries, a tile of rows at a time, then taken into class order; the
float64 squares are the bounds, and their roots the distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import FeatureSpace, PartitionedDataset, SampleBatch, SparseRows
from .errors import DataError

__all__ = [
    "NeighborTable",
    "pair_diffs",
    "neighborhood",
    "LOCATOR_BYTES",
]

# Serialized locator: two 4-byte ints plus one 8-byte real.
LOCATOR_BYTES = 16
DENSE_VALUE_BYTES = 8
SPARSE_NONZERO_BYTES = 12

_QUERY_CHUNK = 128

# Byte budget of the sparse search's dense query buffer and of each tile of
# its (queries, stored entries) products.
_TILE_BYTES = 1 << 20

# Byte budget of a dense search tile: a tile holds at most this many bytes
# of float64 rows (its float32 augmented rows take about half), a step's
# float32 bounds from a group of queries to the tile take at most as much
# again, and the rows measured at a partition's end are gathered and
# z-scored this many bytes at a time.  A tile holds at most 4096 rows
# however few the features, so a group may hold at least 2 _QUERY_CHUNK
# queries.  On the tall-search workload (10,000 x 500, 500 queries, two
# partition threads; 2-vCPU Xeon, numpy 2.4) the selection's traced
# allocations peaked at 22 MB with 4 MiB tiles (29 MB while each tile was
# z-scored into a float64 buffer), and its RSS stayed under the 115 MB
# set-up peak; with 8 MiB tiles and that buffer, 51 MB and 133 MB RSS.
_DENSE_TILE_BYTES = 1 << 22

# float32 unit roundoff, and the largest squared row norm the float32
# filter takes: its products and sums then stay far below float32's range.
_U32 = 2.0 ** -24
_NORM_CAP = 2.0 ** 100
# Rows gathered per chunk of exact distances, twice (block and query rows):
# at most this many bytes each.  On 675 pairs of 500 features (2-vCPU Xeon,
# numpy 2.4) fresh 256 KiB chunks took a third of the time of fresh 1 MiB
# ones, whose pages fault on every chunk; one reused pair of buffers took
# four fifths of that again.  The same budget caps the raw rows a tile is
# z-scored in at a time, and the log of rows left to measure: past it, the
# log is measured (tall-search logs about 160 KB a partition, so it is
# measured once, at the partition's end).
_PAIR_BYTES = 1 << 18
# Absolute error a float32 value, product or norm can gain by underflow
# (2^-126 when BLAS flushes subnormals to zero), summed over a dot product
# with generous room: the margin adds it per term.
_UNDERFLOW = 2.0 ** -120
# Margin of the sparse search's float64 squares, per unit of a block's
# largest square S.  They are exact as bounds, but two different squares
# can round to one square root, and the (distance, row id) rule then keeps
# the lower row id even when its square is the larger.  Squares that share
# the root r lie within (r +- ulp(r)/2)^2, at most 4u r^2 ~ 4u S apart
# (u = 2^-53), so a row whose square exceeds the k-th by more than that is
# farther; 2^-50 = 8u leaves room for the float64 rounding of the limits.
_SQRT_TIES = 2.0 ** -50
# A batch's search of at most this many (query, row, feature) triples runs
# its partitions one after another on the calling thread: on small
# partitions, pool threads trading the GIL over many small numpy calls cost
# more than they save.  On a 2-vCPU Xeon (numpy 2.4) the wide-collide search
# (75 queries, two 37-row partitions of 500 features: 2.8 M) took 3.2 ms
# inline against 5.5 ms on two threads with OpenBLAS on one thread (4.4
# against 8.6 ms with OpenBLAS on two); full sd3 (75 x 4060: 22.8 M) took
# 23.6 ms inline against 22.7 ms on two threads with OpenBLAS on one.
_INLINE_SEARCH = 1 << 22


@dataclass
class NeighborTable:
    """Merged top-k neighbors of one batch, as (sample, class, k) arrays.

    ``rows[i, c]`` holds the global row ids of the nearest class-c rows to
    the batch's i-th instance, sorted by (distance, row id), with ``dist``
    the matching distances; unused slots hold -1 and +inf.  The slots of
    the instance's own class are its near-hits; every other class gives its
    near-misses from that class.  The first three counters account the
    locators the partitions emitted before the merge; ``measured_pairs``
    counts the exact distances the partitions computed, at least one per
    emitted locator.
    """

    k: int
    rows: np.ndarray
    dist: np.ndarray
    emitted_records: int = 0
    emitted_bytes: int = 0
    full_instance_bytes: int = 0
    measured_pairs: int = 0


def pair_diffs(a: np.ndarray, b: np.ndarray, space: FeatureSpace,
               out: np.ndarray | None = None) -> np.ndarray:
    """Per-feature differences between two rows, or between two aligned
    (pairs, features) blocks of rows, already on the z-scale: |a - b| for
    numeric features and a 0/1 mismatch for nominal ones.

    The diffs go into ``out`` when it is given, which may be ``a`` or
    ``b`` itself: the nominal mismatches are read before anything is
    overwritten, so the bits are those of a fresh result.
    """
    if a.shape != b.shape:
        raise DataError("dimension mismatch between instances")
    nom = space.nominal_idx
    mismatch = a[..., nom] != b[..., nom] if nom.size else None
    d = np.subtract(a, b, out=out)
    np.abs(d, out=d)
    if nom.size:
        d[..., nom] = mismatch
    return d


# -- dense distance kernels -------------------------------------------------


def _numeric_cols(rows: np.ndarray, space: FeatureSpace) -> np.ndarray:
    return rows if space.all_numeric else rows[:, space.numeric_idx]


def _add_mismatches(out: np.ndarray, Qc: np.ndarray, Bc: np.ndarray) -> None:
    """Add to each squared distance its nominal term: the number of nominal
    features (the columns of ``Qc`` and ``Bc``) on which the query and the
    block row differ."""
    for i in range(Qc.shape[0]):
        out[i] += (Bc != Qc[i]).sum(axis=1)


def _tile_height(rows: int, n_features: int) -> int:
    """Height of the dense search's row tiles over a partition of ``rows``:
    at most ``_DENSE_TILE_BYTES`` of float64 rows counted at least
    ``_QUERY_CHUNK`` features wide (so at most 4096 rows), and at least 8
    rows (or the partition).  The float32 bounds of 2 ``_QUERY_CHUNK``
    queries to a tile then fit the same budget."""
    widest = max(n_features, _QUERY_CHUNK)
    return max(1, min(rows, max(8, _DENSE_TILE_BYTES // (8 * widest))))


def _margin_rate(n_numeric: int) -> float:
    """c in the float32 filter's margin M = c (max ||q||^2 + max ||b||^2 +
    nominal count) + K 2^-120, or +inf when the rows are too long for it.

    S = [-2q, ||q||^2, 1] . [b, 1, ||b||^2], K = n + 2 terms in float32,
    differs from the squared distance D by the dot product's error, at most
    gamma_K sum |a_i b_i| <= 2 gamma_K (1 + u)^2 N in any summation order,
    FMA included (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1; gamma_K = Ku / (1 - Ku), u = 2^-24), plus the
    rounding of q, b and the two norms to float32, at most (4u + u^2) N,
    with N = ||q||^2 + ||b||^2.  Adding the nominal mismatch count in
    float32 costs at most u (2N + count) more.  3 gamma_K + 12u covers all
    of it, and its slack covers the float64 roundings of the bounds and of
    the exact distances; ``_UNDERFLOW`` covers float32 underflow.
    """
    ku = (n_numeric + 2) * _U32
    return 3 * ku / (1 - ku) + 12 * _U32 if ku < 0.5 else math.inf


def _at_least(x: np.ndarray, dtype) -> np.ndarray:
    """Per entry a ``dtype`` value at or above the float64 ``x`` (rounded to
    nearest, then one step up), capped at the dtype's largest finite value,
    so an entry excluded as +inf never passes a ``<=`` test against it."""
    top = np.finfo(dtype).max
    return np.nextafter(np.minimum(x, top).astype(dtype), top)


def _pair_distances(Qn: np.ndarray, Qc, Bn: np.ndarray, Bc, buf: np.ndarray,
                    qi: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances between the query rows ``qi`` and the block rows ``j``: the
    square root of the numeric (b - q)^2, summed in feature order as a lone
    1-D sum would be, plus the nominal mismatch count (``Qc``/``Bc`` hold
    the nominal columns, or are None).  The rows are gathered a chunk at a
    time into ``buf``, a (2, chunk rows, numeric features) scratch array."""
    out = np.empty(qi.size)
    step = buf.shape[1]
    for a in range(0, qi.size, step):
        qa, ja = qi[a:a + step], j[a:a + step]
        # C order, so each row sums as a 1-D array; indices are in range.
        d, e = buf[0, :ja.size], buf[1, :ja.size]
        np.take(Bn, ja, axis=0, out=d, mode="clip")
        np.subtract(d, np.take(Qn, qa, axis=0, out=e, mode="clip"), out=d)
        np.multiply(d, d, out=d)
        sq = d.sum(axis=1)
        if Qc is not None:
            sq += (Bc[ja] != Qc[qa]).sum(axis=1)
        np.sqrt(sq, out=out[a:a + step])
    return out


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
    out = _row_sums(Q.data * Q.data, Q.indptr)[:, None] + block_sq
    out -= np.multiply(cross, 2.0, out=cross)
    np.maximum(out, 0.0, out=out)
    return out


# -- partition map ----------------------------------------------------------


def _keep_k(rows: np.ndarray, dist: np.ndarray, k: int):
    """The first k entries of each (..., candidates) list by (distance, row
    id), as (rows, dist).  Padding (-1, +inf) sorts after every finite
    distance.  Measured rows merge into a partition's lists, and
    partitions into the table, by this one rule."""
    keep = np.lexsort((rows, dist), axis=-1)[..., :k]
    return (np.take_along_axis(rows, keep, axis=-1),
            np.take_along_axis(dist, keep, axis=-1))


def _k_smallest(a: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest entries, ascending, +inf past the row's width
    (bit for bit ``np.sort(a, axis=1)[:, :k]``), by k ``argmin`` passes over
    one copy of ``a``: for a search's small k, a third of a k-th partition."""
    work = np.array(a)
    out = np.full((a.shape[0], k), np.inf, dtype=a.dtype)
    q = np.arange(a.shape[0])
    for i in range(min(k, a.shape[1])):
        j = work.argmin(axis=1)
        out[:, i] = work[q, j]
        work[q, j] = np.inf
    return out


def _class_order(labels: np.ndarray, n_classes: int):
    """``order``: a block's rows by class, ascending within each; ``at``:
    each row's column; class c holds columns bounds[c]:bounds[c + 1]."""
    order = np.argsort(labels, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n_classes))))
    return order, at, bounds


def _append(lists, qi: np.ndarray, new):
    """Each query's entries in every (query, width) array of ``lists``
    followed by its entries in the matching array of ``new`` (``qi``
    ascending), padded with -1 (row ids) or +inf (distances)."""
    q, w = lists[0].shape
    count = np.bincount(qi, minlength=q)
    slot = w + np.arange(qi.size) - np.repeat(np.cumsum(count) - count, count)
    out = []
    for old, add in zip(lists, new):
        a = np.full((q, w + int(count.max())), -1 if old.dtype.kind == "i" else np.inf,
                    dtype=old.dtype)
        a[:, :w], a[qi, slot] = old, add
        out.append(a)
    return out


def _reach(kth: np.ndarray, margin: float) -> np.ndarray:
    """Per query, its k-th smallest bound plus twice the margin, in
    float64: a row whose bound exceeds it is farther than k rows are."""
    return np.add(kth, 2 * margin, dtype=np.float64)


class _Lists:
    """A partition's running top-k per (class, query), merged on bounds and
    measured once.

    ``rows``/``dist`` are (class, query, k) lists of exactly measured rows
    by (distance, row id), padded with (-1, +inf).  ``ub`` holds, per
    (class, query), the k smallest upper bounds S + M on squared distances
    seen so far, ascending (+inf while fewer than k rows were seen), then
    k entries of scratch; its k-th entry is U.  ``step`` logs (class and
    query, row, S) for the rows of a block of bounds that may still enter
    a list, and ``flush`` measures the logged rows that U then does not
    rule out with ``measure(qi, j, s)``, which gives the exact distances of
    queries ``qi`` to block rows ``j`` from their bounds ``s``.  The search
    flushes when its partition ends, and ``step`` whenever the log holds
    more than ``_PAIR_BYTES``; ``measured`` counts the exact distances.
    """

    def __init__(self, n_queries: int, n_classes: int, k: int, measure):
        self.rows = np.full((n_classes, n_queries, k), -1, dtype=np.int64)
        self.dist = np.full(self.rows.shape, np.inf)
        self.ub = np.full((n_classes, n_queries, 2 * k), np.inf)
        self.k, self.measure = k, measure
        self.log, self.log_bytes, self.measured = [], 0, 0

    def step(self, s: np.ndarray, lo: int, rows: np.ndarray, bounds: np.ndarray,
             margin: float):
        """Log the rows of a block of squared-distance bounds ``s``, from
        queries lo, lo + 1, ... to the block rows ``rows`` (one a column),
        class by class: class c holds columns bounds[c]:bounds[c + 1].

        Each entry of ``s`` lies within ``margin`` of its squared distance
        (an entry set to +inf is never logged).  A row is logged only if
        its bound minus the margin reaches both U and the k-th bound of its
        class slice plus the margin: a row that fails either is farther
        than k rows are.  The slice's k smallest bounds (+inf past its
        width) plus the margin then join ``ub``.
        """
        q, k = s.shape[0], self.k
        n_queries = self.ub.shape[1]
        for c in np.flatnonzero(np.diff(bounds)):
            sc = s[:, bounds[c]:bounds[c + 1]]
            ub = self.ub[c, lo:lo + q]
            low = _k_smallest(sc, k)
            limit = np.minimum(ub[:, k - 1] + margin, _reach(low[:, -1], margin))
            qi, j = np.divmod(np.flatnonzero(sc <= _at_least(limit, sc.dtype)[:, None]),
                              sc.shape[1])
            np.add(low, margin, out=ub[:, k:], dtype=np.float64)
            ub.sort(axis=1)
            sj = sc[qi, j]
            self.log.append((qi + (c * n_queries + lo), rows[bounds[c] + j], sj, margin))
            self.log_bytes += 16 * qi.size + sj.nbytes
            if self.log_bytes > _PAIR_BYTES:
                self.flush()

    def flush(self):
        """Measure the logged rows whose bound minus its margin reaches U,
        and merge them into the lists of the (class, query) pairs they
        belong to."""
        if not self.log:
            return
        key, j, s = (np.concatenate(a) for a in zip(*(e[:3] for e in self.log)))
        margin = np.repeat([e[3] for e in self.log], [e[0].size for e in self.log])
        self.log, self.log_bytes = [], 0
        rows, dist = (a.reshape(-1, self.k) for a in (self.rows, self.dist))
        u = self.ub.reshape(rows.shape[0], -1)[key, self.k - 1]
        keep = s <= _at_least(u + margin, s.dtype)
        key, j, s = key[keep], j[keep], s[keep]
        if key.size == 0:
            return
        near = self.measure(key % self.rows.shape[1], j, s)
        self.measured += near.size
        order = np.argsort(key, kind="stable")
        key, j, near = key[order], j[order], near[order]
        span = slice(key[0], key[-1] + 1)
        rows[span], dist[span] = _keep_k(*_append((rows[span], dist[span]), key - key[0],
                                                  (j, near)), self.k)


def _search_block(stored, start: int, end: int, Q, space: FeatureSpace,
                  labels: np.ndarray, n_classes: int, k: int, own=None):
    """Top-k per class of every query among the stored rows start:end, as
    (query, class, k) arrays (rows, dist) with row ids counted from
    ``start``, and the number of distances measured exactly.  ``Q`` holds
    the queries on the z-scale, ``labels`` the class of each row start:end
    and ``own``, if given, each query's own row (counted from ``start``),
    which never enters its lists.  The selector's partitions and the k-NN
    classifier both search through here."""
    if isinstance(stored, SparseRows):
        steps, measure = _sparse_steps, _square_roots
    else:
        steps, measure = _dense_steps, partial(_dense_measure, stored, start, Q, space)
    lists = _Lists(len(Q), n_classes, k, measure)
    for step in steps(stored, start, end, Q, space, labels, n_classes, own):
        lists.step(*step)
    lists.flush()
    lists.rows[np.isinf(lists.dist)] = -1
    return lists.rows.transpose(1, 0, 2), lists.dist.transpose(1, 0, 2), lists.measured


def _search_partition(pdata: PartitionedDataset, g: int, batch: SampleBatch,
                      k: int, space: FeatureSpace):
    """Local top-k per class for every sampled instance, as the (rows,
    dist) arrays of a ``NeighborTable``, and the number of distances
    measured exactly."""
    ds = pdata.dataset
    start = int(pdata.starts[g])
    end = int(pdata.starts[g + 1])
    rows, dist, measured = _search_block(ds.rows, start, end, batch.rows, space,
                                         ds.labels[start:end], ds.n_classes, k,
                                         own=batch.indices - start)
    rows[rows >= 0] += start
    return rows, dist, measured


def _square_roots(qi: np.ndarray, j: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The sparse search's measure: its bounds are the exact squares."""
    return np.sqrt(s)


def _sparse_steps(stored: SparseRows, start: int, end: int, Q: SparseRows,
                  space: FeatureSpace, labels: np.ndarray, n_classes: int, own):
    """Squared distances from query chunks to row tiles of the partition
    (``_DENSE_TILE_BYTES`` of squares, at least one row), in class order, as
    ``_Lists.step`` arguments: the squares are their own bounds, with the
    ``_SQRT_TIES`` margin, and their roots the distances (``_square_roots``);
    a query's square to its ``own`` row is +inf."""
    block = space.scaled(stored[start:end])
    block_sq = _row_sums(block.data * block.data, block.indptr)
    chunk = max(1, min(_QUERY_CHUNK, _TILE_BYTES // (8 * max(space.n_features, 1))))
    height = max(1, _DENSE_TILE_BYTES // (8 * chunk))
    tiles = [(first, block[first:first + height], block_sq[first:first + height],
              *_class_order(labels[first:first + height], n_classes))
             for first in range(0, end - start, height)]
    for lo in range(0, len(Q), chunk):
        for first, tile, tile_sq, order, at, bounds in tiles:
            sq = np.take(_sparse_distances(Q[lo:lo + chunk], tile, tile_sq, space.n_features),
                         order, axis=1)
            margin = _SQRT_TIES * float(sq.max(initial=0.0))
            if own is not None:
                mine = np.flatnonzero((own[lo:lo + chunk] >= first)
                                      & (own[lo:lo + chunk] < first + at.size))
                sq[mine, at[own[lo + mine] - first]] = np.inf
            yield sq, lo, first + order, bounds, margin


def _dense_steps(stored: np.ndarray, start: int, end: int, Q: np.ndarray,
                 space: FeatureSpace, labels: np.ndarray, n_classes: int, own):
    """Bounds on the squared distances from the queries to the partition, a
    row tile at a time, as ``_Lists.step`` arguments.

    Tiles are consecutive row ranges (``_tile_height``) in the outer loop,
    so each is read once per batch: z-scored in blocks of ``_PAIR_BYTES``
    and written in class order into float32 augmented rows [b, 1,
    ||b||^2], with the squared norms summed in float64.  The queries are
    spread evenly over the fewest groups whose float32 bounds to a tile fit
    ``_DENSE_TILE_BYTES``, with ``_QUERY_CHUNK`` queries a group allowed
    whatever the budget, so each tile is filtered in as few steps as the
    budget allows (one for 500 queries against a 1048-row tile of 500
    features).  The bounds S are one float32 matmul of the augmented rows
    [-2q, ||q||^2, 1] and [b, 1, ||b||^2] (two columns wide when every
    feature is nominal) plus the nominal mismatch count, and each lies
    within the margin (``_margin_rate``) of its squared distance.  Queries
    or a tile with a squared norm above ``_NORM_CAP`` get no bound: S is 0
    and the margin +inf (for such queries no tile is read at all); a
    query's bound to its ``own`` row is +inf.  The buffers are allocated
    once and reused; a step's bounds are only valid until the next step.
    """
    n_samples = Q.shape[0]
    height = _tile_height(end - start, space.n_features)
    cap = max(_QUERY_CHUNK, _DENSE_TILE_BYTES // (4 * height))
    groups = max(1, -(-n_samples // cap))
    edges = [n_samples * i // groups for i in range(groups + 1)]
    Qn = _numeric_cols(Q, space)
    Qc = None if space.all_numeric else Q[:, space.nominal_idx]
    width = Qn.shape[1] + 2
    rate = _margin_rate(Qn.shape[1])
    q_sq = np.einsum("ij,ij->i", Qn, Qn)
    q_max = float(q_sq.max(initial=0.0))
    bounded = q_max <= _NORM_CAP and rate < math.inf
    if bounded:
        Qa = np.empty((n_samples, width), dtype=np.float32)
        np.multiply(Qn, -2.0, out=Qa[:, :-2], casting="same_kind")
        Qa[:, -2], Qa[:, -1] = q_sq, 1.0
        Ba = np.empty((height, width), dtype=np.float32)
        Ba[:, -2] = 1.0
        b_sq = np.empty(height)
        Bc = None if Qc is None else np.empty((height, Qc.shape[1]))
        block_rows = max(1, min(height, _PAIR_BYTES // (8 * space.n_features)))
        z_buf = None if space.means is None else np.empty(block_rows * space.n_features)
    s_buf = np.empty(-(-n_samples // groups) * height, dtype=np.float32)
    for first in range(0, end - start, height):
        h = min(height, end - start - first)
        order, at, bounds = _class_order(labels[first:first + h], n_classes)
        margin = math.inf
        if bounded:
            for a in range(0, h, block_rows):
                raw = stored[start + first + a:start + first + min(h, a + block_rows)]
                z = space.scaled(raw, out=None if z_buf is None
                                 else z_buf[:raw.size].reshape(raw.shape))
                zn = _numeric_cols(z, space)
                to = at[a:a + len(z)]
                Ba[to, :-2] = zn
                b_sq[to] = np.einsum("ij,ij->i", zn, zn)
                if Bc is not None:
                    Bc[to] = z[:, space.nominal_idx]
            b_max = float(b_sq[:h].max())
            if b_max <= _NORM_CAP:
                margin = (rate * (q_max + b_max + space.nominal_idx.size)
                          + width * _UNDERFLOW)
                Ba[:h, -1] = b_sq[:h]
        for g0, g1 in zip(edges, edges[1:]):
            s = s_buf[:(g1 - g0) * h].reshape(g1 - g0, h)
            if margin < math.inf:
                np.matmul(Qa[g0:g1], Ba[:h].T, out=s)
                if Bc is not None:
                    _add_mismatches(s, Qc[g0:g1], Bc[:h])
            else:
                s.fill(0.0)
            if own is not None:
                mine = np.flatnonzero((own[g0:g1] >= first) & (own[g0:g1] < first + h))
                s[mine, at[own[g0 + mine] - first]] = np.inf
            yield s, g0, first + order, bounds, margin


def _dense_measure(stored: np.ndarray, start: int, Q: np.ndarray, space: FeatureSpace,
                   qi: np.ndarray, j: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact distances (``_pair_distances``) between the queries ``qi`` and
    the stored rows start + ``j``; ``s`` is not read.  The distinct rows
    are gathered in ascending order, a tile's height of them at a time,
    and each is z-scored once."""
    Qn = _numeric_cols(Q, space)
    Qc = None if space.all_numeric else Q[:, space.nominal_idx]
    seen = np.zeros(int(j.max(initial=-1)) + 1, dtype=bool)
    seen[j] = True
    distinct = np.flatnonzero(seen)
    inv = (np.cumsum(seen) - 1)[j]
    height = _tile_height(distinct.size, space.n_features)
    pair_buf = np.empty((2, max(1, min(j.size, _PAIR_BYTES // (8 * (Qn.shape[1] + 2)))),
                         Qn.shape[1]))
    out = np.empty(j.size)
    for a in range(0, distinct.size, height):
        p = (slice(None) if distinct.size <= height
             else np.flatnonzero((inv >= a) & (inv < a + height)))
        block = np.take(stored, start + distinct[a:a + height], axis=0)
        block = space.scaled(block, out=block)
        out[p] = _pair_distances(
            Qn, Qc, _numeric_cols(block, space),
            None if Qc is None else block[:, space.nominal_idx],
            pair_buf, qi[p], inv[p] - a)
    return out


def neighborhood(pdata: PartitionedDataset, batch: SampleBatch, k: int) -> NeighborTable:
    """Global top-k neighbors per class for every instance in the batch.

    Partitions are searched independently and their candidate lists
    concatenated in partition order; one row-wise sort by (distance, row
    id) then keeps the first k, so the merge does not depend on completion
    order.  A sampled instance is never its own neighbor (excluded by
    global row id, so exact duplicates stay eligible); a class with fewer
    than ``k`` candidates leaves padded slots.  A batch whose queries x rows
    x features stay within ``_INLINE_SEARCH`` searches its partitions one
    after another on the calling thread, the rest on the partition pool.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    ds = pdata.dataset
    space = ds.feature_space()
    tiny = len(batch) * ds.n_instances * ds.n_features <= _INLINE_SEARCH
    parts = pdata.map_partitions(
        lambda g: _search_partition(pdata, g, batch, k, space),
        workers=1 if tiny else pdata.n_partitions)
    rows, dist, measured = zip(*parts)
    rows, dist = np.concatenate(rows, axis=-1), np.concatenate(dist, axis=-1)
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
        measured_pairs=sum(measured),
    )
