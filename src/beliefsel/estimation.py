"""Per-class distance accumulation and feature weighting.

For every sampled instance, the per-feature differences to its near-hits
(neighbors of its own class) and near-misses (neighbors of every other
class) are accumulated into per-class matrices indexed by the *sampled*
instance's class, together with the neighbor counts behind them.  The
weight of feature j is then

    sum_c P(c) * miss_dist[c, j] / miss_count[c]
  - sum_c P(c) * hit_dist[c, j] / hit_count[c]

with P(c) the class priors over the full dataset and zero-count classes
contributing nothing.  Accumulation is partition-local (each partition
touches only its own block) and the partial matrices merge by entrywise
addition, so the totals do not depend on the partition or batch layout.

Collision rates fold for the window the caller passes as ``tracked`` (None
folds none); choosing that window is the selection pipeline's rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PartitionedDataset, SampleBatch
from .errors import IntegrityError
from .neighbors import NeighborTable, pair_diffs
from .redundancy import CollisionTables, collision_rates

__all__ = [
    "WeightVector",
    "ClassDistanceStats",
    "pair_diffs",
    "accumulate_partition",
    "estimate_batch",
    "merge_stats",
    "belief_weights",
]


# The accumulation pass gathers, diffs and (given a window) folds a
# partition's neighbor pairs in consecutive chunks of at most this many
# bytes of (pairs, features) rows, at least one pair, so memory stays flat
# whatever the batch size.  With the window-ordered collision fold, CPU per
# selection over budgets of 256 KiB, 512 KiB, 1, 2 and 4 MiB (2-vCPU Xeon,
# 2 MiB of L2 per core, BLAS on one thread) was 106/89/73/79/76 ms on the
# 500-feature wide-collide benchmark, 683/473/482/548/679 ms on full sd3
# (4060 features) and 1320/872/740/768/766 ms on madelon at a 25% sample.
# Chunks this large also keep the number of numpy calls per partition low:
# on a 2-vCPU Xeon, 128 KiB chunks of 5 samples (~15 pairs) made the two
# partition threads of a 10,000 x 500 run hand the GIL back and forth, so
# estimation took 41-56 ms where the same partitions took 27 ms one after
# the other.
_CHUNK_BYTES = 1 << 20


@dataclass
class WeightVector:
    """Per-feature weights plus the name of the method that produced them."""

    values: np.ndarray
    method: str

    def ranking(self) -> np.ndarray:
        """Feature indices by descending weight, ties toward the lower index."""
        n = self.values.shape[0]
        return np.lexsort((np.arange(n), -self.values))

    def to_json_obj(self) -> list[dict]:
        order = self.ranking()
        return [{"feature": j, "weight": w}
                for j, w in zip(order.tolist(), self.values[order].tolist())]


@dataclass
class ClassDistanceStats:
    """Accumulated per-class diff matrices and neighbor counts.

    Rows are indexed by the sampled instance's class: ``miss_dist[c, j]``
    sums the feature-j differences from class-c samples to their
    near-misses, ``hit_dist`` likewise for near-hits, and the count vectors
    hold how many neighbor pairs fed each row.
    """

    miss_dist: np.ndarray
    hit_dist: np.ndarray
    miss_count: np.ndarray
    hit_count: np.ndarray
    collisions: CollisionTables

    @classmethod
    def zeros(cls, n_classes: int, n_features: int, tracked=()) -> "ClassDistanceStats":
        return cls(
            miss_dist=np.zeros((n_classes, n_features)),
            hit_dist=np.zeros((n_classes, n_features)),
            miss_count=np.zeros(n_classes),
            hit_count=np.zeros(n_classes),
            collisions=CollisionTables.empty(n_features, tracked),
        )


def accumulate_partition(pdata: PartitionedDataset, g: int, batch: SampleBatch,
                         table: NeighborTable, tracked=None, kappa: float = 0.8,
                         weigh: bool = True) -> ClassDistanceStats:
    """Fold one partition's share of the batch's neighbor pairs into stats.

    Only neighbors whose rows lie in partition ``g`` are consumed; the same
    diff vector feeds both the distance matrices and, unless ``tracked`` is
    None, the collision tables for that window, so redundancy tracking adds
    no distance work.  The pairs go through in (sample, class, slot) order,
    in the fewest chunks of at most ``_CHUNK_BYTES`` of rows, with sizes
    that differ by at most one pair; each chunk's collision rates fold into
    the tables as one block, and the tables leave window order once, when
    the partition is done.  With ``weigh`` off the distance matrices and
    counts stay 0 (a collision-only pass).

    Each chunk's gather of neighbor rows becomes its diffs and then its
    rates in place, and is dropped before the next gather, so beside the
    tables a call holds at most two chunk-sized arrays while it weighs
    (the gather and the chunk's own rows, one per pair) and three while it
    folds (the rates, their window-ordered copy and one row of minimums).
    """
    ds = pdata.dataset
    n = ds.n_features
    C = ds.n_classes
    k = table.k
    s = len(batch)
    rows = table.rows
    if rows.shape != (s, C, k) or table.dist.shape != rows.shape:
        raise IntegrityError(
            f"neighbor table of shape {rows.shape} does not match {s} samples "
            f"x {C} classes x k={k}")
    outside = (rows < -1) | (rows >= ds.n_instances)
    if outside.any():
        raise IntegrityError(f"neighbor row {int(rows[outside][0])} outside "
                             f"the {ds.n_instances} rows")
    stats = ClassDistanceStats.zeros(C, n, () if tracked is None else tracked)
    space = ds.feature_space()
    start = int(pdata.starts[g])
    end = int(pdata.starts[g + 1])
    i, c, j = np.nonzero((rows >= start) & (rows < end))
    # Each run of one (sample, class) sums its diffs one add at a time,
    # then folds into its class row: the same float additions, in the same
    # order, as one pair at a time.  A run that straddles a chunk boundary
    # carries its partial sum into the next chunk.
    heads = np.flatnonzero(np.diff(i * C + c, prepend=-1))
    bounds = heads.tolist() + [i.size]  # run r is pairs bounds[r]:bounds[r + 1]
    ys = batch.labels[i[heads]]
    hits, ys = (c[heads] == ys).tolist(), ys.tolist()
    run = 0
    # The fewest chunks within budget, with the pairs spread evenly over
    # them, so no chunk is a short tail.
    chunks = -(-i.size // max(1, _CHUNK_BYTES // (8 * n)))
    edges = [i.size * q // max(chunks, 1) for q in range(chunks + 1)]
    with stats.collisions.window_fold() as fold:
        for lo, hi in zip(edges[:-1], edges[1:]):
            ci = i[lo:hi]
            nbrs = ds.rows[rows[ci, c[lo:hi], j[lo:hi]]]
            nbrs = space.scaled(nbrs, out=nbrs)  # in place when dense
            own = batch.rows[ci]  # already scaled
            if ds.is_sparse:  # within the chunk budget
                nbrs, own = nbrs.to_dense(n), own.to_dense(n)
            diffs = pair_diffs(nbrs, own, space, out=nbrs)
            del nbrs, own
            a = lo if weigh else hi  # a collision-only pass skips the walk
            while a < hi:
                head, tail = bounds[run], bounds[run + 1]
                if a == head:
                    group = diffs[a - lo].copy()
                    a += 1
                for r in range(a, min(tail, hi)):
                    group += diffs[r - lo]
                a = min(tail, hi)
                if a == tail:
                    hit, y = hits[run], ys[run]
                    (stats.hit_dist if hit else stats.miss_dist)[y] += group
                    (stats.hit_count if hit else stats.miss_count)[y] += tail - head
                    run += 1
            if tracked is not None:
                fold(collision_rates(diffs, space, kappa, out=diffs))
            del diffs  # before the next chunk's gather
    return stats


def merge_stats(a: ClassDistanceStats, b: ClassDistanceStats) -> ClassDistanceStats:
    """Entrywise sum of two partial accumulations."""
    if a.miss_dist.shape != b.miss_dist.shape:
        raise IntegrityError("cannot merge stats with different shapes")
    return ClassDistanceStats(
        miss_dist=a.miss_dist + b.miss_dist,
        hit_dist=a.hit_dist + b.hit_dist,
        miss_count=a.miss_count + b.miss_count,
        hit_count=a.hit_count + b.hit_count,
        collisions=a.collisions.merge(b.collisions),
    )


def estimate_batch(pdata: PartitionedDataset, batch: SampleBatch,
                   table: NeighborTable, tracked=None, kappa: float = 0.8,
                   weigh: bool = True) -> ClassDistanceStats:
    """Accumulate the whole batch: map over partitions, merge the parts.

    The partial results fold in partition-index order, so repeat runs are
    bit-identical whatever order the threads finish in.  ``tracked``,
    ``kappa`` and ``weigh`` go to every ``accumulate_partition`` call.
    """
    parts = pdata.map_partitions(lambda g: accumulate_partition(
        pdata, g, batch, table, tracked=tracked, kappa=kappa, weigh=weigh))
    total = parts[0]
    for part in parts[1:]:
        total = merge_stats(total, part)
    return total


def belief_weights(stats: ClassDistanceStats, priors: np.ndarray) -> WeightVector:
    """Feature weights from accumulated stats; see the module docstring."""
    if np.any(stats.miss_count < 0) or np.any(stats.hit_count < 0):
        raise IntegrityError("negative neighbor counts")
    if priors.shape[0] != stats.miss_dist.shape[0]:
        raise IntegrityError("priors do not match the class count")
    miss = np.zeros_like(stats.miss_dist)
    np.divide(stats.miss_dist, stats.miss_count[:, None], out=miss,
              where=stats.miss_count[:, None] > 0)
    hit = np.zeros_like(stats.hit_dist)
    np.divide(stats.hit_dist, stats.hit_count[:, None], out=hit,
              where=stats.hit_count[:, None] > 0)
    values = priors @ miss - priors @ hit
    return WeightVector(values=values, method="belief")

