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

``relieff_reference`` and ``relief_reference`` implement the classic
single-threaded instance-update weighting rules; they serve as oracles for
the distance-accumulation path on shared inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, FeatureSpace, PartitionedDataset, SampleBatch
from .errors import DataError, IntegrityError
from .neighbors import NeighborTable, instance_distance
from .redundancy import CollisionTables, RateBlock, collision_rates

__all__ = [
    "WeightVector",
    "ClassDistanceStats",
    "pair_diffs",
    "accumulate_partition",
    "estimate_batch",
    "merge_stats",
    "belief_weights",
    "relieff_reference",
    "relief_reference",
]


# The dense accumulation pass gathers a chunk of samples into a zero-padded
# (samples, classes, k, features) diff block of at most this many bytes (at
# least one sample), so its memory stays flat whatever the batch size.  On a
# 75 x 500, three-class run, 128 KiB kept peak RSS within 1 MB of a
# pair-at-a-time loop; 256 KiB made it swing by 4 MB from run to run.
_GATHER_BYTES = 1 << 17


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
        return [
            {"feature": int(j), "weight": float(self.values[j])}
            for j in self.ranking()
        ]


def pair_diffs(a: np.ndarray, b: np.ndarray, space: FeatureSpace) -> np.ndarray:
    """Absolute per-feature differences between two dense rows.

    Numeric features give |a - b|, scaled by ``space.inv_scale`` when it is
    set (the rows are then raw values of lazily normalized sparse data);
    nominal features give a 0/1 mismatch.
    """
    if a.shape != b.shape:
        raise DataError("dimension mismatch between instances")
    d = np.abs(a - b)
    if space.inv_scale is not None:
        d *= space.inv_scale
    if space.nominal_idx.size:
        d[space.nominal_idx] = (
            a[space.nominal_idx] != b[space.nominal_idx]).astype(np.float64)
    return d


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
                         table: NeighborTable, tracked=(), kappa: float = 0.8,
                         collect_collisions: bool = False) -> ClassDistanceStats:
    """Fold one partition's share of the batch's neighbor pairs into stats.

    Only neighbors whose rows lie in partition ``g`` are consumed; the same
    diff vector feeds both the distance matrices and (when enabled) the
    collision tables, so redundancy tracking adds no distance work.  Pair
    rate rows are queued and folded into the collision tables a bounded
    block at a time, in (sample, class, slot) order.
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
    stats = ClassDistanceStats.zeros(C, n, tracked if collect_collisions else ())
    space = ds.feature_space()
    start = int(pdata.starts[g])
    end = int(pdata.starts[g + 1])
    pending = RateBlock(stats.collisions) if collect_collisions else None
    y = batch.labels
    mine = (rows >= start) & (rows < end)
    per_group = np.count_nonzero(mine, axis=2)
    hits = per_group[np.arange(s), y]
    stats.hit_count += np.bincount(y, weights=hits, minlength=C)
    stats.miss_count += np.bincount(y, weights=per_group.sum(axis=1) - hits,
                                    minlength=C)
    step = max(1, _GATHER_BYTES // (C * k * n * 8))
    for lo in range(0, s, step):
        hi = min(lo + step, s)
        i, c, j = np.nonzero(mine[lo:hi])
        nbrs = ds.rows[rows[lo + i, c, j]]
        own = batch.rows[lo + i]
        if ds.is_sparse:  # within the budget of the padded block below
            nbrs, own = nbrs.to_dense(n), own.to_dense(n)
        diffs = nbrs - own
        np.abs(diffs, out=diffs)
        if space.inv_scale is not None:
            diffs *= space.inv_scale
        if space.nominal_idx.size:
            nom = space.nominal_idx
            diffs[:, nom] = nbrs[:, nom] != own[:, nom]
        if pending is not None:
            pending.push(collision_rates(diffs, space, kappa))
        # Each (sample, class) group sums its slots one add at a time,
        # other partitions' slots being zero, then the groups fold into
        # their class row in (sample, class) order: the same float
        # additions, in the same order, as one pair at a time.
        padded = np.zeros((hi - lo, C, k, n))
        padded[i, c, j] = diffs
        sums = padded[:, :, 0].copy()
        for slot in range(1, k):
            sums += padded[:, :, slot]
        ys = y[lo:hi]
        hit = np.arange(C) == ys[:, None]
        np.add.at(stats.hit_dist, ys, sums[hit])
        np.add.at(stats.miss_dist, np.repeat(ys, C - 1), sums[~hit])
    if pending is not None:
        pending.flush()
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
                   table: NeighborTable, tracked=(), kappa: float = 0.8,
                   collect_collisions: bool = False) -> ClassDistanceStats:
    """Accumulate the whole batch: map over partitions, merge the parts.

    The partial results fold in partition-index order, so repeat runs are
    bit-identical whatever order the threads finish in.
    """
    parts = pdata.map_partitions(lambda g: accumulate_partition(
        pdata, g, batch, table, tracked=tracked, kappa=kappa,
        collect_collisions=collect_collisions))
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


# -- single-threaded reference rules ---------------------------------------


def _reference_neighbors(X: np.ndarray, space: FeatureSpace, i: int):
    """Distances from instance ``i`` to every other instance, self excluded."""
    dists = np.array([instance_distance(X[i], x, space) for x in X])
    dists[i] = np.inf
    return dists


def _topk_of_class(dists, labels, c, k):
    members = np.flatnonzero(labels == c)
    finite = members[np.isfinite(dists[members])]
    order = np.lexsort((finite, dists[finite]))
    return finite[order[:k]]


def relieff_reference(dataset: Dataset, sample_indices=None, k: int = 3) -> WeightVector:
    """Multi-class k-neighbor instance-update weighting (reference oracle).

    For each sampled instance: subtract the diffs to its k nearest hits,
    add the prior-weighted diffs to the k nearest misses of every other
    class, everything divided by (sample size * k).  Short neighbor lists
    contribute fewer terms; the divisor stays (s * k).
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if sample_indices is None:
        sample_indices = range(dataset.n_instances)
    sample_indices = list(sample_indices)
    s = len(sample_indices)
    if s == 0:
        raise DataError("empty sample")
    space = dataset.feature_space()
    priors = dataset.class_priors()
    X = dataset.rows.to_dense(dataset.n_features) if dataset.is_sparse else dataset.rows
    w = np.zeros(dataset.n_features)
    denom = s * k
    for i in sample_indices:
        y = int(dataset.labels[i])
        dists = _reference_neighbors(X, space, i)
        for h in _topk_of_class(dists, dataset.labels, y, k):
            w -= pair_diffs(X[i], X[h], space) / denom
        for c in range(dataset.n_classes):
            if c == y:
                continue
            for mss in _topk_of_class(dists, dataset.labels, c, k):
                w += priors[c] * pair_diffs(X[i], X[mss], space) / denom
    return WeightVector(values=w, method="relieff")


def relief_reference(dataset: Dataset, sample_indices=None) -> WeightVector:
    """Binary single-neighbor instance-update weighting (reference oracle)."""
    if dataset.n_classes != 2:
        raise DataError("this rule is defined for binary problems")
    if sample_indices is None:
        sample_indices = range(dataset.n_instances)
    sample_indices = list(sample_indices)
    s = len(sample_indices)
    if s == 0:
        raise DataError("empty sample")
    space = dataset.feature_space()
    X = dataset.rows.to_dense(dataset.n_features) if dataset.is_sparse else dataset.rows
    w = np.zeros(dataset.n_features)
    for i in sample_indices:
        y = int(dataset.labels[i])
        dists = _reference_neighbors(X, space, i)
        hits = _topk_of_class(dists, dataset.labels, y, 1)
        misses = _topk_of_class(dists, dataset.labels, 1 - y, 1)
        if hits.size:
            w -= pair_diffs(X[i], X[hits[0]], space) / s
        if misses.size:
            w += pair_diffs(X[i], X[misses[0]], space) / s
    return WeightVector(values=w, method="relief")

