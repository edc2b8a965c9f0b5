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

from concurrent.futures import ThreadPoolExecutor
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


def pair_diffs(a, b, space: FeatureSpace):
    """Absolute per-feature differences between two instances.

    Dense rows give a dense vector (numeric |a-b|, nominal 0/1 mismatch).
    Sparse rows give (union indices, diffs) with the lazy z-scale applied;
    features outside the union differ by exactly 0.
    """
    a_sparse = not isinstance(a, np.ndarray)
    b_sparse = not isinstance(b, np.ndarray)
    if a_sparse != b_sparse:
        raise DataError("cannot mix sparse and dense rows in one accumulation")
    if a_sparse:
        ia, va = a
        ib, vb = b
        union = np.union1d(ia, ib)
        da = np.zeros(union.size)
        da[np.searchsorted(union, ia)] = va
        db = np.zeros(union.size)
        db[np.searchsorted(union, ib)] = vb
        diffs = np.abs(da - db)
        if space.inv_scale is not None:
            diffs *= space.inv_scale[union]
        return union, diffs
    if a.shape != b.shape:
        raise DataError("dimension mismatch between instances")
    d = np.abs(a - b)
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

    Only locators addressed to partition ``g`` are consumed; the same diff
    vector feeds both the distance matrices and (when enabled) the
    collision tables, so redundancy tracking adds no distance work.  Pair
    rate rows are queued and folded into the collision tables a bounded
    block at a time.
    """
    ds = pdata.dataset
    n = ds.n_features
    stats = ClassDistanceStats.zeros(ds.n_classes, n,
                                     tracked if collect_collisions else ())
    space = ds.feature_space()
    start = int(pdata.starts[g])
    end = int(pdata.starts[g + 1])
    block = ds.rows[start:end]
    pending = RateBlock(stats.collisions) if collect_collisions else None
    for i in range(len(batch)):
        gid = int(batch.indices[i])
        y = int(batch.labels[i])
        try:
            bucketmap = table.buckets[gid]
        except KeyError as exc:
            raise IntegrityError(f"no neighbor bucket for sampled row {gid}") from exc
        srow = batch.row(i)
        for c in sorted(bucketmap):
            local = [l for l in bucketmap[c] if l.partition_index == g]
            if not local:
                continue
            for loc in local:
                if not 0 <= loc.local_index < end - start:
                    raise IntegrityError(
                        f"locator ({g}, {loc.local_index}) outside block of size "
                        f"{end - start}")
            target = stats.hit_dist if c == y else stats.miss_dist
            counts = stats.hit_count if c == y else stats.miss_count
            if ds.is_sparse:
                for loc in local:
                    diffs = pair_diffs(srow, block[loc.local_index], space)
                    idx, vals = diffs
                    np.add.at(target[y], idx, vals)
                    if pending is not None:
                        pending.push(collision_rates(diffs, space, kappa)[None])
            else:
                rows = block[[loc.local_index for loc in local]]
                diffs = np.abs(rows - srow)
                if space.nominal_idx.size:
                    diffs[:, space.nominal_idx] = (
                        rows[:, space.nominal_idx] != srow[space.nominal_idx])
                target[y] += diffs.sum(axis=0)
                if pending is not None:
                    pending.push(collision_rates(diffs, space, kappa))
            counts[y] += len(local)
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
                   collect_collisions: bool = False,
                   threads: int | None = None) -> ClassDistanceStats:
    """Accumulate the whole batch: map over partitions, merge the parts.

    The partial results fold in partition-index order, so repeat runs are
    bit-identical whatever order the threads finish in.
    """
    p = pdata.n_partitions
    job = lambda g: accumulate_partition(
        pdata, g, batch, table, tracked=tracked, kappa=kappa,
        collect_collisions=collect_collisions)
    if p == 1:
        return job(0)
    workers = threads or min(p, 8)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(job, range(p)))
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


def _reference_neighbors(ds: Dataset, space: FeatureSpace, i: int):
    """Distances from instance ``i`` to every other instance, self excluded."""
    dists = np.empty(ds.n_instances)
    row = ds.row(i)
    for j in range(ds.n_instances):
        dists[j] = instance_distance(row, ds.row(j), space)
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
    w = np.zeros(dataset.n_features)
    denom = s * k
    for i in sample_indices:
        y = int(dataset.labels[i])
        dists = _reference_neighbors(dataset, space, i)
        row = dataset.row(i)
        for h in _topk_of_class(dists, dataset.labels, y, k):
            w -= _dense_diffs(row, dataset.row(h), space, dataset.n_features) / denom
        for c in range(dataset.n_classes):
            if c == y:
                continue
            for mss in _topk_of_class(dists, dataset.labels, c, k):
                w += priors[c] * _dense_diffs(
                    row, dataset.row(mss), space, dataset.n_features) / denom
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
    w = np.zeros(dataset.n_features)
    for i in sample_indices:
        y = int(dataset.labels[i])
        dists = _reference_neighbors(dataset, space, i)
        row = dataset.row(i)
        hits = _topk_of_class(dists, dataset.labels, y, 1)
        misses = _topk_of_class(dists, dataset.labels, 1 - y, 1)
        if hits.size:
            w -= _dense_diffs(row, dataset.row(hits[0]), space, dataset.n_features) / s
        if misses.size:
            w += _dense_diffs(row, dataset.row(misses[0]), space, dataset.n_features) / s
    return WeightVector(values=w, method="relief")


def _dense_diffs(a, b, space: FeatureSpace, n_features: int) -> np.ndarray:
    """pair_diffs with sparse results expanded to a dense vector."""
    d = pair_diffs(a, b, space)
    if isinstance(d, tuple):
        idx, vals = d
        out = np.zeros(n_features)
        out[idx] = vals
        return out
    return d
