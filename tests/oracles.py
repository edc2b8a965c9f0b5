"""Brute-force references that the tests compare the package's kernels to.

None of this runs in the selection pipeline.  Each function computes one
quantity the slow, obvious way, one pair or one instance at a time:

* ``ContingencyTable`` and ``mutual_information``: plugin MI of two code
  vectors from their joint counts (oracle of ``baselines._mi_rows``);
* ``relieff_reference`` and ``relief_reference``: the classic
  single-threaded instance-update weighting rules (oracles of the
  distance-accumulation path on shared inputs);
* ``feature_diff`` and ``instance_distance``: one value pair's difference
  and one instance pair's Euclidean distance (oracles of ``pair_diffs`` and
  the neighbor search);
* ``collision_rate``: one value pair's collision rate (oracle of
  ``collision_rates``);
* ``add_pair_rates``, ``add_rate_rows`` and ``pair_mass``: fold rates into
  ``CollisionTables`` one block at a time and read one pair's joint mass;
* ``raw`` and ``normalized``: one pair's value in a ``RedundancyTable``;
* ``sfs_reference``: forward selection that sorts every remaining
  candidate at each pick (oracle of ``sfs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from beliefsel.dataset import Dataset, FeatureKind, FeatureSpace
from beliefsel.errors import DataError
from beliefsel.estimation import WeightVector
from beliefsel.neighbors import pair_diffs
from beliefsel.redundancy import COLLISION_SPAN, CollisionTables, RedundancyTable
from beliefsel.selection import RankingResult, minmax_normalize


# -- mutual information -----------------------------------------------------


@dataclass
class ContingencyTable:
    """Joint counts of two code vectors with their marginals."""

    counts: np.ndarray
    total: int

    @classmethod
    def from_codes(cls, a: np.ndarray, b: np.ndarray) -> "ContingencyTable":
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape or a.ndim != 1:
            raise DataError("code vectors must be 1-D and aligned")
        if a.size == 0:
            raise DataError("empty code vectors")
        if a.min() < 0 or b.min() < 0:
            raise DataError("codes must be nonnegative")
        na = int(a.max()) + 1
        nb = int(b.max()) + 1
        counts = np.zeros((na, nb), dtype=np.int64)
        np.add.at(counts, (a, b), 1)
        return cls(counts=counts, total=a.size)

    def mutual_information(self) -> float:
        """MI in bits from the table's plugin probabilities."""
        p = self.counts / self.total
        pa = p.sum(axis=1)
        pb = p.sum(axis=0)
        total = 0.0
        for i, j in zip(*np.nonzero(self.counts)):
            total += p[i, j] * math.log2(p[i, j] / (pa[i] * pb[j]))
        return total


def mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """MI in bits between two code vectors."""
    return ContingencyTable.from_codes(a, b).mutual_information()


# -- per-feature and per-instance distances ---------------------------------


def feature_diff(a: float, b: float, kind: FeatureKind) -> float:
    """Per-feature difference: |a - b| for numeric, 0/1 mismatch for nominal."""
    if FeatureKind(kind) is FeatureKind.NOMINAL:
        return 0.0 if a == b else 1.0
    return abs(a - b)


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
    if space.inv_scale is not None:  # a sparse dataset's values times 1/sigma
        return row * space.inv_scale
    return space.scaled(row)


# -- single-threaded reference weighting rules -------------------------------


def _reference_inputs(dataset: Dataset, sample_indices):
    """The sample ids (all rows by default), feature space and dense rows on
    the z-scale that the reference rules read."""
    ids = list(range(dataset.n_instances) if sample_indices is None else sample_indices)
    if not ids:
        raise DataError("empty sample")
    space = dataset.feature_space()
    X = space.scaled(dataset.rows)
    return ids, space, X.to_dense(dataset.n_features) if dataset.is_sparse else X


def _reference_neighbors(dataset: Dataset, space: FeatureSpace, i: int):
    """Distances from instance ``i`` to every other instance, self excluded."""
    dists = np.array([instance_distance(dataset.row(i), dataset.row(j), space)
                      for j in range(dataset.n_instances)])
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
    sample_indices, space, X = _reference_inputs(dataset, sample_indices)
    s = len(sample_indices)
    priors = dataset.class_priors()
    w = np.zeros(dataset.n_features)
    denom = s * k
    for i in sample_indices:
        y = int(dataset.labels[i])
        dists = _reference_neighbors(dataset, space, i)
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
    sample_indices, space, X = _reference_inputs(dataset, sample_indices)
    s = len(sample_indices)
    w = np.zeros(dataset.n_features)
    for i in sample_indices:
        y = int(dataset.labels[i])
        dists = _reference_neighbors(dataset, space, i)
        hits = _topk_of_class(dists, dataset.labels, y, 1)
        misses = _topk_of_class(dists, dataset.labels, 1 - y, 1)
        if hits.size:
            w -= pair_diffs(X[i], X[hits[0]], space) / s
        if misses.size:
            w += pair_diffs(X[i], X[misses[0]], space) / s
    return WeightVector(values=w, method="relief")


# -- collision tables and the redundancy table -------------------------------


def collision_rate(a: float, b: float, kind: FeatureKind, kappa: float = 0.8) -> float:
    """Collision rate of one value pair; see the ``redundancy`` docstring."""
    if FeatureKind(kind) is FeatureKind.NOMINAL:
        return 1.0 if a == b else 0.0
    rate = max(0.0, 1.0 - abs(a - b) / COLLISION_SPAN)
    if 0.0 < rate < kappa:
        return 0.0
    return rate


def add_pair_rates(tables: CollisionTables, rates: np.ndarray) -> None:
    """Fold one instance pair's collision-rate vector into the tables."""
    add_rate_rows(tables, np.asarray(rates)[None, :])


def add_rate_rows(tables: CollisionTables, rates: np.ndarray) -> None:
    """Fold one block of collision-rate rows, one row per instance pair."""
    with tables.window_fold() as fold:
        fold(rates)


def pair_mass(tables: CollisionTables, i: int, j: int) -> float:
    """Accumulated joint mass of the unordered pair {i, j}, summed over
    both orientations (a merge may have spread it over the two)."""
    if i == j:
        raise DataError("joint mass is defined for distinct features")
    total = 0.0
    for a, b in ((i, j), (j, i)):
        r = np.searchsorted(tables.tracked, a)
        if r < tables.tracked.size and tables.tracked[r] == a:
            total += tables.joint[r, b]
    return total


def raw(red: RedundancyTable, i: int, j: int) -> float:
    """Raw redundancy value of the pair {i, j}: 0 when neither is tracked."""
    r = red._row_of(i)
    if r is not None:
        return float(red.values[r, j])
    r = red._row_of(j)
    return 0.0 if r is None else float(red.values[r, i])


def normalized(red: RedundancyTable, i: int, j: int) -> float:
    """``raw(red, i, j)`` rescaled through the table's minmax bounds."""
    span = red.hi - red.lo
    if span <= 0.0:
        return 0.0
    return (raw(red, i, j) - red.lo) / span


# -- forward selection -------------------------------------------------------


def sfs_reference(weights: WeightVector, redundancy: RedundancyTable | None,
                  n_select: int, theta: float) -> RankingResult:
    """``sfs``'s picks by a ``lexsort`` of every remaining candidate per
    pick, by score and then index; the penalty grows by the picked
    feature's normalized row after each pick."""
    n = weights.values.shape[0]
    wn = minmax_normalize(weights.values)
    penalize = theta != 0.0 and redundancy is not None
    penalty = np.zeros(n)
    remaining = np.ones(n, dtype=bool)
    picks = []
    for _ in range(n_select):
        scores = wn - theta * penalty if penalize else wn
        cand = np.flatnonzero(remaining)
        best = int(cand[np.lexsort((cand, -scores[cand]))[0]])
        picks.append((best, wn[best], penalty[best], scores[best]))
        remaining[best] = False
        if penalize:
            penalty += redundancy.normalized_row(best)
    features, normalized, penalties, scores = (np.array(c) for c in zip(*picks))
    return RankingResult(features, normalized, penalties, scores, weights)
