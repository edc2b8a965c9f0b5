"""Discrete mutual information and a greedy min-redundancy baseline ranker.

The baseline scores features by MI with the class label (in bits, plugin
estimate) and selects greedily by the difference criterion: relevance minus
the mean pairwise MI with the features already selected.  Numeric features
are discretized into equal-width bins first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .selection import RankingResult, SelectedFeature
from .estimation import WeightVector

__all__ = [
    "ContingencyTable",
    "mutual_information",
    "discretize_equal_width",
    "mrmr_select",
]

# Byte budget of the block of float columns mrmr discretizes at a time.
_COLUMN_BLOCK_BYTES = 1 << 22


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


def discretize_equal_width(values: np.ndarray, bins: int = 10) -> np.ndarray:
    """Equal-width bin codes; boundary values land in the upper bin.

    A constant vector maps to a single bin.
    """
    if bins < 1:
        raise DataError(f"bin count must be >= 1, got {bins}")
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros(values.shape, dtype=np.int64)
    width = (hi - lo) / bins
    codes = np.floor((values - lo) / width).astype(np.int64)
    return np.minimum(codes, bins - 1)


def _feature_codes(col: np.ndarray, numeric: bool, bins: int) -> np.ndarray:
    """Bin codes of a numeric column in the smallest unsigned type that
    holds ``bins - 1`` (one byte at 10 bins); a nominal column's codes as
    int64, so a negative one still reaches ``ContingencyTable``'s check."""
    if numeric:
        return discretize_equal_width(col, bins).astype(np.min_scalar_type(bins - 1))
    return col.astype(np.int64)


def mrmr_select(dataset: Dataset, n_select: int, bins: int = 10) -> RankingResult:
    """Greedy difference-criterion selection over discretized features.

    The first pick maximizes MI with the label; every later pick maximizes
    MI(feature; label) minus the mean MI with the already selected set.
    Ties break toward the lower feature index, so the procedure is fully
    deterministic.
    """
    n = dataset.n_features
    if not 1 <= n_select <= n:
        raise DataError(f"selection size {n_select} not in 1..{n}")
    # Columns are read a block at a time, so the float values never sit
    # next to all the codes at once.
    width = max(1, _COLUMN_BLOCK_BYTES // (8 * max(dataset.n_instances, 1)))
    codes = [_feature_codes(col, numeric, bins)
             for a in range(0, n, width)
             for col, numeric in zip(dataset.columns(range(a, min(a + width, n))),
                                     dataset.numeric[a:a + width])]
    labels = dataset.labels
    relevance = np.array([mutual_information(codes[j], labels) for j in range(n)])

    # total[i] is the running sum of MI(i, j) over the selected features j,
    # added one pick at a time in pick order.
    total = np.zeros(n)
    selected: list[SelectedFeature] = []
    remaining = np.ones(n, dtype=bool)
    for _ in range(n_select):
        cand = np.flatnonzero(remaining)
        red = total[cand] / len(selected) if selected else np.zeros(cand.size)
        scores = relevance[cand] - red
        pick = int(cand[np.lexsort((cand, -scores))[0]])
        pos = int(np.flatnonzero(cand == pick)[0])
        selected.append(SelectedFeature(
            feature=pick,
            weight=float(relevance[pick]),
            normalized_weight=float(relevance[pick]),
            penalty=float(red[pos]),
            score=float(scores[pos]),
        ))
        remaining[pick] = False
        if len(selected) < n_select:
            for i in np.flatnonzero(remaining).tolist():
                total[i] += mutual_information(codes[min(i, pick)], codes[max(i, pick)])
    weights = WeightVector(values=relevance, method="mrmr")
    return RankingResult(selected=selected, weights=weights,
                         metadata={"bins": bins})
