"""Discrete mutual information and a greedy min-redundancy baseline ranker.

The baseline scores features by MI with the class label (in bits, plugin
estimate) and selects greedily by the difference criterion: relevance minus
the mean pairwise MI with the features already selected.  Numeric features
are discretized into equal-width bins first.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .selection import RankingResult
from .estimation import WeightVector

__all__ = [
    "discretize_equal_width",
    "mrmr_select",
]

# Byte budget of the block of float columns mrmr discretizes at a time, and
# of each MI block's int64 cell ids and of its features x A x B table cells.
_COLUMN_BLOCK_BYTES = 1 << 22


def _mi_rows(codes: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MI in bits of each row of a (features, m) block of codes with ``b``.

    Row f's code a meets code b_i at cell (f * A + a) * B + b_i of one
    ``np.bincount``, with A and B the block's and ``b``'s largest code + 1.
    Each row's plugin terms, taken where the count is > 0, are summed one
    at a time in row-major (a, b) order.  Memory is the int64 cell ids,
    then one (features, A, B) table of 8-byte cells, which holds the
    counts, then the plugin probabilities, then the terms and their
    running sums, plus temporaries of at most ``_COLUMN_BLOCK_BYTES`` and
    of the nonzero cells.
    """
    if codes.ndim != 2 or b.ndim != 1 or codes.shape[1] != b.size:
        raise DataError("codes must be a (features, m) block aligned with 1-D b")
    if b.size == 0:
        raise DataError("empty code vectors")
    if codes.min() < 0 or b.min() < 0:
        raise DataError("codes must be nonnegative")
    F, m = codes.shape
    A = int(codes.max()) + 1
    B = int(b.max()) + 1
    ids = np.empty((F, m), dtype=np.int64)
    np.multiply(np.arange(F, dtype=np.int64)[:, None], A, out=ids)
    ids += codes
    ids *= B
    ids += b
    counts = np.bincount(ids.reshape(-1), minlength=F * A * B)
    del ids
    cells = np.flatnonzero(counts)
    p = counts.view(np.float64)  # each count turns into count / m in place
    step = max(1, _COLUMN_BLOCK_BYTES // 8)
    for lo in range(0, p.size, step):
        p[lo:lo + step] = counts[lo:lo + step] / m
    del counts
    p = p.reshape(F, A, B)
    pa = p.sum(axis=2).reshape(-1)
    pb = p.sum(axis=1).reshape(-1)
    terms = p.reshape(F, A * B)  # 0.0 wherever the count is 0
    pn = terms.reshape(-1)[cells]
    q = pa[cells // B]
    q *= pb[cells // (A * B) * B + cells % B]
    np.divide(pn, q, out=q)
    np.log2(q, out=q)
    q *= pn
    terms.reshape(-1)[cells] = q
    return np.cumsum(terms, axis=1, out=terms)[:, -1].copy()


def _mi_with(codes: list[np.ndarray], top: np.ndarray, features: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """``_mi_rows`` of the listed features against ``b``, in consecutive
    blocks of at most ``_COLUMN_BLOCK_BYTES`` of cell ids and of table
    cells, at least one feature each; ``top[j]`` is feature j's largest
    code."""
    cap = _COLUMN_BLOCK_BYTES // 8
    B = int(b.max()) + 1
    out = np.empty(features.size)
    lo = 0
    while lo < features.size:
        # A block's table has (its features) x (its largest code + 1) x B
        # cells, which grows with every feature taken.
        reach = np.maximum.accumulate(top[features[lo:lo + max(1, cap // b.size)]] + 1)
        cells = np.arange(1, reach.size + 1) * reach * B
        hi = lo + max(1, int(np.count_nonzero(cells <= cap)))
        out[lo:hi] = _mi_rows(np.stack([codes[j] for j in features[lo:hi]]), b)
        lo = hi
    return out


def discretize_equal_width(values: np.ndarray, bins: int = 10) -> np.ndarray:
    """Equal-width bin codes; boundary values land in the upper bin.

    A constant vector maps to a single bin, and so does one whose range is
    too narrow to split (``span / bins`` underflows to 0, as for
    ``[0.0, 5e-324]`` at 10 bins).  An empty vector, a NaN or infinite
    value, and a range wider than float64 holds raise ``DataError``.
    """
    if bins < 1:
        raise DataError(f"bin count must be >= 1, got {bins}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot discretize an empty vector")
    lo = values.min()
    hi = values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataError("cannot discretize a non-finite value")
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span):
        raise DataError(f"value range {lo:.6g} to {hi:.6g} overflows float64")
    width = span / bins
    if width == 0.0:
        return np.zeros(values.shape, dtype=np.int64)
    codes = np.floor((values - lo) / width).astype(np.int64)
    return np.minimum(codes, bins - 1)


def _feature_codes(col: np.ndarray, numeric: bool, bins: int) -> np.ndarray:
    """Bin codes of a numeric column in the smallest unsigned type that
    holds ``bins - 1`` (one byte at 10 bins); a nominal column's codes as
    int64, so a negative one still reaches ``_mi_rows``'s check."""
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
    m = dataset.n_instances
    if not 1 <= n_select <= n:
        raise DataError(f"selection size {n_select} not in 1..{n}")
    if m == 0:
        raise DataError("mrmr needs at least one instance")
    # Columns are read a block at a time, so the float values never sit
    # next to all the codes at once.
    width = max(1, _COLUMN_BLOCK_BYTES // (8 * m))
    codes = []
    for a in range(0, n, width):
        cols = dataset.columns(range(a, min(a + width, n)))
        # NaN, an infinity or an overflowing range: a non-finite spread.
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.flatnonzero(~np.isfinite(cols.max(axis=1) - cols.min(axis=1)))
        if bad.size:
            col = cols[bad[0]]
            what = ("a non-finite value" if not np.isfinite(col).all()
                    else f"values from {col.min():.6g} to {col.max():.6g}, "
                         f"whose range overflows float64")
            raise DataError(f"feature {a + int(bad[0])} holds {what}")
        codes += [_feature_codes(col, numeric, bins)
                  for col, numeric in zip(cols, dataset.numeric[a:a + width])]
        del cols
    top = np.array([c.max() for c in codes], dtype=np.int64)
    relevance = _mi_with(codes, top, np.arange(n), dataset.labels)

    # total[i] is the running sum of MI(i, j) over the selected features j,
    # added one pick at a time in pick order.  Each pick is the first
    # maximum of the scores, picked features at -inf.
    total = np.zeros(n)
    picks = np.empty(n_select, dtype=np.int64)
    penalties, scores = np.empty(n_select), np.empty(n_select)
    remaining = np.ones(n, dtype=bool)
    for s in range(n_select):
        penalty = total / s if s else total  # zeros before the first pick
        score = np.where(remaining, relevance - penalty, -np.inf)
        best = int(np.argmax(score))
        picks[s], penalties[s], scores[s] = best, penalty[best], score[best]
        remaining[best] = False
        if s + 1 < n_select:
            rest = np.flatnonzero(remaining)
            total[rest] += _mi_with(codes, top, rest, codes[best])
    weights = WeightVector(values=relevance, method="mrmr")
    return RankingResult(picks, relevance[picks], penalties, scores, weights,
                         metadata={"bins": bins})
