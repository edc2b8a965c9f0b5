"""Dataset ingestion, normalization, partitioning, and sampling.

Responsibilities:
    * parse LibSVM (sparse) and headed CSV (dense) files into a Dataset,
    * z-score numeric features with population statistics,
    * split a Dataset into balanced contiguous partitions,
    * draw a uniform sample without replacement and cut it into batches.

Values of nominal features are stored as integer codes (first-appearance
order); labels are integer class ids ``0..n_classes-1``.  Sparse rows are
CSR arrays (``SparseRows``), z-scored lazily at distance time through the
recorded per-feature statistics, so sparsity is never destroyed.

Dense rows can be read the same way.  ``run_belief`` computes the z-score
statistics only (``_zscore_on_read``) and keeps the rows raw; every reader
then z-scores what it reads through ``FeatureSpace.scaled`` as
``(x - mean) / std``, one ``np.subtract`` and one ``np.divide``.  Those are
the same two correctly rounded operations that write ``zscore_normalize``'s
copy, so every value read keeps its bits and selection makes no (m x n)
copy of the input.  The neighbor search streams each partition through
z-scored row tiles (see ``neighbors``); estimation reads its gathers
through the same method.  Tiles are consecutive rows, a multiple of 8 rows
high with the partition spread evenly over them, which kept the Gram
matmul's bits equal to a whole-partition product on OpenBLAS.
"""

from __future__ import annotations

import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "FeatureKind",
    "FeatureSpace",
    "Dataset",
    "PartitionedDataset",
    "SampleBatch",
    "SparseRows",
    "parse_libsvm",
    "parse_csv",
    "write_libsvm",
    "write_csv",
    "write_metadata",
    "read_metadata",
    "zscore_normalize",
    "partition",
    "draw_sample",
]


class FeatureKind(str, enum.Enum):
    NUMERIC = "numeric"
    NOMINAL = "nominal"


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Sparse rows in CSR form: row i holds ``indices[indptr[i]:indptr[i+1]]``
    (ascending, unique, int64) with ``data`` (float64) at the same positions.

    ``rows[i]`` is the (indices, values) pair of row i, as views; a slice
    gives a ``SparseRows`` view of consecutive rows and an index array a
    ``SparseRows`` copy of the chosen rows, in order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, key):
        if np.ndim(key) == 0 and not isinstance(key, slice):
            i = range(len(self))[key]
            a, b = self.indptr[i], self.indptr[i + 1]
            return self.indices[a:b], self.data[a:b]
        if isinstance(key, slice) and key.step in (None, 1):
            lo, hi, _ = key.indices(len(self))
            ptr = self.indptr[lo:max(lo, hi) + 1]
            a, b = ptr[0], ptr[-1]
            return SparseRows(ptr - a, self.indices[a:b], self.data[a:b])
        ids = np.arange(len(self))[key]
        lengths = np.diff(self.indptr)[ids]
        ptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        pos = np.repeat(self.indptr[ids] - ptr[:-1], lengths) + np.arange(ptr[-1])
        return SparseRows(ptr, self.indices[pos], self.data[pos])

    def to_dense(self, n_features: int) -> np.ndarray:
        """The rows as a dense (rows, n_features) array; absent entries are 0."""
        out = np.zeros((len(self), n_features))
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out


@dataclass(frozen=True)
class FeatureSpace:
    """Static view of a feature space used by distance and diff kernels.

    ``scaled`` puts stored rows on the z-scale and is the only reader of
    the last three fields.  Dense rows stored raw are read as
    ``(x - means) / stds``; the values of lazily normalized sparse rows are
    multiplied by ``inv_scale`` (1/sigma).  All three are ``None`` when the
    stored values are read as they are.
    """

    n_features: int
    numeric_idx: np.ndarray
    nominal_idx: np.ndarray
    inv_scale: np.ndarray | None
    means: np.ndarray | None = None
    stds: np.ndarray | None = None

    @property
    def all_numeric(self) -> bool:
        return self.nominal_idx.size == 0

    def scaled(self, rows, out=None):
        """Dense rows or ``SparseRows`` on the z-scale, or ``rows`` itself
        when there is nothing to apply.  Raw dense rows are centered, then
        divided, into ``out`` when it is given."""
        if self.means is not None:
            out = np.subtract(rows, self.means, out=out)
            return np.divide(out, self.stds, out=out)
        if self.inv_scale is None:
            return rows
        if isinstance(rows, SparseRows):
            return SparseRows(rows.indptr, rows.indices,
                              rows.data * self.inv_scale[rows.indices])
        return rows * self.inv_scale


class Dataset:
    """In-memory labeled dataset, dense or sparse.

    Parameters
    ----------
    rows : ndarray of shape (m, n), SparseRows, or list of (indices, values)
        Feature values.  Nominal columns hold integer codes.
    labels : ndarray of shape (m,)
        Integer class ids in ``0..n_classes-1``.
    kinds : sequence of FeatureKind
        Per-feature kind; sparse datasets must be all numeric.
    means, stds, normalized, scale_on_read
        ``normalized`` means the values read out of the dataset (through
        ``feature_space().scaled``, ``column`` or ``columns``) are z-scored.
        ``scale_on_read`` is True when the rows are stored raw and the
        recorded ``means``/``stds`` are applied as they are read: always so
        for sparse rows with statistics, and for dense rows only when asked
        (``run_belief`` does).  Otherwise the stored rows are read as they
        are, so a dense dataset that is already z-scored
        (``zscore_normalize``'s copy, or a caller's rows passed with
        ``normalized=True``) is never transformed twice.
    """

    def __init__(self, rows, labels, kinds, n_classes=None,
                 means=None, stds=None, normalized=False, scale_on_read=False):
        labels = np.asarray(labels, dtype=np.int64)
        if isinstance(rows, np.ndarray):
            rows = np.ascontiguousarray(rows, dtype=np.float64)
            if rows.ndim != 2:
                raise DataError("dense rows must be a 2-D array")
            self._sparse = False
            n = rows.shape[1]
            m = rows.shape[0]
        else:
            if not isinstance(rows, SparseRows):
                pairs = list(rows)
                rows = SparseRows(
                    np.cumsum([0] + [np.size(idx) for idx, _ in pairs], dtype=np.int64),
                    np.concatenate([np.empty(0, np.int64)] + [idx for idx, _ in pairs]),
                    np.concatenate([np.empty(0)] + [v for _, v in pairs]))
            self._sparse = True
            m = len(rows)
            # One check over every row: steps that cross a row boundary
            # (the position before each row's end offset) are exempt.
            flat, ends = rows.indices, rows.indptr[1:]
            step_ok = np.diff(flat) > 0
            step_ok[ends[(ends > 0) & (ends < flat.size)] - 1] = True
            if not step_ok.all() or (flat.size and flat.min() < 0):
                raise DataError("sparse indices must be ascending and unique")
            n = int(flat.max()) + 1 if flat.size else 0
        kinds = tuple(FeatureKind(k) for k in kinds)
        if not self._sparse and len(kinds) != n:
            raise DataError(f"kinds has {len(kinds)} entries for {n} features")
        if self._sparse:
            if any(k is not FeatureKind.NUMERIC for k in kinds):
                raise DataError("sparse datasets must be all numeric")
            n = max(n, len(kinds))
            kinds = tuple(kinds) + (FeatureKind.NUMERIC,) * (n - len(kinds))
        if labels.shape != (m,):
            raise DataError("labels must be one id per instance")
        if m and labels.min() < 0:
            raise DataError("labels must be nonnegative class ids")
        self.rows = rows
        self.labels = labels
        self.kinds = kinds
        if not self._sparse:
            # Numeric columns are checked by zscore_normalize, from the
            # statistics it computes anyway; nominal ones never reach it.
            nominal = np.flatnonzero(~self.numeric_mask())
            bad = np.argwhere(~np.isfinite(rows[:, nominal]))
            if bad.size:
                raise DataError(f"row {bad[0, 0]}: non-finite value in nominal "
                                f"feature {nominal[bad[0, 1]]}")
        self.n_features = n
        self.n_classes = int(n_classes) if n_classes is not None else (
            int(labels.max()) + 1 if m else 0)
        if m and labels.max() >= self.n_classes:
            raise DataError("label id outside 0..n_classes-1")
        self.means = means
        self.stds = stds
        self.normalized = bool(normalized)
        self.scale_on_read = (self.normalized and stds is not None
                              and (self._sparse or bool(scale_on_read)))

    # -- basic accessors ---------------------------------------------------

    @property
    def n_instances(self) -> int:
        return self.labels.shape[0]

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    def numeric_mask(self) -> np.ndarray:
        return np.array([k is FeatureKind.NUMERIC for k in self.kinds], dtype=bool)

    def class_priors(self) -> np.ndarray:
        """Class frequencies over the full dataset."""
        if self.n_instances == 0:
            raise DataError("empty dataset has no priors")
        counts = np.bincount(self.labels, minlength=self.n_classes)
        return counts / self.n_instances

    def feature_space(self) -> FeatureSpace:
        mask = self.numeric_mask()
        dense_stats = self.scale_on_read and not self._sparse
        return FeatureSpace(
            n_features=self.n_features,
            numeric_idx=np.flatnonzero(mask),
            nominal_idx=np.flatnonzero(~mask),
            inv_scale=1.0 / self.stds if self.scale_on_read and self._sparse else None,
            means=self.means if dense_stats else None,
            stds=self.stds if dense_stats else None,
        )

    def checked_sums(self) -> np.ndarray:
        """Per-feature sums of the stored values, raising ``DataError`` on the
        lowest non-finite one.  Sparse entries add in entry order
        (``bincount``), as a per-row loop would."""
        with np.errstate(invalid="ignore", over="ignore"):
            sums = (np.bincount(self.rows.indices, weights=self.rows.data,
                                minlength=self.n_features)
                    if self._sparse else self.rows.sum(axis=0))
        _check_finite(sums)
        return sums

    def row(self, i: int):
        return self.rows[i]

    def column(self, j: int) -> np.ndarray:
        """Effective (post-normalization) values of feature ``j`` as a dense vector."""
        return self.columns([j])[0]

    def columns(self, features: Sequence[int]) -> np.ndarray:
        """Effective values of the given features, one row per requested
        feature: row i equals ``column(features[i])``.  Sparse entries are
        read in one pass, whatever the number of features.  With
        ``scale_on_read`` each value is read as ``(x - mean) / std``."""
        feats = np.asarray(features, dtype=np.int64).reshape(-1)
        bad = feats[(feats < 0) | (feats >= self.n_features)]
        if bad.size:
            raise DataError(f"feature index {bad[0]} out of range")
        if self._sparse:
            uniq, inverse = np.unique(feats, return_inverse=True)
            slot = np.full(self.n_features, -1)
            slot[uniq] = np.arange(uniq.size)
            at = slot[self.rows.indices]
            hit = np.flatnonzero(at >= 0)
            out = np.zeros((uniq.size, self.n_instances))
            out[at[hit], np.searchsorted(self.rows.indptr, hit, side="right") - 1] = \
                self.rows.data[hit]
            if not np.array_equal(uniq, feats):  # repeated or out of order
                out = out[inverse]
        else:
            out = self.rows.T[feats]
        if self.scale_on_read:
            out -= self.means[feats, None]
            out /= self.stds[feats, None]
        return out

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """New Dataset restricted to the given instances (order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_instances):
            raise DataError("subset index out of range")
        return Dataset(self.rows[indices], self.labels[indices], self.kinds,
                       n_classes=self.n_classes, normalized=self.normalized,
                       means=None if self.means is None else self.means.copy(),
                       stds=None if self.stds is None else self.stds.copy(),
                       scale_on_read=self.scale_on_read)


# -- parsing and serialization --------------------------------------------


def parse_libsvm(stream: IO[str] | Iterable[str], n_features: int | None = None) -> Dataset:
    """Parse LibSVM text into a sparse Dataset.

    Indices in the file are 1-based and must be strictly increasing per
    line.  Labels are mapped to ``0..n_classes-1``: numerically when every
    label token parses as a number (ascending value order, so -1/+1 becomes
    0/1), otherwise by first appearance.
    """
    raw_labels: list[str] = []
    label_lines: list[int] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for ln, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        raw_labels.append(parts[0])
        label_lines.append(ln)
        prev = 0
        for tok in parts[1:]:
            try:
                i_s, v_s = tok.split(":")
                i = int(i_s)
                v = float(v_s)
            except ValueError as exc:
                raise DataError(f"line {ln}: bad index:value token {tok!r}") from exc
            if not math.isfinite(v):
                raise DataError(f"line {ln}: non-finite value {v_s!r} at index {i}")
            if i < 1:
                raise DataError(f"line {ln}: indices are 1-based, got {i}")
            if i <= prev:
                raise DataError(f"line {ln}: indices must be strictly increasing")
            prev = i
            indices.append(i - 1)
            values.append(v)
        indptr.append(len(indices))
    if not raw_labels:
        raise DataError("no instances in stream")
    width = max(indices, default=-1) + 1
    if n_features is not None:
        if width > n_features:
            raise DataError(f"index {width} exceeds declared {n_features} features")
        width = n_features
    rows = SparseRows(np.array(indptr, dtype=np.int64),
                      np.array(indices, dtype=np.int64), np.array(values))
    return Dataset(rows, _encode_labels(raw_labels, label_lines, "1 (label)"),
                   [FeatureKind.NUMERIC] * width)


def parse_csv(stream: IO[str] | Iterable[str], label_column: int | str = -1,
              kinds: Sequence[FeatureKind] | None = None) -> Dataset:
    """Parse headed CSV text into a dense Dataset.

    ``label_column`` selects the class column by header name or position
    (negative positions count from the right).  ``kinds`` fixes the kind of
    each remaining column in file order; when omitted, a column is numeric
    iff every cell parses as a float.  Nominal cells become integer codes
    the same way label tokens do: by value order when every token is
    numeric, by first appearance otherwise.
    """
    numbered = [(ln, text.rstrip("\n"))
                for ln, text in enumerate(stream, start=1) if text.strip()]
    if len(numbered) < 2:
        raise DataError("CSV needs a header row and at least one instance")
    header = [h.strip() for h in numbered[0][1].split(",")]
    ncol = len(header)
    if isinstance(label_column, str):
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header")
        lab_pos = header.index(label_column)
    else:
        lab_pos = label_column if label_column >= 0 else ncol + label_column
        if not 0 <= lab_pos < ncol:
            raise DataError(f"label column {label_column} out of range")
    cells = []
    lines = [ln for ln, _ in numbered[1:]]
    for ln, line in numbered[1:]:
        row = [c.strip() for c in line.split(",")]
        if len(row) != ncol:
            raise DataError(f"line {ln}: expected {ncol} cells, got {len(row)}")
        cells.append(row)
    feat_pos = [j for j in range(ncol) if j != lab_pos]
    n = len(feat_pos)
    if kinds is None:
        kinds_out = []
        for j in feat_pos:
            kind = FeatureKind.NUMERIC
            for row in cells:
                try:
                    float(row[j])
                except ValueError:
                    kind = FeatureKind.NOMINAL
                    break
            kinds_out.append(kind)
    else:
        kinds_out = [FeatureKind(k) for k in kinds]
        if len(kinds_out) != n:
            raise DataError(f"kinds has {len(kinds_out)} entries for {n} features")
    X = np.empty((len(cells), n))
    for col, j in enumerate(feat_pos):
        if kinds_out[col] is FeatureKind.NUMERIC:
            try:
                X[:, col] = [float(row[j]) for row in cells]
            except ValueError as exc:
                raise DataError(f"non-numeric cell in numeric column {header[j]!r}") from exc
            bad = np.flatnonzero(~np.isfinite(X[:, col]))
            if bad.size:
                raise DataError(
                    f"line {lines[bad[0]]}: non-finite value "
                    f"{cells[bad[0]][j]!r} in column {j + 1} ({header[j]!r})")
        else:
            # Same policy as labels: numeric tokens keep value order so
            # integer-coded columns survive a round trip, text tokens are
            # coded by first appearance.
            X[:, col] = _encode_labels([row[j] for row in cells], lines,
                                       f"{j + 1} ({header[j]!r})")
    labels = _encode_labels([row[lab_pos] for row in cells], lines,
                            f"{lab_pos + 1} ({header[lab_pos]!r})")
    return Dataset(X, labels, kinds_out)


def _float_or_none(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _encode_labels(tokens: list[str], lines: list[int], column: str) -> np.ndarray:
    """Map label tokens to contiguous ids, numerically when possible.

    A token that reads as NaN or an infinity raises ``DataError`` naming
    its line and ``column``: NaN never equals itself, so each such row
    would get a code of its own.
    """
    values = [_float_or_none(t) for t in tokens]
    for v, t, ln in zip(values, tokens, lines):
        if v is not None and not math.isfinite(v):
            raise DataError(f"line {ln}: non-finite value {t!r} in column {column}")
    if None in values:
        codes: dict[str, int] = {}
        return np.array([codes.setdefault(t, len(codes)) for t in tokens],
                        dtype=np.int64)
    uniq = sorted(set(values))
    code = {v: c for c, v in enumerate(uniq)}
    return np.array([code[v] for v in values], dtype=np.int64)


def write_libsvm(dataset: Dataset, stream: IO[str]) -> None:
    """Serialize to LibSVM text (1-based indices, shortest round-trip floats)."""
    rows = dataset.rows
    if not dataset.is_sparse:
        r, c = np.nonzero(rows)
        indptr = np.searchsorted(r, np.arange(dataset.n_instances + 1))
        rows = SparseRows(indptr, c, rows[r, c])
    toks = [f"{i + 1}:{v!r}" for i, v in zip(rows.indices.tolist(), rows.data.tolist())]
    for y, a, b in zip(dataset.labels.tolist(), rows.indptr[:-1].tolist(),
                       rows.indptr[1:].tolist()):
        stream.write(" ".join([str(y)] + toks[a:b]) + "\n")


def write_csv(dataset: Dataset, stream: IO[str], label_name: str = "class") -> None:
    """Serialize a dense Dataset to headed CSV, label column last."""
    if dataset.is_sparse:
        raise DataError("CSV serialization requires a dense dataset")
    header = [f"f{j}" for j in range(dataset.n_features)] + [label_name]
    stream.write(",".join(header) + "\n")
    nominal = ~dataset.numeric_mask()
    for i in range(dataset.n_instances):
        row = dataset.rows[i]
        cells = [str(int(v)) if nom else repr(float(v))
                 for v, nom in zip(row, nominal)]
        cells.append(str(int(dataset.labels[i])))
        stream.write(",".join(cells) + "\n")


def write_metadata(dataset: Dataset, stream: IO[str]) -> None:
    """Write the JSON metadata sidecar (feature count, kinds, statistics)."""
    doc = {
        "n_features": dataset.n_features,
        "n_classes": dataset.n_classes,
        "kinds": [k.value for k in dataset.kinds],
        "normalized": dataset.normalized,
        "means": None if dataset.means is None else dataset.means.tolist(),
        "stds": None if dataset.stds is None else dataset.stds.tolist(),
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def read_metadata(stream: IO[str]) -> dict:
    doc = json.load(stream)
    for key in ("n_features", "n_classes", "kinds"):
        if key not in doc:
            raise DataError(f"metadata sidecar missing {key!r}")
    return doc


# -- thread pool -----------------------------------------------------------

# Widest pool of any phase: partition search and accumulation, and dense
# z-scoring.
_MAX_THREADS = 8


def _map_pool(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, run in a pool of min(workers, 8) threads.

    The results come back in input order whatever order the threads finish
    in.  A single item, or a single worker, runs on the calling thread.
    """
    items = list(items)
    width = min(workers, len(items), _MAX_THREADS)
    if width <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, items))


# -- normalization ---------------------------------------------------------

# Block budget of dense z-scoring (column blocks for the statistics, row
# blocks for the write) and of the sparse search's query buffer and tiles.
_STATS_BYTES = 1 << 20


def zscore_normalize(dataset: Dataset, workers: int = 1) -> Dataset:
    """Z-score numeric features with population statistics.

    Constant features get a recorded standard deviation of 1, which sends
    their values to exactly 0.  Dense statistics come from column blocks of
    at most ``_STATS_BYTES`` (at least one column) and the values are then
    materialized in one new array, written in row blocks of the same
    budget; both run in a pool of min(``workers``, 8) threads, so memory is
    one copy of the input plus one block per thread.  ``run_belief`` uses
    only the statistics: it keeps dense rows raw and z-scores them as they
    are read (``_zscore_on_read``).  Results do not depend on ``workers``.
    Sparse rows are shared with the output, raw, and the transform is
    applied lazily through the recorded statistics (absent entries count as
    raw zeros).  Nominal features pass through unchanged.  A numeric feature
    holding a NaN or an infinity (or values whose sum overflows) raises
    ``DataError`` naming the lowest such feature.
    """
    lazy = _zscore_on_read(dataset, workers)
    if dataset.is_sparse:
        return lazy
    rows, mean, std = dataset.rows, lazy.means, lazy.stds
    # Nominal columns have mean 0 and std 1, so (x - 0) / 1 keeps them exact.
    X = np.empty_like(rows)
    height = max(1, _STATS_BYTES // (8 * max(dataset.n_features, 1)))

    def write(a):
        out = X[a:a + height]
        np.subtract(rows[a:a + height], mean, out=out)
        np.divide(out, std, out=out)

    _map_pool(write, range(0, dataset.n_instances, height), workers)
    return Dataset(X, lazy.labels, dataset.kinds,
                   n_classes=dataset.n_classes, means=mean, stds=std, normalized=True)


def _zscore_on_read(dataset: Dataset, workers: int = 1) -> Dataset:
    """``dataset`` with its z-score statistics recorded and its rows shared,
    raw, to be z-scored as they are read (``Dataset.scale_on_read``): the
    statistics ``zscore_normalize`` computes, without its copy."""
    m = dataset.n_instances
    if m == 0:
        raise DataError("cannot normalize an empty dataset")
    if dataset.is_sparse:
        idx, vals = dataset.rows.indices, dataset.rows.data
        n = dataset.n_features
        mean = dataset.checked_sums() / m
        # Two passes, so a large common offset does not cancel the spread:
        # the stored entries' squared deviations, plus the absent zeros'.
        dev = vals - mean[idx]
        var = np.bincount(idx, weights=dev * dev, minlength=n)
        var += (m - np.bincount(idx, minlength=n)) * (mean * mean)
        std = np.sqrt(var / m)
        std[std == 0.0] = 1.0
        # Stored rows stay raw, so z-scoring the effective values collapses
        # to the raw-value transform; prior statistics drop out.
    else:
        mean, std = _dense_statistics(dataset, workers)
    return Dataset(dataset.rows, dataset.labels.copy(), dataset.kinds,
                   n_classes=dataset.n_classes, means=mean, stds=std,
                   normalized=True, scale_on_read=True)


def _dense_statistics(dataset: Dataset, workers: int):
    """Per-feature means and population stds of a dense dataset (0 and 1 for
    nominal features, std 1 for constant ones), from column blocks of at
    most ``_STATS_BYTES`` mapped over the pool; raises ``DataError`` on the
    lowest non-finite numeric feature."""
    rows = dataset.rows
    m = dataset.n_instances
    numeric = np.flatnonzero(dataset.numeric_mask())
    width = max(1, _STATS_BYTES // (8 * m))
    blocks = [numeric[a:a + width] for a in range(0, numeric.size, width)]

    def column_stats(cols):
        # The gather comes back column-major, so each column is summed
        # pairwise on its own (rows.mean(axis=0) would sum row by row and
        # round differently).  The variance takes the steps of
        # block.std(axis=0) in place, so the block is the only temporary.
        # A non-finite column is reported from its mean afterwards.
        block = rows[:, cols]
        with np.errstate(invalid="ignore", over="ignore"):
            mu = block.mean(axis=0)
            np.subtract(block, mu, out=block)
            np.square(block, out=block)
            return mu, np.sqrt(block.sum(axis=0) / m)  # population

    mean = np.zeros(dataset.n_features)
    std = np.ones(dataset.n_features)
    for cols, (mu, sigma) in zip(blocks, _map_pool(column_stats, blocks, workers)):
        _check_finite(mu, cols)
        sigma[sigma == 0.0] = 1.0
        mean[cols] = mu
        std[cols] = sigma
    return mean, std


def _check_finite(stat: np.ndarray, features: np.ndarray | None = None) -> None:
    """Raise on the first non-finite per-feature sum or mean.

    Any NaN or infinity in a column propagates into its sum, so the
    statistics normalization computes anyway find bad input at no extra
    pass.  ``features`` maps positions in ``stat`` to feature indices.
    """
    bad = np.flatnonzero(~np.isfinite(stat))
    if bad.size:
        j = int(bad[0] if features is None else features[bad[0]])
        raise DataError(f"feature {j} holds a non-finite value "
                        f"(or values whose sum overflows)")


# -- partitioning and sampling ---------------------------------------------


@dataclass
class PartitionedDataset:
    """A Dataset split into ``p`` contiguous balanced row blocks.

    Blocks are contiguous ranges of the original row order, so the
    (partition, local) lexicographic order of any two instances equals
    their global row order; distance ties therefore resolve identically
    for every partition count, as long as the distances themselves do.
    Gram-path distances can move in their last bits with the partition
    count (see ``neighbors._gram_sq``).
    """

    dataset: Dataset
    starts: np.ndarray  # shape (p + 1,), block g covers rows starts[g]:starts[g+1]

    @property
    def n_partitions(self) -> int:
        return self.starts.shape[0] - 1

    def block_indices(self, g: int) -> np.ndarray:
        return np.arange(self.starts[g], self.starts[g + 1], dtype=np.int64)

    def block_size(self, g: int) -> int:
        return int(self.starts[g + 1] - self.starts[g])

    def map_partitions(self, fn) -> list:
        """``[fn(g) for g in range(p)]``, run in a pool of min(p, 8) threads,
        with the results in partition order."""
        return _map_pool(fn, range(self.n_partitions), self.n_partitions)



def partition(dataset: Dataset, p: int) -> PartitionedDataset:
    """Split into ``p`` contiguous blocks whose sizes differ by at most one.

    The layout is deterministic: contiguity is what keeps neighbor
    tie-breaking invariant across partition counts.
    """
    m = dataset.n_instances
    if p < 1:
        raise DataError(f"partition count must be >= 1, got {p}")
    if p > m:
        raise DataError(f"cannot split {m} instances into {p} partitions")
    base, extra = divmod(m, p)
    sizes = np.full(p, base, dtype=np.int64)
    sizes[:extra] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)])
    return PartitionedDataset(dataset, starts)


@dataclass
class SampleBatch:
    """A batch of sampled instances, each carried as a full copy.

    ``indices`` are global row ids in the source dataset; ``rows`` is a
    dense matrix or a ``SparseRows`` aligned with them.
    """

    batch_id: int
    indices: np.ndarray
    labels: np.ndarray
    rows: np.ndarray | SparseRows

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def row(self, pos: int):
        return self.rows[pos]


def draw_sample(pdata: PartitionedDataset, rate: float, batches: int = 1,
                seed: int = 0) -> list[SampleBatch]:
    """Draw ``ceil(rate * m)`` instances uniformly without replacement.

    The draw is stratification-free and independent of the partition
    layout; the same (rate, seed) always yields the same sample.  The
    sample is then cut into ``batches`` chunks whose sizes differ by at
    most one.
    """
    ds = pdata.dataset
    m = ds.n_instances
    if not 0.0 < rate <= 1.0:
        raise DataError(f"sample rate must be in (0, 1], got {rate}")
    if batches < 1:
        raise DataError(f"batch count must be >= 1, got {batches}")
    size = math.ceil(rate * m)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(m, size=size, replace=False).astype(np.int64)
    out = []
    for b, part in enumerate(np.array_split(chosen, batches)):
        out.append(SampleBatch(batch_id=b, indices=part, labels=ds.labels[part],
                               rows=ds.rows[part]))  # fancy indexing copies
    return out
