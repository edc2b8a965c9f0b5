"""Dataset ingestion, normalization, partitioning, and sampling.

Responsibilities:
    * parse LibSVM (sparse) and headed CSV (dense) files into a Dataset,
    * z-score numeric features with population statistics,
    * split a Dataset into balanced contiguous partitions,
    * draw a uniform sample without replacement and cut it into batches.

Values of nominal features are stored as integer codes (first-appearance
order); labels are integer class ids ``0..n_classes-1``.

``zscore_normalize`` records the z-score statistics only and keeps the rows,
dense or sparse, raw.  A dataset whose statistics are recorded is read
through them: dense rows as ``(x - mean) / std`` by ``FeatureSpace.scaled``,
one ``np.subtract`` and one ``np.divide`` per value, and sparse values
multiplied by ``1 / std`` at distance time, so sparsity is never
destroyed.  Selection therefore makes no (m x n) copy of the input.  The
neighbor search streams each partition through z-scored row tiles of
consecutive rows (see ``neighbors``); estimation reads its gathers through
the same method.  A row's z-scored values are the same whichever tile or
gather reads them, so no distance depends on the tiling.
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
        return SparseRows(rows.indptr, rows.indices, rows.data * self.inv_scale[rows.indices])


class Dataset:
    """In-memory labeled dataset, dense or sparse.

    Parameters
    ----------
    rows : ndarray of shape (m, n), SparseRows, or list of (indices, values)
        Feature values.  Nominal columns hold integer codes.
    labels : ndarray of shape (m,)
        Integer class ids in ``0..n_classes-1``.
    kinds : sequence of FeatureKind or their string values, or bool array
        Per-feature kind; sparse datasets must be all numeric.  Stored as
        ``numeric``, a read-only bool array, True for each numeric feature;
        a bool array given here is copied.  An unknown kind raises
        ``DataError`` naming its position.
    means, stds, normalized
        ``normalized`` means the values read out of the dataset (through
        ``feature_space().scaled``, ``column`` or ``columns``) are z-scored.
        Recorded statistics (both or neither, finite, one per feature, every
        std > 0, on a normalized dataset only) mean the rows are stored raw
        and read as ``(x - mean) / std``; a normalized dataset without them
        holds rows already on the z-scale, read as they are.
    """

    def __init__(self, rows, labels, kinds, n_classes=None,
                 means=None, stds=None, normalized=False):
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
        numeric = _numeric_flags(kinds)
        if self._sparse:
            if not numeric.all():
                raise DataError("sparse datasets must be all numeric")
            n = max(n, numeric.size)
            numeric = np.ones(n, dtype=bool)
        elif numeric.size != n:
            raise DataError(f"kinds has {numeric.size} entries for {n} features")
        numeric.setflags(write=False)
        if labels.shape != (m,):
            raise DataError("labels must be one id per instance")
        if m and labels.min() < 0:
            raise DataError("labels must be nonnegative class ids")
        self.rows = rows
        self.labels = labels
        self.numeric = numeric
        nominal = () if self._sparse else np.flatnonzero(~numeric)
        if len(nominal):
            # Numeric columns are checked by zscore_normalize, from the
            # statistics it computes anyway; nominal ones never reach it.
            # Contiguous row blocks of at most _STATS_BYTES, not a strided
            # gather of every nominal column.
            step = max(1, _STATS_BYTES // (8 * n))
            for r0 in range(0, m, step):
                bad = np.argwhere(~np.isfinite(rows[r0:r0 + step])[:, nominal])
                if bad.size:
                    raise DataError(f"row {r0 + bad[0, 0]}: non-finite value in "
                                    f"nominal feature {nominal[bad[0, 1]]}")
        self.n_features = n
        self.n_classes = int(n_classes) if n_classes is not None else (
            int(labels.max()) + 1 if m else 0)
        if m and labels.max() >= self.n_classes:
            raise DataError("label id outside 0..n_classes-1")
        if (means is None) != (stds is None):
            raise DataError("means and stds must be given together")
        if stds is not None:
            means = np.asarray(means, dtype=np.float64)
            stds = np.asarray(stds, dtype=np.float64)
            if means.shape != (n,) or stds.shape != (n,):
                raise DataError(f"means and stds must each hold {n} values")
            if not (np.isfinite(means).all() and np.isfinite(stds).all()):
                raise DataError("means and stds must be finite")
            if not (stds > 0).all():
                raise DataError("every std must be > 0")
            if not normalized:
                raise DataError("statistics are recorded only on a normalized dataset")
        self.means = means
        self.stds = stds
        self.normalized = bool(normalized)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_instances(self) -> int:
        return self.labels.shape[0]

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    def class_priors(self) -> np.ndarray:
        """Class frequencies over the full dataset."""
        if self.n_instances == 0:
            raise DataError("empty dataset has no priors")
        counts = np.bincount(self.labels, minlength=self.n_classes)
        return counts / self.n_instances

    def feature_space(self) -> FeatureSpace:
        dense_stats = self.stds is not None and not self._sparse
        return FeatureSpace(
            n_features=self.n_features,
            numeric_idx=np.flatnonzero(self.numeric),
            nominal_idx=np.flatnonzero(~self.numeric),
            inv_scale=1.0 / self.stds if self.stds is not None and self._sparse else None,
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
        read in one pass, whatever the number of features.  With recorded
        statistics each value is read as ``(x - mean) / std``."""
        feats = np.asarray(features, dtype=np.int64).reshape(-1)
        bad = feats[(feats < 0) | (feats >= self.n_features)]
        if bad.size:
            raise DataError(f"feature index {bad[0]} out of range")
        if self._sparse:
            uniq = np.flatnonzero(np.bincount(feats, minlength=self.n_features))
            slot = np.full(self.n_features, -1)
            slot[uniq] = np.arange(uniq.size)
            at = slot[self.rows.indices]
            hit = np.flatnonzero(at >= 0)
            out = np.zeros((uniq.size, self.n_instances))
            out[at[hit], np.searchsorted(self.rows.indptr, hit, side="right") - 1] = \
                self.rows.data[hit]
            if not np.array_equal(uniq, feats):  # repeated or out of order
                out = out[slot[feats]]
        else:
            out = self.rows.T[feats]
        if self.stds is not None:
            out -= self.means[feats, None]
            out /= self.stds[feats, None]
        return out

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """New Dataset restricted to the given instances (order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_instances):
            raise DataError("subset index out of range")
        return Dataset(self.rows[indices], self.labels[indices], self.numeric,
                       n_classes=self.n_classes, normalized=self.normalized,
                       means=None if self.means is None else self.means.copy(),
                       stds=None if self.stds is None else self.stds.copy())


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
                   np.ones(width, dtype=bool))


def parse_csv(stream: IO[str] | Iterable[str], label_column: int | str = -1,
              kinds: Sequence[FeatureKind] | None = None) -> Dataset:
    """Parse headed CSV text into a dense Dataset.

    ``label_column`` selects the class column by header name or position
    (negative positions count from the right).  ``kinds`` fixes the kind of
    each remaining column in file order, in any form ``Dataset`` takes
    (an unknown kind raises ``DataError``); when omitted, a column is numeric
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
        kinds = np.array([all(_float_or_none(row[j]) is not None for row in cells)
                          for j in feat_pos], dtype=bool)
    numeric = _numeric_flags(kinds)
    if numeric.size != n:
        raise DataError(f"kinds has {numeric.size} entries for {n} features")
    X = np.empty((len(cells), n))
    for col, (j, num) in enumerate(zip(feat_pos, numeric)):
        if num:
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
    return Dataset(X, labels, numeric)


_KIND_VALUES = {k.value for k in FeatureKind}  # members compare equal to them


def _numeric_flags(kinds) -> np.ndarray:
    """A new bool array, True for numeric features, from a bool array or a
    sequence of ``FeatureKind`` members or their string values.  An unknown
    kind raises ``DataError`` naming its position."""
    if isinstance(kinds, np.ndarray) and kinds.dtype == bool:
        return kinds.copy()
    present = set(kinds)
    if not present <= _KIND_VALUES:
        pos = next(i for i, k in enumerate(kinds) if k not in _KIND_VALUES)
        raise DataError(f"kind {pos} is {kinds[pos]!r}, not 'numeric' or 'nominal'")
    if len(present) == 1:  # one kind for every feature: no per-feature compare
        return np.full(len(kinds), FeatureKind(*present) is FeatureKind.NUMERIC)
    return np.array(kinds, dtype=object) == FeatureKind.NUMERIC.value


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
    for i in range(dataset.n_instances):
        row = dataset.rows[i]
        cells = [repr(float(v)) if num else str(int(v))
                 for v, num in zip(row, dataset.numeric)]
        cells.append(str(int(dataset.labels[i])))
        stream.write(",".join(cells) + "\n")


def write_metadata(dataset: Dataset, stream: IO[str]) -> None:
    """Write the JSON metadata sidecar (feature count, kinds, statistics)."""
    doc = {
        "n_features": dataset.n_features,
        "n_classes": dataset.n_classes,
        "kinds": np.where(dataset.numeric, "numeric", "nominal").tolist(),
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


# -- normalization ---------------------------------------------------------

# Block budget of the dense statistics' leaf buffer.
_STATS_BYTES = 1 << 20

# Rows in one leaf of numpy's pairwise float64 sum (its PW_BLOCKSIZE).
_LEAF_ROWS = 128


def zscore_normalize(dataset: Dataset) -> Dataset:
    """``dataset`` with its z-score statistics (population) recorded and its
    rows, dense or sparse, shared raw, to be z-scored as they are read.

    Constant features get a recorded standard deviation of 1, which sends
    their values to exactly 0.  Dense statistics are the bits of
    ``X[:, numeric].mean(axis=0)`` and ``.std(axis=0)``: each column is
    summed in numpy's pairwise order (leaves of at most 128 rows, each added
    in 8 interleaved lanes, halves split at multiples of 8), rebuilt from
    row-major views of column blocks instead of a strided column gather, on
    the calling thread with one leaf buffer of at most ``_STATS_BYTES``.
    Nominal features get mean 0 and std 1, which reads them unchanged.
    Absent sparse entries count as raw zeros.  Statistics come from the
    stored rows, so normalizing again records the same ones.  A numeric
    feature holding a NaN or an infinity (or values whose sum or spread
    overflows) raises ``DataError`` naming the lowest such feature.
    """
    m = dataset.n_instances
    if m == 0:
        raise DataError("cannot normalize an empty dataset")
    if dataset.is_sparse:
        idx, vals = dataset.rows.indices, dataset.rows.data
        n = dataset.n_features
        mean = dataset.checked_sums() / m
        # Two passes, so a large common offset does not cancel the spread:
        # the stored entries' squared deviations, plus the absent zeros'.
        # An overflowing spread (inf, or NaN from 0 absent zeros times an
        # inf mean square) is reported from the std below.  With no stored
        # entries at all, bincount returns integers.
        with np.errstate(over="ignore", invalid="ignore"):
            dev = vals - mean[idx]
            var = np.bincount(idx, weights=dev * dev, minlength=n).astype(np.float64)
            var += (m - np.bincount(idx, minlength=n)) * (mean * mean)
        std = np.sqrt(var / m)
        _check_finite(std)
        std[std == 0.0] = 1.0
    else:
        mean, std = _dense_statistics(dataset)
    return Dataset(dataset.rows, dataset.labels.copy(), dataset.numeric,
                   n_classes=dataset.n_classes, means=mean, stds=std,
                   normalized=True)


def _dense_statistics(dataset: Dataset):
    """Per-feature means and population stds of a dense dataset (0 and 1 for
    nominal features, std 1 for constant ones); raises ``DataError`` on the
    lowest non-finite numeric feature.

    The span from the first numeric column to the last goes in blocks of at
    most 1024 columns (``_STATS_BYTES`` over 128-row leaves), one after
    another.  Each leaf is the view ``rows[a:b, lo:hi]``, read in row order,
    and numpy's pairwise sum of every column is rebuilt from the leaves
    (8 lanes a leaf, halves split at multiples of 8; see ``_pairwise_sum``
    and ``_leaf_sum``): once over x for the mean, once over (x - mean)^2,
    written into one reused buffer, for the variance.  Nominal columns
    inside the span are summed too and then given mean 0 and std 1, so a
    NaN or infinity, or a sum or spread that overflows, is reported for
    numeric features only.
    """
    rows = dataset.rows
    m = dataset.n_instances
    numeric = dataset.numeric
    mean = np.zeros(dataset.n_features)
    std = np.ones(dataset.n_features)
    if not numeric.any():
        return mean, std
    first = int(np.argmax(numeric))
    last = numeric.size - int(np.argmax(numeric[::-1]))
    width = _STATS_BYTES // (8 * _LEAF_ROWS)
    buf = np.empty(min(m, _LEAF_ROWS) * min(width, last - first))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(first, last, width):
            hi = min(lo + width, last)
            mu = _pairwise_sum(lambda a, b: _leaf_sum(rows[a:b, lo:hi]), 0, m) / m

            def squares(a, b):
                v = buf[:(b - a) * (hi - lo)].reshape(b - a, hi - lo)
                np.subtract(rows[a:b, lo:hi], mu, out=v)
                return _leaf_sum(np.square(v, out=v))

            mean[lo:hi] = mu
            std[lo:hi] = np.sqrt(_pairwise_sum(squares, 0, m) / m)  # population
    mean[~numeric] = 0.0
    std[~numeric] = 1.0
    _check_finite(std)
    std[std == 0.0] = 1.0
    return mean, std


def _pairwise_sum(leaf_sum, a: int, b: int) -> np.ndarray:
    """Column sums of rows ``a:b`` in the order numpy's pairwise float64 sum
    adds one contiguous column: ranges of more than 128 rows split into
    halves at ``n // 2`` rounded down to a multiple of 8, and ``leaf_sum``
    sums each range of at most 128 rows."""
    n = b - a
    if n <= _LEAF_ROWS:
        return leaf_sum(a, b)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(leaf_sum, a, a + half) + _pairwise_sum(leaf_sum, a + half, b)


def _leaf_sum(v: np.ndarray) -> np.ndarray:
    """Column sums of at most 128 rows as numpy's pairwise leaf adds them:
    eight interleaved lanes of whole groups of 8 rows, each added in
    sequence, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); then the
    rows left over, one at a time.  Lanes and a leaf of fewer than 8 rows
    add from 0, as a numpy reduction does, so no sum is -0."""
    k = v.shape[0]
    start = k - k % 8
    if start:
        # The reduction runs over the outer axis, so each lane adds in order.
        r = v[:start].reshape(start // 8, 8, v.shape[1]).sum(axis=0)
        r = r[0::2] + r[1::2]
        total = r[0::2] + r[1::2]
        total = total[0] + total[1]
    else:
        total = np.zeros(v.shape[1])
    for row in v[start:]:
        total += row
    return total


def _check_finite(stat: np.ndarray) -> None:
    """Raise on the first non-finite per-feature sum, mean or std.

    Any NaN or infinity in a column propagates into its sum, so the
    statistics normalization computes anyway find bad input at no extra
    pass.
    """
    bad = np.flatnonzero(~np.isfinite(stat))
    if bad.size:
        raise DataError(f"feature {bad[0]} holds a non-finite value "
                        f"(or values whose sum or spread overflows)")


# -- partitioning and sampling ---------------------------------------------

# Most partitions of one map at once, in either phase: search and
# accumulation.
_MAX_THREADS = 8


@dataclass
class PartitionedDataset:
    """A Dataset split into ``p`` contiguous balanced row blocks.

    Blocks are contiguous ranges of the original row order, so the
    (partition, local) lexicographic order of any two instances equals
    their global row order; distance ties therefore resolve identically
    for every partition count.
    """

    dataset: Dataset
    starts: np.ndarray  # shape (p + 1,), block g covers rows starts[g]:starts[g+1]

    @property
    def n_partitions(self) -> int:
        return self.starts.shape[0] - 1

    def map_partitions(self, fn, workers: int | None = None) -> list:
        """``[fn(g) for g in range(p)]``, at most min(``workers``, p, 8)
        partitions at once (``workers`` is p by default).

        The calling thread runs partition 0 while a pool of one thread fewer
        runs the rest, so a map over p partitions at width p starts p - 1
        threads; each thread holds one partition's working set at a time.
        A single partition, or a single worker, runs on the calling thread
        alone.  The results come back in partition order whatever order the
        threads finish in, the first exception in partition order reaches
        the caller, and no pool thread outlives the call.
        """
        p = self.n_partitions
        width = min(p if workers is None else workers, p, _MAX_THREADS)
        if width <= 1:
            return [fn(g) for g in range(p)]
        with ThreadPoolExecutor(max_workers=width - 1) as pool:
            rest = pool.map(fn, range(1, p))  # submitted before partition 0 starts
            return [fn(0), *rest]


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
    dense matrix or a ``SparseRows`` aligned with them, holding the rows as
    ``feature_space().scaled`` reads them (on the z-scale when the dataset
    is normalized).
    """

    indices: np.ndarray
    labels: np.ndarray
    rows: np.ndarray | SparseRows

    def __len__(self) -> int:
        return int(self.indices.shape[0])


def draw_sample(pdata: PartitionedDataset, rate: float, batches: int = 1,
                seed: int = 0) -> list[SampleBatch]:
    """Draw ``ceil(rate * m)`` instances uniformly without replacement.

    The draw is stratification-free and independent of the partition
    layout; the same (rate, seed) always yields the same sample.  The
    sample is then cut into ``batches`` chunks whose sizes differ by at
    most one.  Each chunk's rows are copied once and scaled in that copy,
    so searching and weighing read them without scaling them again.
    """
    ds = pdata.dataset
    m = ds.n_instances
    if not 0.0 < rate <= 1.0:
        raise DataError(f"sample rate must be in (0, 1], got {rate}")
    if batches < 1:
        raise DataError(f"batch count must be >= 1, got {batches}")
    size = math.ceil(round(rate * m, 9))  # 0.07 * 100 is 7.000000000000001
    rng = np.random.default_rng(seed)
    chosen = rng.choice(m, size=size, replace=False).astype(np.int64)
    space = ds.feature_space()
    out = []
    for part in np.array_split(chosen, batches):
        rows = ds.rows[part]  # fancy indexing copies
        out.append(SampleBatch(indices=part, labels=ds.labels[part],
                               rows=space.scaled(rows, out=rows)))
    return out
