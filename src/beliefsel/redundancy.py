"""Collision accounting between neighboring instances and the redundancy
measure computed from it.

Two instances "collide" on a numeric feature when their z-scored values fall
within six standard units of each other; the collision rate decays linearly
from 1 at zero gap to 0 at six units, and rates in the open interval
(0, kappa) are discarded so only strong collisions accumulate.  Nominal
features collide exactly on equal codes (0/1, no kappa window).

Marginal mass is accumulated for every feature on every processed pair.
Joint mass is accumulated only for pairs involving at least one *tracked*
feature, as min(rate_i, rate_j) when both features collide.  Which
features are tracked is the caller's choice (the selection pipeline's
relevance window); t tracked features cost t x n float64 of joint mass
per partition.

Rates arrive in blocks of instance pairs and each block adds its own sum
of mins to every owned cell.  A block of at least ``_TRANSPOSE_MIN_PAIRS``
pairs is laid out features x pairs, so that sum is ``np.add.reduce`` over
the contiguous row of the block's per-pair mins (numpy's pairwise sum); a
smaller block is laid out pairs x features and adds its mins one pair at
a time, in pair order.  Either way the cells equal a pair-by-pair sum to
within rounding (about 1e-15 relative), and the marginals are one
``sum(axis=0)`` per block.  The final measure for a feature pair is

    min(PC_i, PC_j) * log2(PC_ij / (PC_i * PC_j))

with PC values the accumulated masses divided by the pair count, and 0
whenever any involved mass is 0.  Taking the smaller marginal as the prefix
keeps the measure exactly symmetric.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, IntegrityError
from .dataset import FeatureSpace

__all__ = [
    "COLLISION_SPAN",
    "collision_rates",
    "CollisionTables",
    "RedundancyTable",
    "compute_mcr",
]

COLLISION_SPAN = 6.0
# Row-block budget of compute_mcr.
_MCR_BLOCK_BYTES = 1 << 20
# Pairs from which a rate block folds features x pairs rather than pairs x
# features.  Each tracked row then sums rows one block long, so short
# blocks lose.  Swept at 500-2000 features (BLAS on one thread), the
# features x pairs fold took 0.8-1.0x the time of the other layout from 80
# pairs on, and 1.1-1.4x at 48-56 pairs; full sd3's 32-pair blocks (4060
# features under the 1 MiB chunk budget) took 1.9x.
_TRANSPOSE_MIN_PAIRS = 80


def collision_rates(diffs: np.ndarray, space: FeatureSpace,
                    kappa: float = 0.8, out: np.ndarray | None = None) -> np.ndarray:
    """Collision rates of instance pairs from their absolute diffs.

    ``diffs`` is what the weight-estimation pass already computed, so
    collision tracking adds no distance work of its own: one pair's dense
    vector or a (pairs, features) block of them.  The rates go into
    ``out`` when it is given, which may be ``diffs`` itself: the nominal
    rates are read before anything is overwritten, so the bits are those
    of a fresh result.
    """
    nom = space.nominal_idx
    # Nominal diffs are 0/1 indicators: equal -> 1, different -> 0.
    equal = 1.0 - diffs[..., nom] if nom.size else None
    rates = np.divide(diffs, COLLISION_SPAN, out=out)
    np.subtract(1.0, rates, out=rates)
    np.maximum(rates, 0.0, out=rates)
    rates *= rates >= kappa  # zeroes the rates in (0, kappa)
    if nom.size:
        rates[..., nom] = equal
    return rates


@dataclass
class CollisionTables:
    """Accumulated collision mass: marginal per feature, joint per pair.

    ``joint[r, j]`` holds the mass of the unordered pair {tracked[r], j}.
    Within one update a pair is written once (both-tracked pairs go to the
    lower-index row), but after merging tables with different tracked sets
    the mass of a pair may be spread over both orientations;
    ``compute_mcr`` sums them.
    """

    n_features: int
    tracked: np.ndarray
    joint: np.ndarray
    marginal: np.ndarray
    pair_count: int = 0

    @classmethod
    def empty(cls, n_features: int, tracked=()) -> "CollisionTables":
        tracked = np.asarray(sorted(set(int(t) for t in tracked)), dtype=np.int64)
        if tracked.size and (tracked[0] < 0 or tracked[-1] >= n_features):
            raise DataError("tracked feature index out of range")
        return cls(
            n_features=n_features,
            tracked=tracked,
            joint=np.zeros((tracked.size, n_features)),
            marginal=np.zeros(n_features),
            pair_count=0,
        )

    @contextmanager
    def window_fold(self):
        """Yield a function that folds one block of rate rows per call.

        While the fold is open, ``joint``'s columns are in window order:
        the tracked features, then the untracked ones, each ascending.
        Tracked row r (feature f) owns every column after position r,
        which are the j > f plus the untracked j < f: each pair is written
        once, and the lower triangle of the tracked square, which an update
        never writes, costs nothing.  So a row's whole update is one
        ``np.minimum(cols[r], cols[r + 1:])`` summed over the block's
        pairs, with ``cols`` the block in window order and laid out as the
        module docstring says.  The columns go back to feature order once,
        when the fold closes.  Temporaries are the size of a block and of
        one joint row.
        """
        untracked = np.flatnonzero(np.bincount(self.tracked, minlength=self.n_features) == 0)
        order = np.concatenate([self.tracked, untracked])
        t = self.tracked.size

        def fold(rates: np.ndarray) -> None:
            if rates.ndim != 2 or rates.shape[1] != self.n_features:
                raise IntegrityError("rate rows do not match the feature count")
            self.marginal += rates.sum(axis=0)
            self.pair_count += rates.shape[0]
            if not t or not rates.shape[0]:
                return
            if rates.shape[0] >= _TRANSPOSE_MIN_PAIRS:
                cols = np.take(rates.T, order, axis=0)  # C-ordered
            else:
                cols = np.take(rates, order, axis=1).T  # F-ordered view
            mins = np.empty_like(cols)  # one buffer, laid out as cols
            for r in range(t):
                self.joint[r, r + 1:] += np.minimum(
                    cols[r], cols[r + 1:], out=mins[r + 1:]).sum(axis=1)

        # Window order is feature order unless an untracked feature comes
        # before a tracked one.
        moved = t and untracked.size and untracked[0] < self.tracked[-1]
        if moved:
            for row in self.joint:
                row[:] = row[order]
        try:
            yield fold
        finally:
            if moved:
                back = np.argsort(order)
                for row in self.joint:
                    row[:] = row[back]

    def merge(self, other: "CollisionTables") -> "CollisionTables":
        """Entrywise sum; tracked sets are unioned with rows realigned.

        Tables with the same tracked set (the partition partials of one
        batch) add their joint arrays directly, which gives the same bits
        as realigning into zeros (0 + a + b == a + b) without the zeroed
        array and the gathered temporaries: on a 200 x 20,000 table the
        direct sum takes a quarter of the time and half the peak memory.
        """
        if self.n_features != other.n_features:
            raise IntegrityError("cannot merge tables over different feature counts")
        if np.array_equal(self.tracked, other.tracked):
            tracked = self.tracked.copy()
            joint = self.joint + other.joint
        else:
            tracked = np.flatnonzero(np.bincount(np.concatenate([self.tracked, other.tracked]),
                                                 minlength=self.n_features))
            joint = np.zeros((tracked.size, self.n_features))
            for src in (self, other):
                if src.tracked.size:
                    joint[np.searchsorted(tracked, src.tracked)] += src.joint
        return CollisionTables(
            n_features=self.n_features,
            tracked=tracked,
            joint=joint,
            marginal=self.marginal + other.marginal,
            pair_count=self.pair_count + other.pair_count,
        )


@dataclass
class RedundancyTable:
    """Pairwise redundancy values with the bounds used for normalization.

    ``values[r, j]`` is the raw value of the pair {tracked[r], j}, a dense
    (tracked, features) array laid out like ``CollisionTables.joint``;
    both orientations of a both-tracked pair hold the same value.  Pairs
    with no tracked member (and every pair whose measure is exactly 0) have
    a raw value of 0.  ``normalized_row`` rescales raw values through
    minmax bounds that always include the zero point.
    """

    n_features: int
    tracked: np.ndarray
    values: np.ndarray
    lo: float = 0.0
    hi: float = 0.0

    def _row_of(self, i: int) -> int | None:
        r = int(np.searchsorted(self.tracked, i))
        return r if r < self.tracked.size and self.tracked[r] == i else None

    def raw_row(self, i: int) -> np.ndarray:
        """Raw values of feature ``i`` against every feature."""
        r = self._row_of(i)
        if r is not None:
            return self.values[r].copy()
        out = np.zeros(self.n_features)
        out[self.tracked] = self.values[:, i]
        return out

    def normalized_row(self, i: int) -> np.ndarray:
        """Raw values of feature ``i`` against every feature, rescaled to
        (raw - lo) / (hi - lo), or all 0 when the bounds meet."""
        span = self.hi - self.lo
        if span <= 0.0:
            return np.zeros(self.n_features)
        return (self.raw_row(i) - self.lo) / span


def compute_mcr(tables: CollisionTables) -> RedundancyTable:
    """Turn accumulated collision mass into the pairwise redundancy table.

    Memory is the table plus temporaries for one block of about
    ``_MCR_BLOCK_BYTES`` of rows (at least one row).
    """
    if tables.pair_count <= 0:
        raise DataError("no instance pairs were processed")
    pc = tables.marginal / tables.pair_count
    tracked = tables.tracked
    joint = tables.joint
    values = np.zeros_like(joint)
    step = max(1, _MCR_BLOCK_BYTES // (8 * max(tables.n_features, 1)))
    for r0 in range(0, tracked.size, step):
        r1 = min(r0 + step, tracked.size)
        # A merge may have split a both-tracked pair's mass over its two
        # orientations; adding the transposed square gives each orientation
        # the whole mass (a plain update left the other one at 0).
        pij = joint[r0:r1].copy()
        pij[:, tracked] += joint[:, tracked[r0:r1]].T
        pij /= tables.pair_count
        pc_row = pc[tracked[r0:r1]][:, None]
        ok = (pij > 0.0) & (pc_row > 0.0) & (pc > 0.0)
        out = values[r0:r1]
        np.log2(np.divide(pij, pc_row * pc, out=out, where=ok), out=out, where=ok)
        out *= np.minimum(pc_row, pc)
    lo = min(0.0, float(values.min(initial=0.0)))
    hi = max(0.0, float(values.max(initial=0.0)))
    return RedundancyTable(n_features=tables.n_features, tracked=tracked.copy(),
                           values=values, lo=lo, hi=hi)
