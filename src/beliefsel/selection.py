"""Sequential forward selection and the end-to-end weighting pipeline.

The pipeline: normalize, partition, sample, then per batch find neighbors
and accumulate the per-class distance matrices and collision tables.  The
accumulated matrices from all batches merge by addition; the weight formula
and one final forward selection run on the totals.  Joint collisions are
tracked only for the relevance window, the top ceil(n_select * eta)
features by weight (``_window``), which ``run_belief`` alone picks.  Later
batches take it from the weights accumulated through the previous batch,
at ``LATER_BATCH_ETA``.  The first has none, so one ``estimate_batch`` call
weighs its pairs, the window comes from those weights at ``FIRST_BATCH_ETA``,
and a second call folds the same pairs' collisions for it.

Selection scores a candidate as

    score(i) = w_norm(i) - theta * sum_{j in S} redundancy_norm(j, i)

with weights and redundancy values minmax-normalized independently.  The
penalty term grows incrementally: after each pick only the newly selected
feature's contribution is added to the remaining candidates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .dataset import Dataset, draw_sample, partition, zscore_normalize
from .errors import DataError
from .estimation import (ClassDistanceStats, WeightVector, belief_weights,
                         estimate_batch, merge_stats)
from .neighbors import neighborhood
from .redundancy import RedundancyTable, compute_mcr

__all__ = [
    "SelectorConfig",
    "RankingResult",
    "minmax_normalize",
    "sfs",
    "run_belief",
]

# Eta of the first batch's window and of later batches'.  The first's
# weights come from one batch only, so it looks wider: of 2, 5, 10 and 20,
# 20 was the smallest that reproduced full tracking's selection on the
# first 500 columns of sd3 for seeds 0-5.
FIRST_BATCH_ETA = 20.0
LATER_BATCH_ETA = 2.0


@dataclass
class SelectorConfig:
    """Knobs of the weighting/selection pipeline (defaults per the engine)."""

    n_select: int
    k: int = 3
    sample_rate: float = 1.0
    batches: int = 1
    theta: float = 0.5
    kappa: float = 0.8
    partitions: int = 1
    seed: int = 0


@dataclass
class RankingResult:
    """Ordered picks plus the full weight vector and run metadata: pick s is
    ``features[s]``, with ``normalized[s]``, ``penalties[s]`` and ``scores[s]``."""

    features: np.ndarray
    normalized: np.ndarray
    penalties: np.ndarray
    scores: np.ndarray
    weights: WeightVector
    metadata: dict = field(default_factory=dict)

    def selected_features(self) -> list[int]:
        return self.features.tolist()

    def to_json_obj(self) -> dict:
        keys = ("feature", "weight", "normalized_weight", "penalty", "score")
        columns = (self.features, self.weights.values[self.features],
                   self.normalized, self.penalties, self.scores)
        return {
            "selected": [dict(zip(keys, pick)) for pick in zip(*(c.tolist() for c in columns))],
            "weights": self.weights.to_json_obj(),
            "method": self.weights.method,
            "metadata": self.metadata,
        }


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Affine rescale to [0, 1]; a constant vector maps to all zeros."""
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def sfs(weights: WeightVector, redundancy: RedundancyTable | None,
        n_select: int, theta: float = 0.5) -> RankingResult:
    """Greedy forward selection under the redundancy-penalized score.

    With ``theta`` 0 (or no redundancy table) one sort gives the top
    ``n_select`` features by weight; otherwise each pick is the first maximum
    of the scores, picked features at -inf.  Ties break toward the lower index.
    """
    n = weights.values.shape[0]
    if not 1 <= n_select <= n:
        raise DataError(f"selection size {n_select} not in 1..{n}")
    wn = minmax_normalize(weights.values)
    if theta == 0.0 or redundancy is None:
        picks = np.lexsort((np.arange(n), -wn))[:n_select]
        penalties, scores = np.zeros(n_select), wn[picks]
    else:
        picks = np.empty(n_select, dtype=np.int64)
        penalties, scores = np.empty(n_select), np.empty(n_select)
        penalty = np.zeros(n)
        for s in range(n_select):
            score = wn - theta * penalty
            score[picks[:s]] = -np.inf
            best = int(np.argmax(score))
            picks[s], penalties[s], scores[s] = best, penalty[best], score[best]
            penalty += redundancy.normalized_row(best)  # one new term per candidate
    return RankingResult(picks, wn[picks], penalties, scores, weights)


def _window(stats: ClassDistanceStats, priors: np.ndarray, n_select: int,
            eta: float) -> np.ndarray:
    """The relevance window: the top ceil(n_select * eta) features by the
    weights of ``stats`` (all of them when that is n or more), ties toward
    the lower index, as ascending indices."""
    ranking = belief_weights(stats, priors).ranking()
    return np.sort(ranking[:math.ceil(n_select * eta)])


def run_belief(dataset: Dataset, config: SelectorConfig) -> RankingResult:
    """Run the full pipeline on one dataset; see the module docstring.

    Collision tracking is skipped entirely when ``theta`` is 0, leaving a
    pure relevance ranking at no redundancy cost.
    """
    if not 1 <= config.n_select <= dataset.n_features:
        raise DataError(
            f"selection size {config.n_select} not in 1..{dataset.n_features}")
    if not 0.0 <= config.kappa <= 1.0:
        raise DataError(f"kappa must be in [0, 1], got {config.kappa}")
    if not 0.0 <= config.theta < np.inf:
        raise DataError(f"theta must be finite and >= 0, got {config.theta}")
    present = np.count_nonzero(np.bincount(dataset.labels, minlength=2))
    if present < 2:
        raise DataError(f"weighting needs instances of at least two classes, "
                        f"got {present}")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if dataset.normalized:
        dataset.checked_sums()  # the finite check normalizing makes
    # Statistics only: dense rows stay raw and are z-scored as they are read.
    ds = (dataset if dataset.normalized
          else zscore_normalize(dataset, workers=config.partitions))
    timings["normalize_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pdata = partition(ds, config.partitions)
    batches = draw_sample(pdata, config.sample_rate, config.batches, config.seed)
    timings["sample_s"] = time.perf_counter() - t0

    priors = ds.class_priors()
    n = ds.n_features
    collect = config.theta != 0.0
    total: ClassDistanceStats | None = None
    records = 0
    measured = 0
    locator_bytes = 0
    instance_bytes = 0
    search_s = 0.0
    estimate_s = 0.0
    tracked = None  # the batch's window; None at theta 0
    for batch in batches:
        if len(batch) == 0:
            continue
        if collect and total is not None:
            # A later batch's window: the weights accumulated so far.
            tracked = _window(total, priors, config.n_select, LATER_BATCH_ETA)
        t0 = time.perf_counter()
        table = neighborhood(pdata, batch, config.k)
        search_s += time.perf_counter() - t0
        records += table.emitted_records
        measured += table.measured_pairs
        locator_bytes += table.emitted_bytes
        instance_bytes += table.full_instance_bytes
        t0 = time.perf_counter()
        if collect and total is None:
            # The first batch's window comes from its own weights: weigh
            # the pairs, then fold the same pairs' collisions for it.
            stats = estimate_batch(pdata, batch, table)
            tracked = _window(stats, priors, config.n_select, FIRST_BATCH_ETA)
            folded = estimate_batch(pdata, batch, table, tracked=tracked,
                                    kappa=config.kappa, weigh=False)
            stats = replace(stats, collisions=folded.collisions)
        else:
            stats = estimate_batch(pdata, batch, table, tracked=tracked,
                                   kappa=config.kappa)
        total = stats if total is None else merge_stats(total, stats)
        estimate_s += time.perf_counter() - t0
    timings["search_s"] = search_s
    timings["estimate_s"] = estimate_s

    weights = belief_weights(total, priors)
    t0 = time.perf_counter()
    redundancy = compute_mcr(total.collisions) if collect else None
    timings["redundancy_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = sfs(weights, redundancy, config.n_select, config.theta)
    timings["select_s"] = time.perf_counter() - t0

    result.metadata = {
        "config": asdict(config),
        "n_instances": dataset.n_instances,
        "n_features": n,
        "n_classes": dataset.n_classes,
        "sample_size": sum(len(b) for b in batches),
        "timings": timings,
        "locator_records": records,
        "measured_pairs": measured,
        "locator_bytes": locator_bytes,
        "full_instance_bytes": instance_bytes,
    }
    return result
