"""Sequential forward selection and the end-to-end weighting pipeline.

The pipeline: normalize, partition, sample, then per batch find neighbors
and accumulate the per-class distance matrices and collision tables.  The
accumulated matrices from all batches merge by addition; the weight formula
and one final forward selection run on the totals.  The relevance window
that limits joint collision tracking is refreshed between batches from the
weights accumulated so far (the first batch tracks every pair on feature
spaces up to the bootstrap limit, marginals only above it).

Selection scores a candidate as

    score(i) = w_norm(i) - theta * sum_{j in S} redundancy_norm(j, i)

with weights and redundancy values minmax-normalized independently.  The
penalty term grows incrementally: after each pick only the newly selected
feature's contribution is added to the remaining candidates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataset import Dataset, _zscore_on_read, draw_sample, partition
from .errors import DataError
from .estimation import (ClassDistanceStats, WeightVector, belief_weights,
                         estimate_batch, merge_stats)
from .neighbors import neighborhood
from .redundancy import (RedundancyTable, bootstrap_tracked, compute_mcr,
                         eta_tracked)

__all__ = [
    "SelectorConfig",
    "SelectedFeature",
    "RankingResult",
    "minmax_normalize",
    "sfs",
    "run_belief",
]


@dataclass
class SelectorConfig:
    """Knobs of the weighting/selection pipeline (defaults per the engine)."""

    n_select: int
    k: int = 3
    sample_rate: float = 1.0
    batches: int = 1
    theta: float = 0.5
    eta: float = 2.0
    kappa: float = 0.8
    partitions: int = 1
    seed: int = 0
    threshold: float | None = None


@dataclass
class SelectedFeature:
    feature: int
    weight: float
    normalized_weight: float
    penalty: float
    score: float


@dataclass
class RankingResult:
    """Ordered selection plus the full weight vector and run metadata."""

    selected: list
    weights: WeightVector
    metadata: dict = field(default_factory=dict)

    def selected_features(self) -> list[int]:
        return [s.feature for s in self.selected]

    def to_json_obj(self) -> dict:
        return {
            "selected": [asdict(s) for s in self.selected],
            "weights": self.weights.to_json_obj(),
            "method": self.weights.method,
            "metadata": self.metadata,
        }

    def to_text(self) -> str:
        lines = [f"{s.feature}\t{s.score:.6g}" for s in self.selected]
        return "\n".join(lines) + "\n"


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

    With ``theta`` 0 (or no redundancy table) this reduces to the top
    ``n_select`` features by weight.  Ties always break toward the lower
    feature index.
    """
    n = weights.values.shape[0]
    if not 1 <= n_select <= n:
        raise DataError(f"selection size {n_select} not in 1..{n}")
    wn = minmax_normalize(weights.values)
    penalize = theta != 0.0 and redundancy is not None
    penalty = np.zeros(n)
    remaining = np.ones(n, dtype=bool)
    selected: list[SelectedFeature] = []
    for _ in range(n_select):
        scores = wn - theta * penalty if penalize else wn
        cand = np.flatnonzero(remaining)
        best = int(cand[np.lexsort((cand, -scores[cand]))[0]])
        selected.append(SelectedFeature(
            feature=best,
            weight=float(weights.values[best]),
            normalized_weight=float(wn[best]),
            penalty=float(penalty[best]),
            score=float(scores[best]),
        ))
        remaining[best] = False
        if penalize:
            # One new term per candidate: the feature just picked.
            penalty += redundancy.normalized_row(best)
    return RankingResult(selected=selected, weights=weights)


def run_belief(dataset: Dataset, config: SelectorConfig) -> RankingResult:
    """Run the full pipeline on one dataset; see the module docstring.

    Collision tracking is skipped entirely when ``theta`` is 0, leaving a
    pure relevance ranking at no redundancy cost.
    """
    if not 1 <= config.n_select <= dataset.n_features:
        raise DataError(
            f"selection size {config.n_select} not in 1..{dataset.n_features}")
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
          else _zscore_on_read(dataset, workers=config.partitions))
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
    locator_bytes = 0
    instance_bytes = 0
    search_s = 0.0
    estimate_s = 0.0
    tracked = bootstrap_tracked(n)
    for batch in batches:
        if len(batch) == 0:
            continue
        t0 = time.perf_counter()
        table = neighborhood(pdata, batch, config.k)
        search_s += time.perf_counter() - t0
        records += table.emitted_records
        locator_bytes += table.emitted_bytes
        instance_bytes += table.full_instance_bytes
        t0 = time.perf_counter()
        stats = estimate_batch(
            pdata, batch, table, tracked=tracked, kappa=config.kappa,
            collect_collisions=collect)
        total = stats if total is None else merge_stats(total, stats)
        estimate_s += time.perf_counter() - t0
        # Refresh the relevance window for the next batch from the weights
        # accumulated so far.
        tracked = eta_tracked(belief_weights(total, priors).values,
                              config.n_select, config.eta)
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
        "locator_bytes": locator_bytes,
        "full_instance_bytes": instance_bytes,
    }
    if config.threshold is not None:
        wn = minmax_normalize(weights.values)
        result.metadata["above_threshold"] = [
            int(j) for j in np.flatnonzero(wn > config.threshold)]
    return result
