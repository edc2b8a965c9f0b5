"""Seeded benchmark workloads: input generators and fixed selector configs.

Each workload is a generator that turns a seed into the input handed to the
selector (a ``Dataset`` for the dense workloads, LibSVM text for
``sparse-text``) plus the ground truth used for ``success``, and a fixed
``SelectorConfig``.  Generators use numpy only; ``beliefsel`` supplies the
``Dataset``/``GroundTruth`` containers and the ``sd3`` design, whose cost
lands in set-up time, never in the timed selection.

Why these three (see README.md for the measured splits; BENCHMARK.json
gates the first two, and sparse-text is run by hand because per-pair
Python timings swing too far on a shared machine):

* ``tall-search``: many rows, few features, theta=0.  Neighbor search and
  dense z-scoring dominate; collision work is skipped entirely.
* ``wide-collide``: few rows, 500 features, full sample, theta=0.5.  The
  bootstrap batch tracks every feature pair, so the collision update and
  the redundancy table dominate and search is negligible.
* ``sparse-text``: LibSVM text, so parsing, the lazy sparse z-scale, the
  per-pair sparse distance loop, sparse collisions and a two-batch merge
  all run on the timed path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from beliefsel import Dataset, FeatureKind, GroundTruth, SelectorConfig, generate

TALL_ROWS, TALL_FEATURES, TALL_PLANTED = 10_000, 500, 10
WIDE_FEATURES = 500
SPARSE_ROWS, SPARSE_FEATURES, SPARSE_PLANTED, SPARSE_NOISE_NNZ = 800, 500, 10, 8


@dataclass
class Input:
    """What the timed call receives, plus what the checks need."""

    payload: object          # Dataset or LibSVM text
    truth: GroundTruth
    digest: str              # sha256 of the generated input bytes


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Input]
    config: Callable[[int], SelectorConfig]
    text_input: bool = False


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _dense_input(X: np.ndarray, y: np.ndarray, truth: GroundTruth) -> Input:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    ds = Dataset(X, y, [FeatureKind.NUMERIC] * X.shape[1])
    return Input(ds, truth, _digest(X.tobytes(), y.tobytes()))


def make_tall(seed: int) -> Input:
    """10,000 x 500 N(0,1); 10 planted features shifted +1.0 in class 1."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((TALL_ROWS, TALL_FEATURES))
    y = rng.integers(0, 2, TALL_ROWS)
    y[:2] = (0, 1)
    planted = np.sort(rng.choice(TALL_FEATURES, TALL_PLANTED, replace=False))
    X[np.ix_(y == 1, planted)] += 1.0
    truth = GroundTruth(n_features=TALL_FEATURES,
                        relevant=tuple(int(j) for j in planted))
    return _dense_input(X, y, truth)


def make_wide(seed: int) -> Input:
    """sd3 cut to its first 500 columns: 75 x 500, six groups of ten."""
    ds, truth = generate("sd3", seed)
    X = ds.rows[:, :WIDE_FEATURES]
    cut = GroundTruth(n_features=WIDE_FEATURES, relevant=truth.relevant,
                      groups=truth.groups)
    return _dense_input(X, ds.labels, cut)


def make_sparse(seed: int) -> Input:
    """800 rows of LibSVM text over 500 features, two classes.

    Every row has 8 N(0,1) noise nonzeros among features 10..499; planted
    features 0..9 are present with probability 0.5 in class 1 and 0.1 in
    class 0, with value 1 + 0.3 N(0,1).
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, SPARSE_ROWS)
    y[:2] = (0, 1)
    p_present = np.where(y == 1, 0.5, 0.1)
    present = rng.random((SPARSE_ROWS, SPARSE_PLANTED)) < p_present[:, None]
    planted_vals = 1.0 + 0.3 * rng.standard_normal((SPARSE_ROWS, SPARSE_PLANTED))
    noise_vals = rng.standard_normal((SPARSE_ROWS, SPARSE_NOISE_NNZ))
    lines = []
    for i in range(SPARSE_ROWS):
        noise_idx = np.sort(rng.choice(
            np.arange(SPARSE_PLANTED, SPARSE_FEATURES), SPARSE_NOISE_NNZ,
            replace=False))
        toks = [str(int(y[i]))]
        toks += [f"{j + 1}:{float(v)!r}"
                 for j, v in zip(np.flatnonzero(present[i]),
                                 planted_vals[i][present[i]])]
        toks += [f"{int(j) + 1}:{float(v)!r}"
                 for j, v in zip(noise_idx, noise_vals[i])]
        lines.append(" ".join(toks))
    text = "\n".join(lines) + "\n"
    truth = GroundTruth(n_features=SPARSE_FEATURES,
                        relevant=tuple(range(SPARSE_PLANTED)))
    return Input(text, truth, _digest(text.encode()))


WORKLOADS = {w.name: w for w in (
    Workload(
        "tall-search",
        make_tall,
        lambda seed: SelectorConfig(n_select=20, k=3, sample_rate=0.05,
                                    batches=1, partitions=2, theta=0.0,
                                    seed=seed)),
    Workload(
        "wide-collide",
        make_wide,
        lambda seed: SelectorConfig(n_select=6, k=3, sample_rate=1.0,
                                    batches=1, partitions=2, theta=0.5,
                                    seed=seed)),
    Workload(
        "sparse-text",
        make_sparse,
        lambda seed: SelectorConfig(n_select=10, k=3, sample_rate=0.05,
                                    batches=2, partitions=1, theta=0.5,
                                    seed=seed),
        text_input=True),
)}
