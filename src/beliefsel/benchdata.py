"""Synthetic benchmark generators with known ground truth.

Every generator is deterministic per seed and returns the raw (unscaled)
dataset plus a GroundTruth describing which features are relevant, which
are redundant, and (for the grouped design) which features form redundancy
groups.  ``success_score`` turns a selection into a single number on the
[~0, 1] scale: the covered fraction of the relevant side minus a small
penalty for picking redundant features.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DataError

__all__ = ["GroundTruth", "generate", "success_score", "GENERATORS"]


@dataclass(frozen=True)
class GroundTruth:
    """Which features matter in a synthetic dataset.

    When ``groups`` is set, the relevant signal lives in interchangeable
    groups: covering a group once counts as one relevant pick and every
    extra pick inside an already covered group counts as redundant.
    """

    n_features: int
    relevant: tuple
    redundant: tuple = ()
    groups: tuple | None = None

    def irrelevant(self) -> tuple:
        used = set(self.relevant) | set(self.redundant)
        return tuple(j for j in range(self.n_features) if j not in used)

    def to_json_obj(self) -> dict:
        return {
            "n_features": self.n_features,
            "relevant": list(self.relevant),
            "redundant": list(self.redundant),
            "groups": None if self.groups is None else [list(g) for g in self.groups],
        }

    @classmethod
    def from_json_obj(cls, doc: dict) -> "GroundTruth":
        for key in ("n_features", "relevant"):
            if not isinstance(doc, dict) or key not in doc:
                raise DataError(f"ground truth has no {key!r} key")
        groups = doc.get("groups")
        return cls(
            n_features=int(doc["n_features"]),
            relevant=tuple(doc["relevant"]),
            redundant=tuple(doc.get("redundant", ())),
            groups=None if groups is None else tuple(tuple(g) for g in groups),
        )

    def write(self, stream: IO[str]) -> None:
        json.dump(self.to_json_obj(), stream, indent=2)
        stream.write("\n")

    @classmethod
    def read(cls, stream: IO[str]) -> "GroundTruth":
        try:
            return cls.from_json_obj(json.load(stream))
        except (json.JSONDecodeError, DataError) as exc:
            raise DataError(f"{getattr(stream, 'name', 'ground truth')}: {exc}") from None


def success_score(selected: Sequence[int], truth: GroundTruth,
                  zeta: float = 0.1) -> float:
    """Relevant coverage minus ``zeta`` times redundant coverage.

    Two relevant picks and one redundant pick out of three-of-each give
    2/3 - zeta/3; a clean sweep gives exactly 1.  A truth with no redundant
    side contributes no penalty.
    """
    sel = set(int(j) for j in selected)
    if any(j < 0 or j >= truth.n_features for j in sel):
        raise DataError("selected feature outside the truth's feature space")
    if truth.groups is not None:
        per_group = [len(sel & set(g)) for g in truth.groups]
        s_rel = sum(1 for c in per_group if c > 0)
        x_rel = len(truth.groups)
        s_red = sum(c - 1 for c in per_group if c > 1)
        x_red = sum(len(g) - 1 for g in truth.groups)
    else:
        s_rel = len(sel & set(truth.relevant))
        x_rel = len(truth.relevant)
        s_red = len(sel & set(truth.redundant))
        x_red = len(truth.redundant)
    if x_rel == 0:
        raise DataError("ground truth marks no relevant features")
    score = s_rel / x_rel
    if x_red > 0:
        score -= zeta * (s_red / x_red)
    return score


# -- generators ------------------------------------------------------------


def _bit_dataset(bits: np.ndarray, labels: np.ndarray) -> Dataset:
    return Dataset(bits.astype(np.float64), labels, np.zeros(bits.shape[1], dtype=bool))


def _parity33(seed: int):
    """64 x 12 bits: 3 parity bits, 3 exact copies, 6 random bits.

    Every pattern of the three class-determining bits appears exactly eight
    times, so the class (their parity) is perfectly balanced and each bit
    is marginally independent of it.
    """
    rng = np.random.default_rng(seed)
    m = 64
    bits = np.zeros((m, 12), dtype=np.int64)
    for i in range(m):
        pattern = i % 8
        bits[i, 0] = (pattern >> 2) & 1
        bits[i, 1] = (pattern >> 1) & 1
        bits[i, 2] = pattern & 1
    bits[:, 3:6] = bits[:, 0:3]
    bits[:, 6:12] = rng.integers(0, 2, size=(m, 6))
    labels = bits[:, 0] ^ bits[:, 1] ^ bits[:, 2]
    truth = GroundTruth(n_features=12, relevant=(0, 1, 2), redundant=(3, 4, 5))
    return _bit_dataset(bits, labels), truth


def _corral100(seed: int):
    """32 x 99 bits; class = (f0 and f1) or (f2 and f3), the rest random."""
    rng = np.random.default_rng(seed)
    m = 32
    bits = np.zeros((m, 99), dtype=np.int64)
    for i in range(m):
        pattern = i % 16
        for b in range(4):
            bits[i, b] = (pattern >> (3 - b)) & 1
    bits[:, 4:] = rng.integers(0, 2, size=(m, 95))
    labels = (bits[:, 0] & bits[:, 1]) | (bits[:, 2] & bits[:, 3])
    truth = GroundTruth(n_features=99, relevant=(0, 1, 2, 3))
    return _bit_dataset(bits, labels), truth


def _xor100(seed: int):
    """50 x 99 bits; class = f0 xor f1, the rest random."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(50, 99))
    labels = bits[:, 0] ^ bits[:, 1]
    truth = GroundTruth(n_features=99, relevant=(0, 1))
    return _bit_dataset(bits, labels), truth


def _sd3(seed: int):
    """75 x 4060, three balanced classes; six groups of ten nearly
    collinear class-informative features, then 4000 pure-noise features.

    Features inside a group are affine images of one shared class-shifted
    signal plus a small jitter, so within-group correlations stay near 1.
    Groups correlate with each other only through the shared class
    structure (each has its own center permutation and its own noise),
    well below the within-group level.
    """
    rng = np.random.default_rng(seed)
    m = 75
    labels = np.arange(m) % 3
    X = np.empty((m, 4060))
    groups = []
    # Each group gets its own permutation of the class centers, so no two
    # groups share a class-mean pattern.
    patterns = sorted(itertools.permutations((0.0, 2.0, 4.0)))
    for g in range(6):
        centers = np.array(patterns[g])
        base = centers[labels] + rng.standard_normal(m)
        cols = []
        for j in range(10):
            col = 10 * g + j
            cols.append(col)
            scale = rng.uniform(0.6, 1.4)
            shift = rng.uniform(-1.0, 1.0)
            X[:, col] = scale * base + shift + 0.05 * rng.standard_normal(m)
        groups.append(tuple(cols))
    X[:, 60:] = rng.standard_normal((m, 4000))
    truth = GroundTruth(n_features=4060, relevant=tuple(range(60)),
                        groups=tuple(groups))
    ds = Dataset(X, labels, np.ones(4060, dtype=bool))
    return ds, truth


def _madelon(seed: int):
    """2400 x 500: five informative cluster dimensions, fifteen linear
    combinations of them, 480 noise features.

    Instances sit near the vertices of a five-dimensional hypercube and the
    class is the parity of the vertex, so no informative feature carries
    marginal signal on its own.
    """
    rng = np.random.default_rng(seed)
    m = 2400
    vertices = rng.integers(0, 2, size=(m, 5))
    labels = vertices.sum(axis=1) % 2
    X = np.empty((m, 500))
    X[:, :5] = (2.0 * vertices - 1.0) + 0.5 * rng.standard_normal((m, 5))
    combo = rng.standard_normal((5, 15))
    X[:, 5:20] = X[:, :5] @ combo
    X[:, 20:] = rng.standard_normal((m, 480))
    truth = GroundTruth(n_features=500, relevant=tuple(range(5)),
                        redundant=tuple(range(5, 20)))
    ds = Dataset(X, labels, np.ones(500, dtype=bool))
    return ds, truth


GENERATORS = {
    "parity33": _parity33,
    "corral100": _corral100,
    "xor100": _xor100,
    "sd3": _sd3,
    "madelon": _madelon,
}


def generate(name: str, seed: int = 0):
    """Build a named benchmark; returns (Dataset, GroundTruth)."""
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise DataError(
            f"unknown benchmark {name!r}; known: {', '.join(sorted(GENERATORS))}")
    return gen(seed)
