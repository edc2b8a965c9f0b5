"""Partitioned distance-based feature weighting and selection.

The engine ranks features by accumulated near-hit/near-miss distances over
partition-local neighbor searches and filters redundancy with a collision
counting measure; a greedy mutual information ranker (mRMR) ships alongside
as a baseline.
"""

from .dataset import (Dataset, FeatureKind, PartitionedDataset, SampleBatch,
                      draw_sample, parse_csv, parse_libsvm, partition,
                      zscore_normalize)
from .errors import DataError, IntegrityError
from .neighbors import NeighborTable, neighborhood
from .estimation import ClassDistanceStats, WeightVector, belief_weights, estimate_batch
from .redundancy import CollisionTables, RedundancyTable, compute_mcr
from .selection import RankingResult, SelectorConfig, minmax_normalize, run_belief, sfs
from .baselines import discretize_equal_width, mrmr_select
from .benchdata import GroundTruth, generate, success_score
from .evaluation import cross_validate, evaluate, knn_classify

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FeatureKind", "PartitionedDataset", "SampleBatch",
    "draw_sample", "parse_csv", "parse_libsvm", "partition", "zscore_normalize",
    "DataError", "IntegrityError",
    "NeighborTable", "neighborhood",
    "ClassDistanceStats", "WeightVector", "belief_weights", "estimate_batch",
    "CollisionTables", "RedundancyTable", "compute_mcr",
    "RankingResult", "SelectorConfig", "minmax_normalize", "run_belief", "sfs",
    "discretize_equal_width", "mrmr_select",
    "GroundTruth", "generate", "success_score",
    "cross_validate", "evaluate", "knn_classify",
    "__version__",
]
