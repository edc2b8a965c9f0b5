"""Partitioned distance-based feature weighting and selection.

The engine ranks features by accumulated near-hit/near-miss distances over
partition-local neighbor searches and filters redundancy with a collision
counting measure; classic single-threaded weighting rules and a mutual
information baseline ship alongside as references.
"""

from .dataset import (Dataset, FeatureKind, PartitionedDataset, SampleBatch,
                      draw_sample, parse_csv, parse_libsvm, partition,
                      zscore_normalize)
from .errors import DataError, IntegrityError
from .neighbors import NeighborTable, instance_distance, neighborhood
from .estimation import (ClassDistanceStats, WeightVector, belief_weights,
                         estimate_batch, relief_reference, relieff_reference)
from .redundancy import (CollisionTables, RedundancyTable, collision_rate,
                         compute_mcr, eta_tracked)
from .selection import RankingResult, SelectorConfig, minmax_normalize, run_belief, sfs
from .baselines import discretize_equal_width, mrmr_select, mutual_information
from .benchdata import GroundTruth, generate, success_score
from .evaluation import cross_validate, evaluate, knn_classify

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FeatureKind", "PartitionedDataset", "SampleBatch",
    "draw_sample", "parse_csv", "parse_libsvm", "partition", "zscore_normalize",
    "DataError", "IntegrityError",
    "NeighborTable", "instance_distance", "neighborhood",
    "ClassDistanceStats", "WeightVector", "belief_weights", "estimate_batch",
    "relief_reference", "relieff_reference",
    "CollisionTables", "RedundancyTable", "collision_rate", "compute_mcr",
    "eta_tracked",
    "RankingResult", "SelectorConfig", "minmax_normalize", "run_belief", "sfs",
    "discretize_equal_width", "mrmr_select", "mutual_information",
    "GroundTruth", "generate", "success_score",
    "cross_validate", "evaluate", "knn_classify",
    "__version__",
]
