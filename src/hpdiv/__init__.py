"""Graph-based divergence estimation between two multivariate samples.

Three estimators over the pooled sample Z = X u Y share one statistic
family (an affine map of a dichotomous count): a single-rank neighbor
estimator, a weighted neighbor ensemble, and the MST dichotomous-edge
count. A quadrature oracle supplies ground truth for synthetic densities,
and divergence values translate into Bayes classification error bounds at
p = 1/2.
"""

from .core import (
    DimensionMismatch,
    EmptyCloud,
    EstimateResult,
    HPDivError,
    InvalidP,
    JointSet,
    KCollision,
    KTooLarge,
    MixtureParam,
    PointCloud,
    SampleRatioWarning,
    validate_pair,
)
from .estimators import knn_estimate, wnn_estimate
from .mst import SpanningTree, TooFewPoints, build_emst, mst_estimate
from .neighbors import NeighborIndex, build_index, kth_neighbor, neighbor_table
from .oracle import (
    BayesBounds,
    DimTooHigh,
    DistributionSpec,
    NonOverlappingSupportWarning,
    RefinementCapWarning,
    bayes_bounds,
    density,
    true_divergence,
    truncated_normal,
    uniform_box,
)
from .synth import RejectionStall, SamplerState, make_state, sample, trial_seed
from .weights import (
    SingularConstraints,
    UnresolvedSchedule,
    WeightSchedule,
    default_l_values,
    resolve_schedule,
    solve_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BayesBounds",
    "DimTooHigh",
    "DimensionMismatch",
    "DistributionSpec",
    "EmptyCloud",
    "EstimateResult",
    "HPDivError",
    "InvalidP",
    "JointSet",
    "KCollision",
    "KTooLarge",
    "MixtureParam",
    "NeighborIndex",
    "NonOverlappingSupportWarning",
    "PointCloud",
    "RefinementCapWarning",
    "RejectionStall",
    "SamplerState",
    "SampleRatioWarning",
    "SingularConstraints",
    "SpanningTree",
    "TooFewPoints",
    "UnresolvedSchedule",
    "WeightSchedule",
    "bayes_bounds",
    "build_emst",
    "build_index",
    "density",
    "default_l_values",
    "knn_estimate",
    "kth_neighbor",
    "make_state",
    "mst_estimate",
    "neighbor_table",
    "resolve_schedule",
    "sample",
    "solve_weights",
    "trial_seed",
    "true_divergence",
    "truncated_normal",
    "uniform_box",
    "validate_pair",
    "wnn_estimate",
]
