"""Neighbor-count divergence estimators over a pooled two-sample set.

For each point of Z = X u Y, look at its rank-k nearest neighbor and record
whether the labels differ; |E_k| counts such dichotomous points. Both
estimators map one weighted sum of these counts,

    value = 1 - [sum_l W(l) |E_K(l)|] (N+M)/(2NM)

wnn with the ranks K(l) and weights W(l) of its schedule, knn with the one
rank k and weight 1. As sum_l W(l) = 1, wnn is identically the W-weighted
sum of knn estimates. ``neighbor_statistics`` computes the sums for both
estimators and for the Monte Carlo bench, from one neighbor pass.

Estimates are reported unclamped by default: the affine statistic is
negative whenever the dichotomous count exceeds 2NM/(N+M), which happens
routinely at small samples, and clamping would bias downstream moment
studies.
"""

from __future__ import annotations

import numpy as np

from .core import (  # noqa: F401  (affine_map is re-exported for callers of this module)
    EstimateResult,
    JointSet,
    METHOD_KNN,
    METHOD_WNN,
    PointCloud,
    affine_map,
    estimate_result,
    validate_pair,
    worker_count,
)
from .neighbors import NeighborIndex, build_index, checked_ranks, neighbor_ranks
from .weights import WeightSchedule


def dichotomous_counts(z: JointSet, idx: NeighborIndex, ks, workers: int = 1) -> dict[int, int]:
    """|E_k| for every rank in ks, from one neighbor pass that reads only ks
    (its kd queries or row sorts on ``workers`` threads)."""
    ks = sorted(set(ks))
    if not ks:
        return {}
    opposite = z.labels[neighbor_ranks(idx, ks, workers)] != z.labels[:, None]
    return {int(k): int(c) for k, c in zip(ks, opposite.sum(axis=0))}


def neighbor_statistics(z: JointSet, sums: dict, workers: int = 1) -> dict:
    """sum_l weights[l] |E_ranks[l]| for each ``key: (ranks, weights)`` of
    sums, from one neighbor pass over the union of the ranks, which
    ``neighbors.checked_ranks`` has passed for |z| points. The sum keeps the
    entry's order, and stays an int for integer weights.
    """
    ks = {k for ranks, _ in sums.values() for k in ranks}
    counts = dichotomous_counts(z, build_index(z), ks, workers) if ks else {}
    return {
        key: sum(w * counts[int(k)] for w, k in zip(weights, ranks))
        for key, (ranks, weights) in sums.items()
    }


def _statistic(z: JointSet, ranks, weights):
    """One weighted count on all the threads HPDIV_THREADS allows."""
    sums = {0: (checked_ranks(ranks, len(z)), weights)}
    return neighbor_statistics(z, sums, worker_count())[0]


def knn_estimate(
    x: PointCloud, y: PointCloud, k: int, p: float, clamp: bool = False
) -> EstimateResult:
    """Rank-k neighbor estimate of the divergence between samples x and y."""
    z = validate_pair(x, y, p)
    count = _statistic(z, [k], [1])
    return estimate_result(
        METHOD_KNN, z, count, p, clamp, {"k": int(k), "dichotomous_count": count}
    )


def wnn_estimate(
    x: PointCloud, y: PointCloud, schedule: WeightSchedule, p: float, clamp: bool = False
) -> EstimateResult:
    """Weighted ensemble of rank-K(l) neighbor counts under one schedule."""
    z = validate_pair(x, y, p)
    total = _statistic(z, schedule.k_values, schedule.w)
    params = {
        "l_values": np.asarray(schedule.l_values).tolist(),
        "weights": np.asarray(schedule.w).tolist(),
        "k_values": np.asarray(schedule.k_values, dtype=np.int64).tolist(),
    }
    return estimate_result(METHOD_WNN, z, total, p, clamp, params)
