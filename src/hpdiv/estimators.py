"""Neighbor-count divergence estimators over a pooled two-sample set.

Both estimators share one statistic family: for each point of Z = X u Y,
look at its rank-k nearest neighbor and record whether the labels differ.
With |E_k| such dichotomous points,

    knn:  value = 1 - |E_k| (N+M)/(2NM)
    wnn:  value = 1 - [sum_l W(l) |E_K(l)|] (N+M)/(2NM)

The weighted form is identically a weighted sum of plain k-NN estimates,
because sum_l W(l) = 1; both readings must (and do) agree.

Estimates are reported unclamped by default: the affine statistic is
negative whenever the dichotomous count exceeds 2NM/(N+M), which happens
routinely at small samples, and clamping would bias downstream moment
studies.
"""

from __future__ import annotations

import numpy as np

from .core import (
    EstimateResult,
    JointSet,
    KCollision,
    KTooLarge,
    METHOD_KNN,
    METHOD_WNN,
    PointCloud,
    finish_estimate,
    validate_pair,
    worker_count,
)
from .neighbors import NeighborIndex, build_index, neighbor_ranks
from .weights import UnresolvedSchedule, WeightSchedule


def dichotomous_counts(z: JointSet, idx: NeighborIndex, ks, workers: int = 1) -> dict[int, int]:
    """|E_k| for every rank in ks, from one neighbor pass that reads only ks
    (its kd queries on ``workers`` threads)."""
    ks = sorted({int(k) for k in ks})
    if not ks:
        return {}
    opposite = z.labels[neighbor_ranks(idx, ks, workers)] != z.labels[:, None]
    return {k: int(c) for k, c in zip(ks, opposite.sum(axis=0))}


def count_dichotomous(z: JointSet, idx: NeighborIndex, k: int) -> int:
    """Number of points whose rank-k neighbor carries the opposite label."""
    return dichotomous_counts(z, idx, [k])[int(k)]


def affine_map(count: float, n: int, m: int) -> float:
    """The shared count-to-divergence transform 1 - count (N+M)/(2NM)."""
    return 1.0 - count * (n + m) / (2.0 * n * m)


def weighted_total(schedule: WeightSchedule, counts: dict[int, int]) -> float:
    """The ensemble statistic sum_l W(l) |E_K(l)| from per-rank counts."""
    return float(sum(w * counts[int(k)] for w, k in zip(schedule.w, schedule.k_values)))


def knn_estimate(
    x: PointCloud, y: PointCloud, k: int, p: float, clamp: bool = False
) -> EstimateResult:
    """Rank-k neighbor estimate of the divergence between samples x and y."""
    z = validate_pair(x, y, p)
    idx = build_index(z)
    count = dichotomous_counts(z, idx, [k], worker_count())[int(k)]
    value, clamped = finish_estimate(affine_map(count, z.n_x, z.n_y), clamp)
    return EstimateResult(
        value=value,
        method=METHOD_KNN,
        n=z.n_x,
        m=z.n_y,
        p=float(p),
        params={"k": int(k), "dichotomous_count": count},
        clamped=clamped,
    )


def _check_schedule(schedule: WeightSchedule, pooled: int) -> np.ndarray:
    if schedule.k_values is None:
        raise UnresolvedSchedule("schedule has no resolved k_values; call resolve_schedule")
    k = np.asarray(schedule.k_values, dtype=np.int64)
    if len(np.unique(k)) != k.size:
        raise KCollision(f"schedule ranks contain duplicates: {k.tolist()}")
    if k.min() < 1 or k.max() > pooled - 1:
        raise KTooLarge(
            f"schedule ranks must lie in [1, {pooled - 1}], got "
            f"{k.min()}..{k.max()}"
        )
    return k


def wnn_estimate(
    x: PointCloud,
    y: PointCloud,
    schedule: WeightSchedule,
    p: float,
    clamp: bool = False,
) -> EstimateResult:
    """Weighted ensemble of rank-K(l) neighbor counts under one schedule."""
    z = validate_pair(x, y, p)
    k_values = _check_schedule(schedule, len(z))
    idx = build_index(z)
    counts = dichotomous_counts(z, idx, k_values.tolist(), worker_count())
    total = weighted_total(schedule, counts)
    value, clamped = finish_estimate(affine_map(total, z.n_x, z.n_y), clamp)
    return EstimateResult(
        value=value,
        method=METHOD_WNN,
        n=z.n_x,
        m=z.n_y,
        p=float(p),
        params={
            "l_values": np.asarray(schedule.l_values).tolist(),
            "weights": np.asarray(schedule.w).tolist(),
            "k_values": k_values.tolist(),
        },
        clamped=clamped,
    )
