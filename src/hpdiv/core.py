"""Core domain types shared by every estimator: point clouds, the pooled
two-sample set, mixture parameters, and estimate results; and the one
thread fan-out, ``thread_map``, on HPDIV_THREADS threads and never nested.

All types are immutable after construction and safe to share across
threads. Distances throughout the package are Euclidean.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

_POOL = threading.local()  # ``inside`` is set on thread_map's pool threads


class HPDivError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HPDivError):
    """The two samples do not live in the same ambient dimension."""


class EmptyCloud(HPDivError):
    """A sample with zero points was supplied."""


class InvalidP(HPDivError):
    """Mixture parameter p outside the open interval (0, 1)."""


class KTooLarge(HPDivError):
    """Requested neighbor rank k outside the valid range [1, |Z| - 1]."""


class KCollision(HPDivError):
    """Two ensemble index values resolve to the same neighbor rank."""


class SampleRatioWarning(UserWarning):
    """Sample sizes deviate from the balanced-design ratio M = floor(N q / p)."""


@dataclass(frozen=True)
class PointCloud:
    """An ordered, finite sample of d-dimensional points.

    ``points`` is a read-only (n, dim) float64 copy of the input.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise HPDivError(f"points must be a 2-D array, got ndim={pts.ndim}")
        if pts.shape[0] == 0:
            raise EmptyCloud("point cloud must contain at least one point")
        if pts.shape[1] == 0:
            raise HPDivError("points must have at least one coordinate")
        if not np.isfinite(pts).all():
            raise HPDivError("point coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class JointSet:
    """The pooled sample Z: its first n_x points are X, the rest Y. ``n_y``
    and the read-only int8 ``labels`` (0 for X, 1 for Y) derive from n_x."""

    cloud: PointCloud
    n_x: int
    n_y: int = field(init=False)
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.cloud)
        if not 0 <= self.n_x <= n:
            raise HPDivError(f"n_x must lie in [0, {n}], got {self.n_x}")
        labels = np.ones(n, dtype=np.int8)
        labels[:self.n_x] = 0
        labels.flags.writeable = False
        object.__setattr__(self, "n_y", n - self.n_x)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.cloud)

    @property
    def points(self) -> np.ndarray:
        return self.cloud.points


@dataclass(frozen=True)
class MixtureParam:
    """Mixture prior p with its complement q = 1 - p."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if not (0.0 < p < 1.0) or not math.isfinite(p):
            raise InvalidP(f"p must lie in (0, 1), got {p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", 1.0 - p)


METHOD_KNN = "knn"
METHOD_WNN = "wnn"
METHOD_MST = "mst"


@dataclass(frozen=True)
class EstimateResult:
    """A divergence estimate plus the metadata needed to reproduce it.

    ``params`` is method-specific: {"k": int} for knn, the schedule fields
    for wnn, {"dichotomous_edges": int} for mst. When ``clamped`` is set the
    value was clipped into [0, 1]; otherwise the raw affine statistic is
    reported, which can be negative at small sample sizes.
    """

    value: float
    method: str
    n: int
    m: int
    p: float
    params: dict[str, Any]
    clamped: bool


def expected_m(n: int, p: float) -> int:
    """Balanced-design size floor(N q / p) for the second sample, below 2**53."""
    mix = MixtureParam(p)
    m = n * mix.q / mix.p
    if not m < 2.0**53:  # from 2**53 on a float64 skips whole numbers
        raise InvalidP(f"the balanced design floor(N q / p) overflows at N={n}, p={p!r}")
    return int(math.floor(m))


def validate_pair(x: PointCloud, y: PointCloud, p: float) -> JointSet:
    """Validate a two-sample input and pool it into a labeled JointSet.

    X points occupy indices 0..n_x-1 and Y points follow, preserving input
    order. Emits a SampleRatioWarning when |M - floor(Nq/p)| > 1; unbalanced
    designs are accepted because real datasets fix M independently.
    """
    if not isinstance(x, PointCloud):
        x = PointCloud(x)
    if not isinstance(y, PointCloud):
        y = PointCloud(y)
    MixtureParam(p)  # raises InvalidP
    z = pool_pair(x, y)
    n, m = z.n_x, z.n_y
    m_expected = expected_m(n, p)
    if abs(m - m_expected) > 1:
        warnings.warn(
            f"sample sizes deviate from the balanced design: "
            f"M={m} but floor(Nq/p)={m_expected} for N={n}, p={p}",
            SampleRatioWarning,
            stacklevel=2,
        )
    return z


def pool_pair(x: PointCloud, y: PointCloud) -> JointSet:
    """Pool two clouds of one dimension, X first, with no p check and no
    ratio warning (so threads need not touch the warning filters)."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"x has dim {x.dim} but y has dim {y.dim}")
    return JointSet(cloud=PointCloud(np.vstack([x.points, y.points])), n_x=len(x))


def affine_map(count: float, n: int, m: int) -> float:
    """The shared count-to-divergence transform 1 - count (N+M)/(2NM)."""
    return 1.0 - count * (n + m) / (2.0 * n * m)


def estimate_result(
    method: str, z: JointSet, statistic, p: float, clamp: bool, params: dict[str, Any]
) -> EstimateResult:
    """The EstimateResult of a dichotomous statistic on z: its affine map,
    clipped into [0, 1] when ``clamp`` is set."""
    value = affine_map(statistic, z.n_x, z.n_y)
    if clamp:
        value = min(1.0, max(0.0, value))
    return EstimateResult(
        value=float(value), method=method, n=z.n_x, m=z.n_y, p=float(p),
        params=params, clamped=bool(clamp),
    )


def parse_number(conv, text: str, what: str):
    """conv(text) for conv in (int, float); a malformed value raises an
    HPDivError naming ``what`` instead of a bare ValueError."""
    try:
        return conv(text)
    except ValueError:
        raise HPDivError(f"{what}: malformed number {text!r}") from None


def worker_count() -> int:
    """Threads a parallel stage may use: HPDIV_THREADS, where 0 or unset
    means the CPUs this process may run on; capped at that count and at 8."""
    raw = os.environ.get("HPDIV_THREADS", "").strip()
    cap = parse_number(int, raw, "HPDIV_THREADS") if raw else 0
    if cap < 0:
        raise HPDivError(f"HPDIV_THREADS must be 0 (auto) or positive, got {cap}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    auto = min(cpus or 1, 8)
    return min(cap, auto) if cap > 0 else auto


def thread_map(fn, items) -> list:
    """[fn(x) for x in items], in order: on a pool of worker_count() threads
    when that is above 1 and there is more than one item; else, and always
    when called from one of those pool threads, on the calling thread."""
    items = list(items)
    workers = 1 if getattr(_POOL, "inside", False) else worker_count()
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(workers, initializer=setattr,
                                initargs=(_POOL, "inside", True)) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
