"""Ground-truth divergence by deterministic quadrature, plus the
translation of a divergence value into Bayes classification error bounds.

The divergence functional is

    D_p(f_X, f_Y) = 1 - integral  f_X(x) f_Y(x) / (p f_X(x) + q f_Y(x)) dx

evaluated on tensor-product trapezoid grids (dims <= 3), refined by node
doubling until successive values agree to 1e-6. Deterministic quadrature
keeps regression values stable, which Monte Carlo would not.

For p = 1/2 the divergence brackets the two-class Bayes error:

    (1 - sqrt(D))/2  <=  error  <=  (1 - D)/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import HPDivError

KIND_TRUNC_NORMAL = "tnorm"
KIND_UNIFORM = "uniform"

# starting nodes per axis and refinement caps, by dimension
_GRID_START = {1: 2001, 2: 401, 3: 101}
_GRID_CAP = {1: 32001, 2: 1601, 3: 401}
_REFINE_TOL = 1e-6
_SLAB = 1 << 22  # max points evaluated per chunk


class DimTooHigh(HPDivError):
    """Tensor-grid quadrature only supports up to 3 dimensions."""


class UnsupportedP(HPDivError):
    """Bayes error bounds are implemented for p = 1/2 only."""


class NonOverlappingSupportWarning(UserWarning):
    """The two specs carry different boxes; integrating over the union."""


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Analytic density on an axis-aligned box: truncated normal or uniform.

    Truncated normals renormalize the Gaussian mass inside the box; the
    normalizer is computed by the same trapezoid quadrature the divergence
    integral uses (per-axis products for diagonal covariance, a full grid
    otherwise).
    """

    kind: str
    box: np.ndarray                 # (d, 2) finite bounds, lower < upper
    mean: np.ndarray | None = None  # (d,), tnorm only
    cov: np.ndarray | None = None   # (d,) diagonal or (d, d) full, tnorm only

    def __post_init__(self):
        box = np.array(self.box, dtype=np.float64)
        if box.ndim != 2 or box.shape[1] != 2:
            raise HPDivError("box must have shape (d, 2)")
        if not np.isfinite(box).all() or not (box[:, 0] < box[:, 1]).all():
            raise HPDivError("box bounds must be finite with lower < upper")
        box.flags.writeable = False
        object.__setattr__(self, "box", box)
        if self.kind == KIND_TRUNC_NORMAL:
            mean = np.array(self.mean, dtype=np.float64).reshape(-1)
            cov = np.array(self.cov, dtype=np.float64)
            if cov.ndim == 0:
                cov = np.full(mean.size, float(cov))
            if mean.size != box.shape[0]:
                raise HPDivError("mean length must match box dimension")
            if cov.ndim == 1:
                if cov.size != mean.size or (cov <= 0).any():
                    raise HPDivError("diagonal covariance must be positive")
            elif cov.ndim == 2:
                if cov.shape != (mean.size, mean.size):
                    raise HPDivError("covariance must be (d, d)")
                if np.linalg.eigvalsh(cov).min() <= 0:
                    raise HPDivError("covariance must be positive definite")
            else:
                raise HPDivError("covariance must be a scalar, vector, or matrix")
            mean.flags.writeable = False
            cov.flags.writeable = False
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "cov", cov)
        elif self.kind == KIND_UNIFORM:
            object.__setattr__(self, "mean", None)
            object.__setattr__(self, "cov", None)
        else:
            raise HPDivError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "_mass", self._truncated_mass())

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionSpec):
            return NotImplemented
        if self.kind != other.kind or not np.array_equal(self.box, other.box):
            return False
        if self.kind == KIND_UNIFORM:
            return True
        return (
            np.array_equal(self.mean, other.mean)
            and self.cov.shape == other.cov.shape
            and np.array_equal(self.cov, other.cov)
        )

    def _gauss_unnormalized(self, x: np.ndarray) -> np.ndarray:
        """Gaussian density without the truncation renormalizer."""
        diff = x - self.mean
        if self.cov.ndim == 1:
            quad = ((diff * diff) / self.cov).sum(axis=-1)
            norm = math.sqrt((2 * math.pi) ** self.dim * float(np.prod(self.cov)))
        else:
            inv = np.linalg.inv(self.cov)
            quad = np.einsum("...i,ij,...j->...", diff, inv, diff)
            norm = math.sqrt(
                (2 * math.pi) ** self.dim * float(np.linalg.det(self.cov))
            )
        return np.exp(-0.5 * quad) / norm

    def _truncated_mass(self) -> float:
        if self.kind == KIND_UNIFORM:
            return 1.0
        if self.cov.ndim == 1:
            mass = 1.0
            for j in range(self.dim):
                mu, s2 = float(self.mean[j]), float(self.cov[j])
                lo, hi = self.box[j]

                def axis_pdf(t, mu=mu, s2=s2):
                    return np.exp(-0.5 * (t[:, 0] - mu) ** 2 / s2) / math.sqrt(
                        2 * math.pi * s2
                    )

                mass *= _refined_trapezoid(axis_pdf, np.array([[lo, hi]]), 1)
            return mass
        if self.dim > 3:
            raise DimTooHigh(
                "full-covariance truncation needs a tensor grid; dim <= 3 only"
            )
        return _refined_trapezoid(self._gauss_unnormalized, self.box, self.dim)


def truncated_normal(mean, cov, box) -> DistributionSpec:
    """Normal(mean, cov) renormalized to an axis-aligned box."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    box = _as_box(box, mean.size)
    return DistributionSpec(kind=KIND_TRUNC_NORMAL, box=box, mean=mean, cov=cov)


def uniform_box(box) -> DistributionSpec:
    """Uniform density on an axis-aligned box."""
    box = np.asarray(box, dtype=np.float64)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    return DistributionSpec(kind=KIND_UNIFORM, box=box)


def _as_box(box, dim: int) -> np.ndarray:
    box = np.asarray(box, dtype=np.float64)
    if box.ndim == 1 and box.size == 2:
        box = np.tile(box, (dim, 1))
    return box


def density(spec: DistributionSpec, x) -> np.ndarray | float:
    """Normalized density of the spec at point(s) x; zero outside the box."""
    pts = np.asarray(x, dtype=np.float64)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != spec.dim:
        raise HPDivError(f"points must have dimension {spec.dim}")
    inside = (
        (pts >= spec.box[:, 0]) & (pts <= spec.box[:, 1])
    ).all(axis=1)
    if spec.kind == KIND_UNIFORM:
        volume = float(np.prod(spec.box[:, 1] - spec.box[:, 0]))
        vals = np.where(inside, 1.0 / volume, 0.0)
    else:
        vals = np.where(
            inside, spec._gauss_unnormalized(pts) / spec._mass, 0.0
        )
    return float(vals[0]) if scalar else vals


def _tensor_trapezoid(f, box: np.ndarray, n_nodes: int) -> float:
    """Composite trapezoid of f over the box with n_nodes per axis."""
    dim = box.shape[0]
    axes, weights = [], []
    for j in range(dim):
        lo, hi = box[j]
        nodes = np.linspace(lo, hi, n_nodes)
        h = (hi - lo) / (n_nodes - 1)
        wj = np.full(n_nodes, h)
        wj[0] = wj[-1] = h / 2.0
        axes.append(nodes)
        weights.append(wj)
    total = 0.0
    # evaluate in slabs along the first axis to bound memory
    per_plane = n_nodes ** (dim - 1)
    step = max(1, _SLAB // max(per_plane, 1))
    rest = axes[1:]
    rest_mesh = (
        np.stack(np.meshgrid(*rest, indexing="ij"), axis=-1).reshape(-1, dim - 1)
        if dim > 1
        else None
    )
    rest_w = (
        np.prod(
            np.stack(np.meshgrid(*weights[1:], indexing="ij"), axis=-1), axis=-1
        ).reshape(-1)
        if dim > 1
        else None
    )
    for start in range(0, n_nodes, step):
        chunk = axes[0][start : start + step]
        if dim == 1:
            vals = np.asarray(f(chunk.reshape(-1, 1)))
            total += float((vals * weights[0][start : start + step]).sum())
        else:
            pts = np.empty((len(chunk), per_plane, dim))
            pts[..., 0] = chunk[:, None]
            pts[..., 1:] = rest_mesh[None, :, :]
            vals = np.asarray(f(pts.reshape(-1, dim))).reshape(len(chunk), per_plane)
            total += float(
                (weights[0][start : start + step] @ (vals @ rest_w))
            )
    return total


def _refined_trapezoid(f, box: np.ndarray, dim: int, n: int | None = None) -> float:
    n = _GRID_START[dim] if n is None else n
    prev = _tensor_trapezoid(f, box, n)
    while 2 * (n - 1) + 1 <= _GRID_CAP[dim]:
        n = 2 * (n - 1) + 1
        cur = _tensor_trapezoid(f, box, n)
        if abs(cur - prev) < _REFINE_TOL:
            return cur
        prev = cur
    return prev


def true_divergence(
    fx: DistributionSpec,
    fy: DistributionSpec,
    p: float,
    grid: int | None = None,
) -> float:
    """Quadrature value of D_p between two analytic specs (dims <= 3)."""
    if fx.dim != fy.dim:
        raise HPDivError("specs must share an ambient dimension")
    dim = fx.dim
    if dim > 3:
        raise DimTooHigh(f"quadrature supports dim <= 3, got {dim}")
    if not (0.0 < p < 1.0):
        raise HPDivError(f"p must lie in (0, 1), got {p}")
    q = 1.0 - p
    box = fx.box
    if not np.array_equal(fx.box, fy.box):
        warnings.warn(
            "specs carry different boxes; integrating over the union "
            "(densities vanish outside their own box)",
            NonOverlappingSupportWarning,
            stacklevel=2,
        )
        box = np.column_stack(
            [
                np.minimum(fx.box[:, 0], fy.box[:, 0]),
                np.maximum(fx.box[:, 1], fy.box[:, 1]),
            ]
        )

    def integrand(pts):
        a = density(fx, pts)
        b = density(fy, pts)
        den = p * a + q * b
        return np.divide(a * b, den, out=np.zeros_like(den), where=den > 0)

    if grid is not None and grid < 2:
        raise HPDivError("grid must have at least 2 nodes per axis")
    value = _refined_trapezoid(integrand, box, dim, grid)
    return float(min(1.0, max(0.0, 1.0 - value)))


@dataclass(frozen=True)
class BayesBounds:
    """Bracket [lower, upper] on the two-class Bayes error at prior p."""

    lower: float
    upper: float
    p: float

    def __post_init__(self):
        limit = min(self.p, 1.0 - self.p)
        if not (0.0 <= self.lower <= self.upper <= limit + 1e-15):
            raise HPDivError(
                f"invalid bounds [{self.lower}, {self.upper}] for p={self.p}"
            )


def bayes_bounds(d_p: float, p: float) -> BayesBounds:
    """Bayes error bracket from a divergence value (p = 1/2 only).

    The input divergence is clamped into [0, 1] first, so raw (possibly
    negative) small-sample estimates are accepted.
    """
    if p != 0.5:
        raise UnsupportedP("bounds are only tight (and implemented) for p = 1/2")
    d = min(1.0, max(0.0, float(d_p)))
    return BayesBounds(lower=(1.0 - math.sqrt(d)) / 2.0, upper=(1.0 - d) / 2.0, p=0.5)
