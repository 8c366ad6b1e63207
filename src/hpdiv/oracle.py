"""Ground-truth divergence by deterministic quadrature, plus the
translation of a divergence value into Bayes classification error bounds.

The divergence functional is

    D_p(f_X, f_Y) = 1 - integral  f_X(x) f_Y(x) / (p f_X(x) + q f_Y(x)) dx

evaluated on tensor-product trapezoid grids (dims <= 3), refined by node
doubling until successive values agree to 1e-6. Deterministic quadrature
keeps regression values stable, which Monte Carlo would not.

The integrand comes from per-axis factors: each slab is an open mesh of
1-D node arrays, the box mask a product of per-axis masks and a diagonal
Gaussian's exponent the broadcast sum, in axis order, of (x_j - mu_j)^2/s2_j.
Each grid value is the same operations on the same operands, in the same
order, as on a materialized (points, d) array, so its bytes are too. A full
covariance is not separable and still builds points, one piece at a time.

Slabs fix the order of the sums: a grid is reduced one slab of whole planes
along the first axis at a time, each slab by one matrix-vector product,
whose row sums depend on how many rows BLAS sees in one call. Pieces bound
memory: each slab is written into one value buffer, reused for every slab
of the grid, by integrand calls on open meshes of at most _PIECE points.
A default-grid truth peaks at about 6.4 MB of traced memory at d = 2 and
33 MB (mostly the slab buffer) at d = 3.

At any prior p (q = 1 - p) the divergence brackets the two-class Bayes
error: with u = 4pq D_p + (p - q)^2,

    (1 - sqrt(u))/2  <=  error  <=  min((1 - u)/2, p, q),

which at p = 1/2 is (1 - sqrt(D))/2 <= error <= (1 - D)/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import HPDivError, MixtureParam

KIND_TRUNC_NORMAL = "tnorm"
KIND_UNIFORM = "uniform"

# starting nodes per axis and refinement caps, by dimension
_GRID_START = {1: 2001, 2: 401, 3: 101}
_GRID_CAP = {1: 32001, 2: 1601, 3: 401}
_REFINE_TOL = 1e-6
# Slab boundaries set the summation order, so they must not move. 2**15 per
# piece matched 2**16 and 2**17 in time with less memory at d = 2 (6.4
# against 8.0 and 11 MB); 2**12 was 1.7-2.2x slower.
_SLAB = 1 << 22  # max grid points per slab sum
_PIECE = 1 << 15  # max grid points per integrand call


class DimTooHigh(HPDivError):
    """Tensor-grid quadrature only supports up to 3 dimensions."""


class NonOverlappingSupportWarning(UserWarning):
    """The two specs carry different boxes; integrating over the union."""


class RefinementCapWarning(UserWarning):
    """Grid doubling reached its cap before two values agreed to _REFINE_TOL."""


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
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] < 1:
            raise HPDivError("box must have shape (d, 2) with d >= 1")
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
            if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
                raise HPDivError("mean and covariance must be finite")
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

    def _gauss_unnormalized(self, axes) -> np.ndarray:
        """Gaussian density without the truncation renormalizer, at the
        broadcast of the per-axis coordinate arrays ``axes``."""
        if self.cov.ndim == 1:
            # added in axis order, as numpy sums the last axis of a points array
            quad = sum(((x - mu) * (x - mu)) / s2 for x, mu, s2 in zip(axes, self.mean, self.cov))
            norm = math.sqrt((2 * math.pi) ** self.dim * float(np.prod(self.cov)))
        else:
            grid = np.broadcast_arrays(*axes)
            diff = np.stack(grid, axis=-1).reshape(-1, self.dim) - self.mean
            inv = np.linalg.inv(self.cov)
            quad = np.einsum("...i,ij,...j->...", diff, inv, diff).reshape(grid[0].shape)
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
                    return np.exp(-0.5 * (t[0] - mu) ** 2 / s2) / math.sqrt(
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
    vals = _density_on(spec, pts.T)
    return float(vals[0]) if scalar else vals


def _density_on(spec: DistributionSpec, axes) -> np.ndarray:
    """Normalized density at the broadcast of the per-axis coordinate arrays
    ``axes`` (the columns of a point array, or an open tensor grid)."""
    inside = True
    for x, (lo, hi) in zip(axes, spec.box):
        inside = inside & (x >= lo) & (x <= hi)
    if spec.kind == KIND_UNIFORM:
        volume = float(np.prod(spec.box[:, 1] - spec.box[:, 0]))
        return np.where(inside, 1.0 / volume, 0.0)
    return np.where(inside, spec._gauss_unnormalized(axes) / spec._mass, 0.0)


def _tensor_trapezoid(f, box: np.ndarray, n_nodes: int) -> float:
    """Composite trapezoid of f over the box with n_nodes per axis; f maps
    an open grid (one broadcastable array per axis) to values on the grid."""
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
    per_plane = n_nodes ** (dim - 1)
    step = max(1, _SLAB // per_plane)
    rest_w = np.ones(1)
    for wj in weights[1:]:
        rest_w = np.multiply.outer(rest_w, wj).reshape(-1)
    # one value buffer for every slab: each slab is summed whole, filled in pieces
    buf = np.empty(min(step, n_nodes) * per_plane)
    for start in range(0, n_nodes, step):
        chunk = axes[0][start : start + step]
        w0 = weights[0][start : start + step]
        vals = buf[: len(chunk) * per_plane]
        _fill_pieces(f, vals, [chunk, *axes[1:]])
        if dim == 1:
            total += float((vals * w0).sum())
        else:
            total += float(w0 @ (vals.reshape(len(chunk), per_plane) @ rest_w))
    return total


def _fill_pieces(f, out: np.ndarray, axes) -> None:
    """Write f on the tensor grid of the 1-D node arrays ``axes`` into the
    flat C-order ``out``, one open mesh of at most _PIECE points at a time:
    runs along the first axis whose trailing block fits in a piece, every
    earlier axis held at one node."""
    sizes = [len(x) for x in axes]
    k, block = 0, math.prod(sizes[1:])
    while block > _PIECE:
        k += 1
        block //= sizes[k]
    run = _PIECE // block
    out = out.reshape(*sizes[: k + 1], block)
    for lead in np.ndindex(*sizes[:k]):
        held = [x[i : i + 1] for x, i in zip(axes, lead)]
        for a in range(0, sizes[k], run):
            piece = np.asarray(f(np.ix_(*held, axes[k][a : a + run], *axes[k + 1 :])))
            out[lead][a : a + run] = piece.reshape(-1, block)


def _refined_trapezoid(f, box: np.ndarray, dim: int, n: int | None = None) -> float:
    n = _GRID_START[dim] if n is None else n
    prev = _tensor_trapezoid(f, box, n)
    change = None
    while 2 * (n - 1) + 1 <= _GRID_CAP[dim]:
        n = 2 * (n - 1) + 1
        cur = _tensor_trapezoid(f, box, n)
        change = abs(cur - prev)
        if change < _REFINE_TOL:
            return cur
        prev = cur
    if change is not None:
        warnings.warn(
            f"quadrature refinement stopped at its cap of {n} nodes per axis; "
            f"the last doubling moved the value by {change:.3g} (tolerance {_REFINE_TOL:g})",
            RefinementCapWarning,
            stacklevel=3,
        )
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
    prior = MixtureParam(p)  # raises InvalidP
    p, q = prior.p, prior.q
    if grid is not None and grid < 2:
        raise HPDivError("grid must have at least 2 nodes per axis")
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

    def integrand(axes):
        a = _density_on(fx, axes)
        b = _density_on(fy, axes)
        den = p * a + q * b
        return np.divide(a * b, den, out=np.zeros_like(den), where=den > 0)

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
    """Bayes error bracket at prior p from a divergence value.

    With u = 4pq D_p + (p - q)^2 (Berisha, Wisler, Hero & Spanias, IEEE TSP
    2016), lower = (1 - sqrt(u))/2 and upper = min((1 - u)/2, p, q): the
    error never exceeds the smaller prior, which the raw upper bound can
    when p != 1/2; the lower bound meets it at D = 0 and is capped against
    rounding. The input divergence is clamped into [0, 1] first, so
    raw (possibly negative) small-sample estimates are accepted; NaN raises.
    """
    prior = MixtureParam(p)  # raises InvalidP
    d = float(d_p)
    if math.isnan(d):
        raise HPDivError("divergence must be a number, got nan")
    d = min(1.0, max(0.0, d))
    u = min(1.0, 4.0 * prior.p * prior.q * d + (prior.p - prior.q) ** 2)
    lower, upper = (1.0 - math.sqrt(u)) / 2.0, (1.0 - u) / 2.0
    cap = min(prior.p, prior.q)
    return BayesBounds(lower=min(lower, cap), upper=min(upper, cap), p=prior.p)
