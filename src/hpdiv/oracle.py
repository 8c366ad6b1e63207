"""Ground-truth divergence by deterministic quadrature, plus the
translation of a divergence value into Bayes classification error bounds.

The divergence functional is

    D_p(f_X, f_Y) = 1 - integral  f_X(x) f_Y(x) / (p f_X(x) + q f_Y(x)) dx

evaluated on tensor-product trapezoid grids (dims <= 3), refined by node
doubling until successive values agree to 1e-6. Deterministic quadrature
keeps regression values stable, which Monte Carlo would not.

Both specs must carry one box, the grid's; specs on different boxes raise
HPDivError. Every grid node lies in that box, so the integrand evaluates
each density with no box mask: a uniform is 1/volume everywhere, and a
truncated normal is its Gaussian over its truncation mass. The integrand
comes from per-axis factors: each slab is an open mesh of 1-D node arrays,
and a diagonal Gaussian's exponent is the broadcast sum, in axis order, of
(x_j - mu_j)^2/s2_j. Each grid value is the same operations on the same
operands, in the same order, as on a materialized (points, d) array, so
its bytes are too. Truncated normals are per-axis (diagonal covariance) only.

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
from functools import partial

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


class RefinementCapWarning(UserWarning):
    """Grid doubling reached its cap before two values agreed to _REFINE_TOL."""


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Analytic density on an axis-aligned box: truncated normal or uniform.

    Truncated normals have a diagonal covariance and renormalize the
    Gaussian mass inside the box; the normalizer is the product of per-axis
    masses, each by the trapezoid quadrature the divergence integral uses.
    """

    kind: str
    box: np.ndarray                 # (d, 2) finite bounds, lower < upper
    mean: np.ndarray | None = None  # (d,), tnorm only
    cov: np.ndarray | None = None   # (d,) per-axis variances, tnorm only

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
            if cov.ndim != 1:
                raise HPDivError("covariance must be a scalar or per-axis variances")
            if cov.size != mean.size:
                raise HPDivError("covariance length must match mean length")
            if (cov <= 0).any():
                raise HPDivError("diagonal covariance must be positive")
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
        # mean and cov are None on a uniform, and array_equal(None, None) holds
        return self.kind == other.kind and all(
            map(np.array_equal, (self.box, self.mean, self.cov), (other.box, other.mean, other.cov))
        )

    def _on_grid(self, axes) -> np.ndarray:
        """Normalized density at the broadcast of the per-axis coordinate
        arrays ``axes``, every node inside the box."""
        if self.kind == KIND_UNIFORM:
            volume = float(np.prod(self.box[:, 1] - self.box[:, 0]))
            return np.full(np.broadcast(*axes).shape, 1.0 / volume)
        return _gauss(axes, self.mean, self.cov) / self._mass

    def _truncated_mass(self) -> float:
        if self.kind == KIND_UNIFORM:
            return 1.0
        mass = 1.0
        for j in range(self.dim):
            axis = partial(_gauss, mean=self.mean[j : j + 1], cov=self.cov[j : j + 1])
            mass *= _refined_trapezoid(axis, self.box[j : j + 1], 1)
        return mass


def _gauss(axes, mean, cov) -> np.ndarray:
    """Diagonal Gaussian density, without a truncation renormalizer, at the
    broadcast of the per-axis coordinate arrays ``axes``."""
    # added in axis order, as numpy sums the last axis of a points array
    quad = sum(((x - mu) * (x - mu)) / s2 for x, mu, s2 in zip(axes, mean, cov))
    norm = math.sqrt((2 * math.pi) ** len(mean) * float(np.prod(cov)))
    return np.exp(-0.5 * quad) / norm


def truncated_normal(mean, cov, box) -> DistributionSpec:
    """Normal(mean, cov) renormalized to an axis-aligned box."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    box = _as_box(box, mean.size)
    return DistributionSpec(kind=KIND_TRUNC_NORMAL, box=box, mean=mean, cov=cov)


def uniform_box(box) -> DistributionSpec:
    """Uniform density on an axis-aligned box."""
    return DistributionSpec(kind=KIND_UNIFORM, box=_as_box(box, 1))


def _as_box(box, dim: int) -> np.ndarray:
    box = np.asarray(box, dtype=np.float64)
    if box.ndim == 1 and box.size == 2:
        box = np.tile(box, (dim, 1))
    return box


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


def _refined_trapezoid(f, box: np.ndarray, dim: int) -> float:
    n = _GRID_START[dim]
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


def true_divergence(fx: DistributionSpec, fy: DistributionSpec, p: float) -> float:
    """Quadrature value of D_p between two analytic specs on one box (dims <= 3)."""
    if fx.dim != fy.dim:
        raise HPDivError("specs must share an ambient dimension")
    if fx.dim not in _GRID_START:
        raise DimTooHigh(f"quadrature supports dim <= {max(_GRID_START)}, got {fx.dim}")
    if not np.array_equal(fx.box, fy.box):
        raise HPDivError("specs must share one box")
    prior = MixtureParam(p)  # raises InvalidP
    p, q = prior.p, prior.q

    def integrand(axes):
        a = fx._on_grid(axes)
        b = fy._on_grid(axes)
        den = p * a + q * b  # 0 where both Gaussians underflow
        return np.divide(a * b, den, out=np.zeros_like(den), where=den > 0)

    value = _refined_trapezoid(integrand, fx.box, fx.dim)
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
