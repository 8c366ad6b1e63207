"""Ground-truth divergence by deterministic quadrature, plus the
translation of a divergence value into Bayes classification error bounds.

The divergence functional is

    D_p(f_X, f_Y) = 1 - integral  f_X(x) f_Y(x) / (p f_X(x) + q f_Y(x)) dx

Both densities are products of per-axis factors. On an axis where the two
factors agree (same kind and, for truncated normals, same mean_j and
variance_j) the factor integrates out to 1, so the integral runs over the
differing axes alone (exactly 0 with none, DimTooHigh past 3), on
tensor-product trapezoid grids refined by node doubling until successive
values agree to 1e-6. Deterministic quadrature keeps regression values
stable, which Monte Carlo would not.

Both specs must carry one box, the grid's; specs on different boxes raise
HPDivError. Every grid node lies in that box, so the integrand evaluates
each density with no box mask: a uniform is 1/volume everywhere, and a
truncated normal is its Gaussian over the truncation masses of those
axes, each integrated on its first read. The integrand comes from
per-axis factors: each call is an open mesh of the lines' lead
coordinates against the last axis, and a diagonal Gaussian's exponent is
the broadcast sum, in axis order, of (x_j - mu_j)^2/s2_j. Each grid value
is the same operations on the same operands, in the same order, as on a
materialized (points, k) array of the k integrated axes, so its bytes are
too. Truncated normals are per-axis (diagonal covariance) only.

One summation level fixes every sum: numpy sums each line along the last
axis against its weights, in the call that computes it; each line sum is
scaled by the product of its lead weights in axis order; math.fsum adds
the lines. No sum depends on how lines group into calls, and none goes
through BLAS, so a truth does not depend on the BLAS kernel. A call holds
whole lines, at most _PIECE points unless one line is longer, so a
default-grid truth peaks at about 0.8 MB of traced memory over 2 axes
and 1.1 MB over 3.

At any prior p (q = 1 - p) the divergence brackets the two-class Bayes
error: with u = 4pq D_p + (p - q)^2,

    (1 - sqrt(u))/2  <=  error  <=  min((1 - u)/2, p, q),

which at p = 1/2 is (1 - sqrt(D))/2 <= error <= (1 - D)/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import HPDivError, MixtureParam

KIND_TRUNC_NORMAL = "tnorm"
KIND_UNIFORM = "uniform"

# starting nodes per axis and refinement caps, by dimension
_GRID_START = {1: 2001, 2: 401, 3: 101}
_GRID_CAP = {1: 32001, 2: 1601, 3: 401}
_REFINE_TOL = 1e-6
# Max grid points per integrand call; a call holds at least one whole line.
# Its float64 temporaries then stay under glibc's 128 KiB mmap threshold: at
# 2**15 a fresh process took about 22.7k minor page faults per d = 3 truth,
# against about 350, and ran 1.15x slower (median of 6, 2 cores).
_PIECE = 1 << 14


class DimTooHigh(HPDivError):
    """The specs differ on more than 3 axes, the most a tensor grid integrates."""


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
    box: np.ndarray                 # (d, 2) finite bounds and widths, lower < upper
    mean: np.ndarray | None = None  # (d,), tnorm only
    cov: np.ndarray | None = None   # (d,) per-axis variances, tnorm only
    _masses: dict = field(default_factory=dict, init=False, repr=False)  # axis -> mass

    def __post_init__(self):
        box = np.array(self.box, dtype=np.float64)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] < 1:
            raise HPDivError("box must have shape (d, 2) with d >= 1")
        # widths in Python floats, which overflow to inf without a RuntimeWarning
        if not all(lo < hi and math.isfinite(hi - lo) for lo, hi in box.tolist()):
            raise HPDivError("box bounds must be finite with lower < upper and a finite width")
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

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def _factor(self, j: int) -> tuple:
        """What fixes the density's factor on axis j, besides the box row."""
        return (self.kind,) if self.mean is None else (self.kind, self.mean[j], self.cov[j])

    def _on_grid(self, grid, axes) -> np.ndarray:
        """Normalized marginal density on the axes ``axes`` at the broadcast
        of the per-axis coordinate arrays ``grid``, every node inside the box."""
        if self.kind == KIND_UNIFORM:
            volume = float(np.prod(self.box[axes, 1] - self.box[axes, 0]))
            return np.full(np.broadcast(*grid).shape, 1.0 / volume)
        mass = math.prod(map(self._mass, axes))
        return _gauss(grid, self.mean[axes], self.cov[axes]) / mass

    def _mass(self, j: int) -> float:
        """Truncation mass of axis j, integrated on its first read (only the oracle reads it)."""
        if j not in self._masses:
            axis = partial(_gauss, mean=self.mean[j : j + 1], cov=self.cov[j : j + 1])
            mass = _refined_trapezoid(axis, self.box[j : j + 1], 1)
            if not mass > 0:
                raise HPDivError(f"truncation mass of axis {j} is 0 in box {self.box[j].tolist()}")
            self._masses[j] = mass
        return self._masses[j]


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
    # one weighted sum per line along the last axis, whole lines per call
    sums = np.empty(n_nodes ** (dim - 1))
    step = max(1, _PIECE // n_nodes)
    for start in range(0, len(sums), step):
        lines = np.arange(start, min(start + step, len(sums)))
        lead = [lines // n_nodes ** (dim - 2 - j) % n_nodes for j in range(dim - 1)]
        vals = f([*(x[i][:, None] for x, i in zip(axes, lead)), axes[-1][None, :]])
        line_w = math.prod(w[i] for w, i in zip(weights, lead))
        sums[start : start + step] = (vals * weights[-1]).sum(axis=-1) * line_w
    return math.fsum(sums)


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
    """Quadrature value of D_p between two analytic specs on one box, over the
    axes where their factors differ: exactly 0.0 with none, DimTooHigh past 3."""
    if fx.dim != fy.dim:
        raise HPDivError("specs must share an ambient dimension")
    if not np.array_equal(fx.box, fy.box):
        raise HPDivError("specs must share one box")
    prior = MixtureParam(p)  # raises InvalidP
    p, q = prior.p, prior.q
    axes = [j for j in range(fx.dim) if fx._factor(j) != fy._factor(j)]
    if not axes:
        return 0.0
    if len(axes) not in _GRID_START:
        raise DimTooHigh(f"the specs differ on {len(axes)} axes, more than {max(_GRID_START)}")

    def integrand(grid):
        a = fx._on_grid(grid, axes)
        b = fy._on_grid(grid, axes)
        den = p * a + q * b  # 0 where both Gaussians underflow
        return np.divide(a * b, den, out=np.zeros_like(den), where=den > 0)

    value = _refined_trapezoid(integrand, fx.box[axes], len(axes))
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
