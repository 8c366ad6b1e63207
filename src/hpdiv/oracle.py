"""Ground-truth divergence by deterministic quadrature, plus the
translation of a divergence value into Bayes classification error bounds.

With q = 1 - p and g(S) = 1 / (p e^(-S) + q),

    D_p(f_X, f_Y) = 1 - integral f_X f_Y / (p f_X + q f_Y) dx = 1 - E_X[g(S)],

where S = sum_j phi_j(X_j) and phi_j = log f_Y,j - log f_X,j. Both densities
are products of per-axis factors, so the law of S is a convolution of 1-D
laws, at every dimension. An axis where the two factors agree (same kind
and, for truncated normals, same mean_j and variance_j) has phi_j = 0 and
drops out: identical specs give exactly 0.0 with no quadrature.

On a differing axis, trapezoid node x_i carries X-mass w_i f_X,j(x_i) at
phi_j(x_i), both factors normalized on those nodes; phi_j is the difference
of the two log factors in closed form (a quadratic, 0 for a uniform), so no
log of a density is taken; a node whose X-mass underflowed to 0 is dropped.
One axis is summed exactly at its nodes. Two or more are binned linearly at
width h, clipped where S no longer moves g (|S - log(p/q)| > 40, where g is
within e^-40 of its limits, widened by the other axes' spans) and convolved
by a fixed-order tap loop. One refinement
loop doubles the nodes (2001, at most 64001) and halves h (0.032 first)
until two values agree to 1e-6. Each exp is one math.exp call and each sum
a math.fsum or the tap loop, so no truth depends on numpy's SIMD exp or on
BLAS (np.convolve goes through it). Both specs must carry one box, the
nodes'; specs on different boxes raise HPDivError.

At any prior p the divergence brackets the two-class Bayes error: with
u = 4pq D_p + (p - q)^2,

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

# first level's nodes per axis and bin width; each level doubles one, halves the other
_NODES = 2001
_NODES_CAP = 64001
_BIN_WIDTH = 0.032
_REFINE_TOL = 1e-6
# g(S) is within e^-40 of its limits once |S - log(p/q)| passes this
_WINDOW = 40.0


class RefinementCapWarning(UserWarning):
    """Node doubling reached its cap before two values agreed to _REFINE_TOL."""


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Analytic density on an axis-aligned box: a truncated normal with a
    diagonal covariance, renormalized to the box, or a uniform."""

    kind: str
    box: np.ndarray                 # (d, 2) finite bounds and widths, lower < upper
    mean: np.ndarray | None = None  # (d,), tnorm only
    cov: np.ndarray | None = None   # (d,) per-axis variances, tnorm only

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

    def _exponent(self, j: int, x: np.ndarray) -> np.ndarray:
        """Log of the factor on axis j at the nodes x, up to its normalizer."""
        if self.mean is None:
            return np.zeros_like(x)
        return -0.5 * (((x - self.mean[j]) * (x - self.mean[j])) / self.cov[j])


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


def _exp(a: np.ndarray) -> np.ndarray:
    """math.exp of each entry: numpy's SIMD exp differs by CPU feature set."""
    return np.fromiter(map(math.exp, memoryview(a)), np.float64, len(a))


def _axis_law(fx: DistributionSpec, fy: DistributionSpec, j: int, n: int):
    """(phi, mass): of n trapezoid nodes on axis j, those carrying X-mass
    w_i f_X,j(x_i) > 0 at phi_j(x_i) = log f_Y,j(x_i) - log f_X,j(x_i), both
    factors normalized on the nodes."""
    lo, hi = fx.box[j]
    x = np.linspace(lo, hi, n)
    ex, ey = fx._exponent(j, x), fy._exponent(j, x)
    mass, y_mass = _exp(ex), _exp(ey)
    for f in (mass, y_mass):  # times the trapezoid weights
        f *= (hi - lo) / (n - 1)
        f[[0, -1]] /= 2.0
    mx, my = math.fsum(memoryview(mass)), math.fsum(memoryview(y_mass))
    if not (mx > 0 and my > 0):
        raise HPDivError(f"truncation mass of axis {j} is 0 in box {fx.box[j].tolist()}")
    ey -= ex
    ey += math.log(mx) - math.log(my)
    mass /= mx
    kept = mass > 0  # a node whose exp underflowed adds nothing to E[g(S)]
    return ey[kept], mass[kept]


def _binned(phi: np.ndarray, mass: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """(base, bins): the law on the grid base + k h, each node's mass split
    linearly between the two bins around it; phi and mass are overwritten."""
    base = float(phi.min())
    phi -= base
    phi /= h
    k = phi.astype(np.int64)
    phi -= k
    phi *= mass  # the upper bin's share
    mass -= phi
    top = int(k.max()) + 2
    bins = np.bincount(k, mass, top)
    k += 1
    bins += np.bincount(k, phi, top)
    return base, bins


def _clipped(base: float, bins: np.ndarray, lo: float, hi: float, h: float):
    """(base, bins) with the mass of the bins below lo and above hi moved onto
    the outermost bins kept."""
    a = min(max(math.ceil((lo - base) / h), 0), len(bins) - 1)
    b = max(min(math.floor((hi - base) / h) + 1, len(bins)), a + 1)
    kept = bins[a:b].copy()
    kept[0] += math.fsum(memoryview(bins[:a]))
    kept[-1] += math.fsum(memoryview(bins[b:]))
    return base + a * h, kept


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution, one tap of the shorter operand at a time."""
    if len(b) > len(a):
        a, b = b, a
    out, term = np.zeros(len(a) + len(b) - 1), np.empty(len(a))
    for k, tap in enumerate(b.tolist()):
        window = out[k : k + len(a)]
        np.add(window, np.multiply(a, tap, out=term), out=window)
    return out


def _mean_g(fx: DistributionSpec, fy: DistributionSpec, axes, prior, n: int, h: float) -> float:
    """E[g(S)] on n nodes per axis and, past one axis, bins of width h."""
    centre = math.log(prior.p / prior.q)
    if len(axes) == 1:
        s, mass = _axis_law(fx, fy, axes[0], n)
    else:
        shared, laws = {}, []  # axes with the same two factors and box row share one law
        for j in axes:
            key = (fx._factor(j), fy._factor(j), *fx.box[j].tolist())
            if key not in shared:
                shared[key] = _binned(*_axis_law(fx, fy, j, n), h)
            laws.append(shared[key])
        lows = [base for base, _ in laws]
        highs = [base + (len(bins) - 1) * h for base, bins in laws]
        s, mass = 0.0, np.ones(1)
        for (base, bins), low, high in zip(laws, lows, highs):
            # past these, S leaves the window whatever the other axes give
            base, bins = _clipped(base, bins, centre - _WINDOW - (sum(highs) - high),
                                  centre + _WINDOW - (sum(lows) - low), h)
            s, mass = s + base, _convolve(mass, bins)
        s = s + np.arange(len(mass)) * h
    s = np.clip(s, centre - _WINDOW, centre + _WINDOW)
    return math.fsum(memoryview(mass / (prior.p * _exp(-s) + prior.q)))


def true_divergence(fx: DistributionSpec, fy: DistributionSpec, p: float) -> float:
    """Quadrature value of D_p between two analytic specs on one box, from the
    law of S over the axes where their factors differ: exactly 0.0 with none."""
    if fx.dim != fy.dim:
        raise HPDivError("specs must share an ambient dimension")
    if not np.array_equal(fx.box, fy.box):
        raise HPDivError("specs must share one box")
    prior = MixtureParam(p)  # raises InvalidP
    axes = [j for j in range(fx.dim) if fx._factor(j) != fy._factor(j)]
    if not axes:
        return 0.0
    n, h = _NODES, _BIN_WIDTH
    value = _mean_g(fx, fy, axes, prior, n, h)
    while 2 * n - 1 <= _NODES_CAP:
        n, h, prev = 2 * n - 1, h / 2, value
        value = _mean_g(fx, fy, axes, prior, n, h)
        if abs(value - prev) < _REFINE_TOL:
            break
    else:
        warnings.warn(
            f"quadrature refinement stopped at its cap of {n} nodes per axis; the last doubling "
            f"moved the value by {abs(value - prev):.3g} (tolerance {_REFINE_TOL:g})",
            RefinementCapWarning,
            stacklevel=2,
        )
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
