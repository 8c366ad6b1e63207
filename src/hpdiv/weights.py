"""Ensemble weight optimization for the weighted nearest-neighbor estimator.

Given index values l_1..l_L and ambient dimension d, the weights solve

    min ||w||_2   subject to   sum_l w(l) = 1,
                               sum_l w(l) l^(i/d) = 0  for i = 1..d.

This is an equality-constrained least-norm problem with the closed form
w = A' (A A')^{-1} b, where A is the (d+1) x L constraint matrix, and that
closed form is what runs: exactly, for square and wide A alike, one rounding
per weight, each power l^(i/d) one math.pow. So no weight depends on the BLAS
kernel or on numpy's SIMD. The constraints cancel the leading neighbor-count
bias terms while the norm objective keeps the variance amplification small.

Each index value maps to a neighbor rank K(l) = floor(l * sqrt(N)) once the
sample size N is known; resolve_schedule performs that step and is the only
N-dependent piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HPDivError, KCollision, KTooLarge

# Reciprocal-condition threshold below which the constraint Gram matrix is
# treated as numerically singular.
_RCOND_MIN = 1e-12

# Default l-grids, chosen empirically on synthetic benchmarks:
#  - d=1: the single linear constraint is well conditioned, a short linear
#    grid keeps neighbor ranks (and runtime) small.
#  - d>=2: the l^(i/d) constraint rows become nearly collinear, so the grid
#    must span a wide range to keep ||w|| small; spacing quadratic in index
#    keeps floor(l*sqrt(N)) collision-free at moderate N while spreading
#    the large-l end. Denser grids let the min-norm solution distribute
#    weight, which pulls ensemble variance below a single k-NN's.
# Usable N windows with these defaults: d=2 needs N >= ~110, d>=3 needs
# N >= ~450 (smaller N floors K(l_min) to zero). Pass explicit l values for
# smaller samples.
_DEFAULT_COUNT_1D = 4
_DEFAULT_SPAN_1D = (1.0, 3.0)
_DEFAULT_COUNT_2D = 28
_DEFAULT_SPAN_2D = (0.1, 14.0)
_DEFAULT_COUNT_HI = 32
_DEFAULT_SPAN_HI = (0.05, 24.0)


class SingularConstraints(HPDivError):
    """Constraint system numerically singular: l values too close together
    or fewer than d+1 of them."""


@dataclass(frozen=True)
class WeightSchedule:
    """Index values, solved weights, and their neighbor ranks."""

    l_values: np.ndarray
    w: np.ndarray
    k_values: np.ndarray

    def __post_init__(self):
        for name in ("l_values", "w", "k_values"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        shapes = {a.shape for a in (self.l_values, self.w, self.k_values)}
        if shapes != {(self.l_values.size,)} or not self.l_values.size:
            raise HPDivError(f"l_values, w and k_values need one nonempty length: {sorted(shapes)}")


def constraint_matrix(l_values: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d+1) x L constraint matrix A and right-hand side b."""
    ls = np.asarray(l_values, dtype=np.float64).tolist()
    # math.pow, not numpy's power, whose bits follow its SIMD dispatch
    a = np.array([[math.pow(l, i / d) for l in ls] for i in range(d + 1)])
    b = np.zeros(d + 1)
    b[0] = 1.0
    return a, b


def solve_weights(l_values, d: int) -> np.ndarray:
    """Minimum-Euclidean-norm weights satisfying the d+1 constraints."""
    ls = np.asarray(l_values, dtype=np.float64)
    if d < 1:
        raise HPDivError(f"dimension d must be >= 1, got {d}")
    if ls.ndim != 1 or ls.size == 0:
        raise HPDivError("l_values must be a nonempty 1-D sequence")
    if not np.isfinite(ls).all() or (ls <= 0).any():
        raise HPDivError("l_values must be finite and positive")
    if len(np.unique(ls)) != ls.size:
        raise HPDivError("l_values must be distinct")
    if ls.size < d + 1:
        raise SingularConstraints(
            f"need at least d+1={d + 1} index values, got {ls.size}"
        )

    a, b = constraint_matrix(ls, d)
    # a threshold only (its LAPACK bits move no weight) on the Gram matrix A A',
    # whose rcond is 1/cond**2; compared and printed without squaring a huge cond
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _RCOND_MIN**-0.5:
        raise SingularConstraints(
            f"constraint system is numerically singular "
            f"(Gram rcond={(1.0 / cond) ** 2:.2e}); "
            f"spread the l values further apart"
        )
    # n = s A is a full-rank integer matrix (s the largest denominator), so fraction-free
    # Gauss-Jordan on n n' y = b needs no pivoting, divides exactly and ends at det(n n')
    ratios = [[v.as_integer_ratio() for v in row] for row in a.tolist()]
    s = max(den for row in ratios for _, den in row)
    n = [[num * (s // den) for num, den in row] for row in ratios]
    g = [[sum(x * y for x, y in zip(u, v)) for v in n] + [int(bi)] for u, bi in zip(n, b)]
    det = 1
    for k, p in enumerate(g):  # g changes in place, so p is row k as step k - 1 left it
        g[:] = [r if r is p else [(p[k] * x - r[k] * y) // det for x, y in zip(r, p)] for r in g]
        det = p[k]
    return np.array([s * sum(x * r[-1] for x, r in zip(col, g)) / det for col in zip(*n)])


def default_l_values(d: int) -> np.ndarray:
    """Default index-value grid for dimension d (see module notes)."""
    if d < 1:
        raise HPDivError(f"dimension d must be >= 1, got {d}")
    if d == 1:
        return np.linspace(*_DEFAULT_SPAN_1D, _DEFAULT_COUNT_1D)
    if d == 2:
        n_pts, (lo, hi) = _DEFAULT_COUNT_2D, _DEFAULT_SPAN_2D
    else:
        n_pts, (lo, hi) = max(_DEFAULT_COUNT_HI, d + 1), _DEFAULT_SPAN_HI
    return np.linspace(math.sqrt(lo), math.sqrt(hi), n_pts) ** 2


def resolve_schedule(l_values, d: int, n: int, m: int | None = None) -> WeightSchedule:
    """Solve weights and map each l to its neighbor rank K(l) = floor(l*sqrt(N)).

    Ranks must be >= 1 and pairwise distinct; colliding l values are
    rejected rather than merged because merging would change the problem
    the weights solved. When the second sample size m is supplied, ranks
    are also checked against the pooled bound n + m - 1.
    """
    w = solve_weights(l_values, d)
    ls = np.asarray(l_values, dtype=np.float64)
    if n < 1:
        raise HPDivError(f"sample size n must be >= 1, got {n}")
    try:
        k = np.floor(ls * math.sqrt(n))
    except OverflowError:  # an int past the float range
        raise KTooLarge(f"sample size N={n} is too large for K(l)=floor(l*sqrt(N))") from None
    if k.max() >= 2.0**63:
        raise KTooLarge(f"K(l)=floor(l*sqrt(N)) must fit in int64, got K={k.max():.0f} at N={n}")
    k = k.astype(np.int64)
    if k.min() < 1:
        bad = ls[int(np.argmin(k))]
        raise KTooLarge(
            f"K(l)=floor(l*sqrt(N)) must be >= 1; l={bad:g} gives 0 at N={n}"
        )
    order = np.argsort(k, kind="stable")
    dup = np.nonzero(np.diff(k[order]) == 0)[0]
    if dup.size:
        i, j = order[dup[0]], order[dup[0] + 1]
        raise KCollision(
            f"l values {ls[i]:g} and {ls[j]:g} both resolve to K={k[i]} "
            f"at N={n}; rescale the l grid"
        )
    if m is not None and k.max() > n + m - 1:
        raise KTooLarge(
            f"K={k.max()} exceeds the pooled bound N+M-1={n + m - 1}"
        )
    return WeightSchedule(l_values=ls, w=w, k_values=k)
