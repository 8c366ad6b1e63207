"""Independent reference implementations used only to check the package.

Each oracle takes a deliberately different route from the code it checks:
full-matrix linear scans instead of tree search, Kruskal instead of Prim,
pseudoinverse least-squares and rational Gauss-Jordan (Fraction) instead
of the fraction-free integer Gram solve, adaptive
Gauss-Kronrod quadrature instead of trapezoid grids, and trapezoid grids
over materialized point arrays instead of per-axis factors.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate

from hpdiv import oracle


def scan_rank_table(points: np.ndarray, ranks=None) -> np.ndarray:
    """(n, n-1) neighbor ranks per point by a linear scan of every row, or
    only the columns of ``ranks`` (n, len(ranks)).

    Ordering key is (squared distance, index), identical to the package's
    documented tie-break but computed from one explicit distance row per
    point, summed one coordinate at a time; the point itself is taken out
    of its row's order, so it never competes with distances that overflow.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    cols = np.arange(n - 1) if ranks is None else np.asarray(ranks) - 1
    idx = np.arange(n)
    table = np.empty((n, len(cols)), dtype=np.int64)
    for i in range(n):
        order = np.lexsort((idx, coordinate_sq_dists(pts[i:i + 1], pts)[0]))
        table[i] = order[order != i][cols]
    return table


@np.errstate(over="ignore")  # squares past the float range read as +inf
def coordinate_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between the rows of a and of b,
    one coordinate at a time: the first square, then each next one added."""
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2
    for c in range(1, a.shape[1]):
        d2 += (a[:, None, c] - b[None, :, c]) ** 2
    return d2


def brute_kth(points, i: int, k: int) -> int:
    """Pure-python k-th neighbor of point i with the documented tie-break,
    squares added in axis order (Python 3.12's ``sum`` would compensate)."""
    pts = [tuple(map(float, row)) for row in np.atleast_2d(points)]
    ranked = []
    for j in range(len(pts)):
        if j != i:
            d2 = 0.0
            for a, b in zip(pts[i], pts[j]):
                d2 += (a - b) * (a - b)
            ranked.append((d2, j))
    return sorted(ranked)[k - 1][1]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def kruskal_mst(points) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs Kruskal MST; returns (edges, lengths) sorted by insertion.
    Squared lengths are summed one coordinate at a time, as the package's."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    d2 = coordinate_sq_dists(pts, pts)[iu, ju]
    order = np.lexsort((ju, iu, d2))
    uf = _UnionFind(n)
    edges, lengths = [], []
    for e in order:
        a, b = int(iu[e]), int(ju[e])
        if uf.union(a, b):
            edges.append((a, b))
            lengths.append(np.sqrt(d2[e]))
            if len(edges) == n - 1:
                break
    return np.asarray(edges, dtype=np.int64), np.asarray(lengths)


def minnorm_pinv(l_values, d: int) -> np.ndarray:
    """Least-norm weights via numpy's least-squares (SVD) route."""
    ls = np.asarray(l_values, dtype=np.float64)
    a = np.vstack([np.ones_like(ls)] + [ls ** (i / d) for i in range(1, d + 1)])
    b = np.zeros(d + 1)
    b[0] = 1.0
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return w


def minnorm_fractions(a) -> list[float]:
    """A'(AA')^{-1} e_0 for the float matrix ``a`` in exact rationals,
    each weight rounded once to the nearest float."""
    a = [[Fraction(v) for v in row] for row in np.asarray(a).tolist()]
    m = len(a)
    g = [[sum(x * y for x, y in zip(u, v)) for v in a] + [Fraction(int(i == 0))] for i, u in enumerate(a)]
    for k in range(m):
        g[k] = [x / g[k][k] for x in g[k]]
        for i in range(m):
            if i != k:
                g[i] = [x - g[i][k] * y for x, y in zip(g[i], g[k])]
    return [float(sum(a[r][j] * g[r][-1] for r in range(m))) for j in range(len(a[0]))]


def quad_divergence_1d(fx, fy, p: float, lo: float, hi: float) -> float:
    """Adaptive quadrature of the divergence integrand for 1-D callables."""

    def integrand(t):
        a = fx(t)
        b = fy(t)
        den = p * a + (1 - p) * b
        return a * b / den if den > 0 else 0.0

    val, _ = integrate.quad(integrand, lo, hi, limit=300, epsabs=1e-12, epsrel=1e-12)
    return 1.0 - val


def quad_bayes_error_1d(fx, fy, lo: float, hi: float, p: float = 0.5) -> float:
    """Adaptive quadrature of the prior-p Bayes error for 1-D callables."""
    val, _ = integrate.quad(
        lambda t: min(p * fx(t), (1 - p) * fy(t)), lo, hi, limit=300, epsabs=1e-13
    )
    return val


# The package's tensor-grid quadrature with every grid value taken from a
# materialized (points, d) array, summed in the package's order: each line
# along the last axis, then math.fsum over the weighted lines. The per-axis
# evaluation must match it bit for bit, so the arithmetic here is kept op for
# op; the grid constants are read from the package at call time so a test can
# shrink them for both sides at once.


def _points_gauss(spec, x):
    diff = x - spec.mean
    quad = ((diff * diff) / spec.cov).sum(axis=-1)
    norm = math.sqrt((2 * math.pi) ** spec.dim * float(np.prod(spec.cov)))
    return np.exp(-0.5 * quad) / norm


def _points_trapezoid(f, box, n_nodes):
    dim = box.shape[0]
    axes, weights = [], []
    for j in range(dim):
        lo, hi = box[j]
        h = (hi - lo) / (n_nodes - 1)
        wj = np.full(n_nodes, h)
        wj[0] = wj[-1] = h / 2.0
        axes.append(np.linspace(lo, hi, n_nodes))
        weights.append(wj)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    vals = np.asarray(f(pts)).reshape(-1, n_nodes)
    # each line along the last axis, weighted by its lead nodes in axis order
    line_w = np.ones(1)
    for wj in weights[:-1]:
        line_w = np.multiply.outer(line_w, wj).reshape(-1)
    return math.fsum((vals * weights[-1]).sum(axis=-1) * line_w)


def _points_refined(f, box, dim):
    n = oracle._GRID_START[dim]
    prev = _points_trapezoid(f, box, n)
    while 2 * (n - 1) + 1 <= oracle._GRID_CAP[dim]:
        n = 2 * (n - 1) + 1
        cur = _points_trapezoid(f, box, n)
        if abs(cur - prev) < oracle._REFINE_TOL:
            return cur
        prev = cur
    return prev


def points_mass(spec) -> float:
    """Truncation mass of a spec, from point arrays."""
    if spec.kind == "uniform":
        return 1.0
    mass = 1.0
    for (lo, hi), mu, s2 in zip(spec.box, spec.mean, spec.cov):
        mu, s2 = float(mu), float(s2)

        def axis_pdf(t, mu=mu, s2=s2):
            return np.exp(-0.5 * (t[:, 0] - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)

        mass *= _points_refined(axis_pdf, np.array([[lo, hi]]), 1)
    return mass


def points_density(spec, pts, mass: float):
    """Density of a spec at the rows of a (points, d) array, given its mass."""
    inside = ((pts >= spec.box[:, 0]) & (pts <= spec.box[:, 1])).all(axis=1)
    if spec.kind == "uniform":
        volume = float(np.prod(spec.box[:, 1] - spec.box[:, 0]))
        return np.where(inside, 1.0 / volume, 0.0)
    return np.where(inside, _points_gauss(spec, pts) / mass, 0.0)


def points_divergence(fx, fy, p: float) -> float:
    """D_p by the tensor trapezoid over (points, d) arrays, on the union box."""
    box = np.column_stack(
        [np.minimum(fx.box[:, 0], fy.box[:, 0]), np.maximum(fx.box[:, 1], fy.box[:, 1])]
    )
    mx, my = points_mass(fx), points_mass(fy)

    def integrand(pts):
        a = points_density(fx, pts, mx)
        b = points_density(fy, pts, my)
        den = p * a + (1 - p) * b
        return np.divide(a * b, den, out=np.zeros_like(den), where=den > 0)

    value = _points_refined(integrand, box, fx.dim)
    return float(min(1.0, max(0.0, 1.0 - value)))
