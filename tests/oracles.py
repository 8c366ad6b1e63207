"""Independent reference implementations used only to check the package.

Each oracle takes a deliberately different route from the code it checks:
full-matrix linear scans instead of tree search, Kruskal instead of Prim,
pseudoinverse least-squares and rational Gauss-Jordan (Fraction) instead
of the fraction-free integer Gram solve, adaptive
Gauss-Kronrod quadrature instead of trapezoid grids, and a tensor
trapezoid grid over every integrated axis at once instead of the law of the
log density ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate


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


# The tensor trapezoid grid the package integrated on before it summed the law
# of the log density ratio, kept as the reference for it: every integrated
# axis gridded at once, the integrand evaluated on an open mesh of whole lines
# along the last axis, doubled from GRID_START[d] nodes per axis until two
# values agree to GRID_TOL or GRID_CAP[d] stops it. A truncation mass is the
# product of per-axis masses, each refined on its own 1-D grid.
GRID_START = {1: 2001, 2: 401, 3: 101}
GRID_CAP = {1: 32001, 2: 1601, 3: 401}
GRID_TOL = 1e-6
_LINE_POINTS = 1 << 14


def grid_trapezoid(f, box, n: int) -> np.ndarray:
    """Composite trapezoid over the box, n nodes per axis, of each integrand
    in the stack f returns for an open mesh (one broadcastable array per
    axis): one value per integrand."""
    dim = len(box)
    nodes = [np.linspace(lo, hi, n) for lo, hi in box]
    weights = []
    for lo, hi in box:
        w = np.full(n, (hi - lo) / (n - 1))
        w[0] = w[-1] = w[1] / 2.0
        weights.append(w)
    sums = []
    lines = n ** (dim - 1)
    step = max(1, _LINE_POINTS // n)
    for start in range(0, lines, step):
        idx = np.arange(start, min(start + step, lines))
        lead = [idx // n ** (dim - 2 - j) % n for j in range(dim - 1)]
        vals = f([*(x[i][:, None] for x, i in zip(nodes, lead)), nodes[-1][None, :]])
        line_w = math.prod(w[i] for w, i in zip(weights, lead))
        sums.append((vals * weights[-1]).sum(axis=-1) * line_w)
    return np.array([math.fsum(row) for row in np.concatenate(sums, axis=-1)])


def grid_refined(f, box) -> tuple[np.ndarray, np.ndarray]:
    """(values, changes) of grid_trapezoid refined by node doubling, each
    integrand stopped at its first doubling that moves it by less than
    GRID_TOL; changes holds that last move (GRID_TOL or more where the cap
    stopped it)."""
    n = GRID_START[len(box)]
    prev = grid_trapezoid(f, box, n)
    values, changes = prev.copy(), np.full(len(prev), np.inf)
    open_ = np.ones(len(prev), dtype=bool)
    while open_.any() and 2 * (n - 1) + 1 <= GRID_CAP[len(box)]:
        n = 2 * (n - 1) + 1
        cur = grid_trapezoid(f, box, n)
        changes[open_] = np.abs(cur - prev)[open_]
        values[open_] = cur[open_]
        open_ &= ~(changes < GRID_TOL)
        prev = cur
    return values, changes


def truncated_normal_factor(mu: float, s2: float):
    """The N(mu, s2) density on one axis, without truncation."""
    return lambda x: np.exp(-0.5 * (x - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)


def grid_mass(spec) -> float:
    """Truncation mass of a spec: 1 for a uniform."""
    if spec.kind == "uniform":
        return 1.0
    mass = 1.0
    for (lo, hi), mu, s2 in zip(spec.box, spec.mean, spec.cov):
        axis = truncated_normal_factor(float(mu), float(s2))
        mass *= grid_refined(lambda mesh: axis(mesh[0])[None], np.array([[lo, hi]]))[0][0]
    return mass


def grid_density(spec, mesh, mass: float) -> np.ndarray:
    """Density of a spec on an open mesh inside its box, given its mass."""
    if spec.kind == "uniform":
        volume = float(np.prod(spec.box[:, 1] - spec.box[:, 0]))
        return np.full(np.broadcast(*mesh).shape, 1.0 / volume)
    value = 1.0
    for x, mu, s2 in zip(mesh, spec.mean, spec.cov):
        value = value * truncated_normal_factor(float(mu), float(s2))(x)
    return value / mass


def grid_divergences(fx, fy, ps) -> tuple[np.ndarray, np.ndarray]:
    """(D_p, last change) for each p of ps, by the refined tensor trapezoid
    over the specs' one box, with one density evaluation for all of them."""
    mx, my = grid_mass(fx), grid_mass(fy)
    ps = np.asarray(ps, dtype=np.float64).reshape(-1, 1, 1)

    def integrand(mesh):
        a, b = grid_density(fx, mesh, mx), grid_density(fy, mesh, my)
        den = ps * a + (1 - ps) * b
        return np.divide(a * b, den, out=np.zeros_like(den), where=den > 0)

    values, changes = grid_refined(integrand, fx.box)
    return np.clip(1.0 - values, 0.0, 1.0), changes
