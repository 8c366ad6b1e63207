"""Euclidean minimum spanning tree over the pooled sample and the
dichotomous-edge count statistic R, mapped like the neighbor counts:
value = 1 - R (N+M)/(2NM).

The tree is exact and unique under the edge order (squared length, min endpoint,
max endpoint). ``build_emst`` finds exact copies once, joins each later copy to the smallest
index at length 0 and sorts the n - 1 edges once. The distinct points form a path of sorted
neighbors ("path") at d = 1 unless a zero gap or a tie could reroute the tree; any other input
runs a kd-tree Boruvka ("boruvka"; March, Ram & Gray, KDD 2010) over ``neighbors.windows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import (EstimateResult, HPDivError, JointSet, METHOD_MST, PointCloud,
                   estimate_result, validate_pair)
from .neighbors import _sq_dists, windows

_WINDOW = 8  # points in a Boruvka window before it first grows, self included


class TooFewPoints(HPDivError):
    """A spanning tree needs at least two points."""


@dataclass(frozen=True)
class SpanningTree:
    """|Z| - 1 edges (u, v), u < v, in (length, u, v) order, their lengths and construction."""

    edges: np.ndarray    # (m, 2) int64
    lengths: np.ndarray  # (m,) float64
    algorithm: str       # "path" or "boruvka"

    def __len__(self) -> int:
        return self.edges.shape[0]


def _path_edges(pts: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Neighbor edges of distinct 1-D points in value ``order``, or None when a gap
    underflows to 0 or a tie could reroute the tree. A non-adjacent pair is at least as
    long as a 2-step (i, i+2) it spans; when each 2-step beats its two gaps strictly,
    every such pair tops a cycle: the path is the MST, and no point has another at 0."""
    gap = _sq_dists(pts, order[:-1], order[1:])
    step2 = _sq_dists(pts, order[:-2], order[2:])
    ok = (gap > 0).all() and (step2 > np.maximum(gap[:-1], gap[1:])).all()
    return (order[:-1], order[1:]) if ok else None


def _joined(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least node each of nodes 0..size-1 reaches over edges (u, v)."""
    lab, old = np.arange(size), None  # least-label propagation with pointer jumps
    while old is None or (lab != old).any():
        old, lab = lab, lab.copy()
        np.minimum.at(lab, u, old[v])
        np.minimum.at(lab, v, old[u])
        lab = lab[lab]
    return lab


def _boruvka_edges(pts: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The tree edges of distinct points less each point's link to its first (the smallest
    index at length 0, itself unless a length underflows), and the firsts. Links join the
    first components, then in each Boruvka round every component takes its least outgoing
    edge. A point's window lists its nearest points by (squared length, smallest index),
    self included; no point outside the window comes before an entry below its horizon
    (the last length less the tie tolerance). A component takes its least edge once each
    point whose window does not prove its own has a horizon above that edge's length; if
    none can, those windows double."""
    size, tree = len(pts), cKDTree(pts)
    width, horizon, head = np.full(size, _WINDOW // 2), np.empty(size), np.empty(size, np.int64)
    pieces = []  # (rows, their windows); a grown row's window lives in a later piece

    def grow(rows: np.ndarray, domain: np.ndarray | None = None) -> None:
        """Double the windows of ``rows``, over the points of ``domain`` (all)."""
        near = tree if domain is None else cKDTree(pts[domain])
        width[rows] = k = min(2 * int(width[rows].max(initial=_WINDOW // 2)), near.n)
        for part, cand, h in windows(near, pts, rows, k, ids=domain):
            here = rows[part]
            horizon[here] = h
            head[here] = cand[:, 0]
            pieces.append((here, np.where(cand < size, cand, here[:, None]).astype(np.int32)))

    grow(np.arange(size))
    while (flat := np.flatnonzero((horizon == 0) & (width < size))).size:
        grow(flat)  # until every point at distance 0 is in
    first = head.copy()  # windows outside a component, grown later, skip self
    edges = [(np.empty(0, np.int64),) * 2]
    comp = _joined(size, np.arange(size), first)  # labelled by least member
    while (comp != comp[0]).any():
        live, found = [], [(np.empty(0, np.int64),) * 4]
        for rows, cand in pieces:
            out = comp[cand] != comp[rows, None]
            has = out.any(axis=1) & (width[rows] == cand.shape[1])
            if has.any():  # a window inside its component stays inside
                live.append((rows, cand) if has.all() else (rows[has], cand[has]))
                a, b = rows[has], cand[has, out[has].argmax(axis=1)].astype(np.int64)
                found.append((a, b, _sq_dists(pts, b, a), comp[a]))
        pieces[:] = live
        a, b, d2, ca = map(np.concatenate, zip(*found))
        cap = np.full(size, np.inf)  # each component's least candidate
        np.minimum.at(cap, ca, d2)
        pick = np.full(size, size * size)  # and at that length its least lo * size + hi
        t = d2 == cap[ca]
        np.minimum.at(pick, ca[t], np.minimum(a[t], b[t]) * size + np.maximum(a[t], b[t]))
        open_ = horizon <= cap[comp]  # the points that could still beat or tie it
        open_[a[(d2 < horizon[a]) | (width[a] == size)]] = False
        done = (np.bincount(comp[open_], minlength=size) == 0) & (pick < size * size)
        if not done.any():
            # Windows inside their component query the rest once doubling would fetch n / 8.
            inside = open_ & (np.bincount(a, minlength=size) == 0)
            far = inside & (np.bincount(comp[inside], width[inside], size)[comp] >= size // 8)
            grow(np.flatnonzero(open_ & ~far))
            for c in np.unique(comp[far]):
                grow(np.flatnonzero(far & (comp == c)), np.flatnonzero(comp != c))
            continue
        lo, hi = np.divmod(np.unique(pick[done]), size)  # two components may take one edge
        edges.append((lo, hi))
        comp = _joined(size, comp[lo], comp[hi])[comp]
    return tuple(np.concatenate(side) for side in zip(*edges)), first


def build_emst(z: JointSet | PointCloud) -> SpanningTree:
    """Exact Euclidean MST of the pooled points under the (length, min endpoint,
    max endpoint) order: copies starred, distinct points joined by dimension."""
    points, n = z.points, len(z.points)
    if n < 2:
        raise TooFewPoints("an MST needs at least 2 points")
    order = np.lexsort(points.T[::-1])  # stable: exact copies run in index order
    new = np.r_[True, (points[order[1:]] != points[order[:-1]]).any(axis=1)]
    low = np.empty(n, dtype=np.int64)  # each point's first copy
    low[order] = order[new][np.cumsum(new) - 1]
    rep = low == np.arange(n)
    reps, pos = np.flatnonzero(rep), np.cumsum(rep) - 1  # distinct points; each rep's row
    uv = _path_edges(points[reps], pos[order[new]]) if points.shape[1] == 1 else None
    algorithm, first = "path", np.arange(len(reps))
    if uv is None:
        algorithm, (uv, first) = "boruvka", _boruvka_edges(points[reps])
    hub = reps[first[pos[low]]]  # the smallest index at length 0: first copy or underflow
    star = np.flatnonzero(hub != np.arange(n))
    lo, hi = np.r_[hub[star], reps[np.minimum(*uv)]], np.r_[star, reps[np.maximum(*uv)]]
    len2 = _sq_dists(points, lo, hi)
    order = np.lexsort((lo * n + hi, len2))  # (lo, hi) packed in one key
    return SpanningTree(edges=np.column_stack([lo[order], hi[order]]),
                        lengths=np.sqrt(len2[order]), algorithm=algorithm)


def dichotomous_edge_count(tree: SpanningTree, z: JointSet) -> int:
    """Number of MST edges joining an X point to a Y point."""
    return int((z.labels[tree.edges[:, 0]] != z.labels[tree.edges[:, 1]]).sum())


def mst_estimate(x: PointCloud, y: PointCloud, p: float, clamp: bool = False) -> EstimateResult:
    """Divergence estimate from the MST dichotomous-edge count."""
    z = validate_pair(x, y, p)
    r = dichotomous_edge_count(build_emst(z), z)
    return estimate_result(METHOD_MST, z, r, p, clamp, {"dichotomous_edges": r})
