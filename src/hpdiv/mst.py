"""Euclidean minimum spanning tree over the pooled sample and the
dichotomous-edge count statistic R, mapped like the neighbor counts:
value = 1 - R (N+M)/(2NM).

The tree is exact and unique under the edge order (squared length, min
endpoint, max endpoint). The dimension picks the candidate edges: d = 1
joins sorted neighbors ("path"); d = 2 and 3 take the Delaunay edges, which
hold the EMST, ties included, as each tree edge's closed diametral ball
holds no other point ("delaunay"); d >= 4 runs an O(n^2) Prim ("prim"),
where qhull is slower. One guard sends a 1-D to 3-D input to Prim where
the fast path cannot prove it holds the tree: duplicate points, rounding
ties between sorted neighbors, or points qhull cannot triangulate in full
(collinear or coplanar). ``build_emst`` sorts the candidates once in the
order above, lengths from one formula, and runs Kruskal only on more than
n - 1 of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EstimateResult,
    HPDivError,
    JointSet,
    METHOD_MST,
    PointCloud,
    estimate_result,
    validate_pair,
)
from .neighbors import _sq_dists


class TooFewPoints(HPDivError):
    """A spanning tree needs at least two points."""


@dataclass(frozen=True)
class SpanningTree:
    """Edges (u, v) with u < v in (length, u, v) order, their Euclidean
    lengths, and the construction that ran; |Z|-1 rows."""

    edges: np.ndarray    # (m, 2) int64
    lengths: np.ndarray  # (m,) float64
    algorithm: str       # "path", "delaunay" or "prim"

    def __len__(self) -> int:
        return self.edges.shape[0]


def _path_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted-neighbor edges in 1-D, or None when a tie could reroute the
    tree. Any non-adjacent pair is at least as long as a 2-step (i, i+2) it
    spans; when each 2-step is strictly longer than its two gaps, every such
    pair tops a cycle strictly and the path is the MST."""
    order = np.argsort(points[:, 0], kind="stable")
    gap = _sq_dists(points, order[:-1], order[1:])
    if len(order) > 2:
        step2 = _sq_dists(points, order[:-2], order[2:])
        if not (step2 > np.maximum(gap[:-1], gap[1:])).all():
            return None
    return order[:-1], order[1:]


def _delaunay_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Every edge of the Delaunay graph, or None when qhull fails or leaves a
    point out (duplicates and near-duplicates)."""
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(points)
    except QhullError:
        return None
    if tri.coplanar.size:
        return None
    indptr, nbrs = tri.vertex_neighbor_vertices
    lo = np.repeat(np.arange(points.shape[0]), np.diff(indptr))
    keep = lo < nbrs
    return lo[keep], nbrs[keep]


def _pair_key(a, b, n: int) -> np.ndarray:
    """Integer key ordering endpoint pairs by (min, max)."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _prim_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense O(n^2) Prim with (length, min endpoint, max endpoint) ties."""
    n = points.shape[0]
    idx = np.arange(n)
    in_tree = np.zeros(n, dtype=bool)
    best_d2 = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    j = 0
    for step in range(n - 1):
        in_tree[j] = True
        diff = points - points[j]
        d2 = np.einsum("ij,ij->i", diff, diff)
        closer = d2 < best_d2
        eq = d2 == best_d2
        if eq.any():
            # equal-length edge into the same vertex: keep the smaller pair
            closer |= eq & (_pair_key(j, idx, n) < _pair_key(best_from, idx, n))
        closer &= ~in_tree
        best_d2[closer] = d2[closer]
        best_from[closer] = j
        masked = np.where(in_tree, np.inf, best_d2)
        ties = np.flatnonzero(masked == masked.min())
        pick = 0 if len(ties) == 1 else np.argmin(_pair_key(best_from[ties], ties, n))
        j = int(ties[pick])
        edges[step] = best_from[j], j
    return edges[:, 0], edges[:, 1]


def build_emst(z: JointSet | PointCloud) -> SpanningTree:
    """Exact Euclidean MST of the pooled points under the
    (length, min endpoint, max endpoint) order, built by dimension."""
    points = z.points
    n, d = points.shape
    if n < 2:
        raise TooFewPoints("an MST needs at least 2 points")

    uv = None
    if d == 1:
        uv, algorithm = _path_edges(points), "path"
    elif d <= 3:
        uv, algorithm = _delaunay_edges(points), "delaunay"
    if uv is None:
        uv, algorithm = _prim_edges(points), "prim"

    lo = np.minimum(*uv).astype(np.int64)
    hi = np.maximum(*uv).astype(np.int64)
    len2 = _sq_dists(points, lo, hi)
    order = np.lexsort((hi, lo, len2))
    if len(order) > n - 1:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import minimum_spanning_tree

        # Distinct weights make the MST unique; csgraph drops zero weights,
        # so rank the edges in the total order starting from 1.
        rank = np.empty(len(order), dtype=np.float64)
        rank[order] = np.arange(1, len(order) + 1)
        mst = minimum_spanning_tree(coo_matrix((rank, (lo, hi)), shape=(n, n)))
        order = order[np.sort(mst.tocoo().data).astype(np.int64) - 1]
    return SpanningTree(
        edges=np.column_stack([lo[order], hi[order]]),
        lengths=np.sqrt(len2[order]),
        algorithm=algorithm,
    )


def dichotomous_edge_count(tree: SpanningTree, z: JointSet) -> int:
    """Number of MST edges joining an X point to a Y point."""
    lab = z.labels
    return int((lab[tree.edges[:, 0]] != lab[tree.edges[:, 1]]).sum())


def mst_estimate(
    x: PointCloud, y: PointCloud, p: float, clamp: bool = False
) -> EstimateResult:
    """Divergence estimate from the MST dichotomous-edge count."""
    z = validate_pair(x, y, p)
    r = dichotomous_edge_count(build_emst(z), z)
    return estimate_result(METHOD_MST, z, r, p, clamp, {"dichotomous_edges": r})
