"""Exact k-th nearest neighbor queries over the pooled sample.

The estimators need, for each point Z_i, the single point at neighbor rank
k (self excluded). Ranks are defined by lexicographic order on
(squared Euclidean distance, global point index), which makes every query
deterministic even in the presence of duplicate points or exact distance
ties.

Only the ranks a caller reads are certified. For each read rank r the
candidates r-1, r and r+1 come from one of two sources: a scipy cKDTree
query while the deepest rank is shallow (10 (k_max + 2) < n), else a sort
of whole rows of squared distances, in blocks. The tree must search k_max
deep for every row whichever columns it returns, so deep wnn schedules
are cheaper to sort. Either way the candidates' distances are recomputed
with the package's own distance formula, and candidate r is the rank-r
neighbor when it lies strictly between the other two; a source whose
distances are right to a few ulps therefore yields the same ranks. A row
where some requested rank sits on a tie or a duplicate is re-ranked from
its k_max + 1 + _TIE_PAD nearest candidates sorted by (distance, index),
a window that doubles until the ties end inside it or it holds every
point. Results always match a brute-force scan. The kd queries and the
row sorts may split their rows over ``workers`` threads; each row's answer
does not depend on the split.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import HPDivError, JointSet, KTooLarge

# Relative gap a certified rank's distance keeps from the ranks beside it.
_TIE_RTOL = 1e-9
# Extra candidates a tied row sorts beyond its top rank.
_TIE_PAD = 8
# Candidate entries (rows x window, or rows x n in a row sort) sorted at
# once: bounds the memory of wide windows and of the row sorts' threads.
_BLOCK = 1 << 18
# The kd tree searches k_max deep for every row whichever columns it
# returns, while a row sort costs about n per row at any depth; rows are
# sorted once k_max + 2 reaches n / _SORT_DEPTH. At one thread, d = 1..4
# and n = 1000..16384, the kd query took 0.06-0.19x the sort's time at
# k_max = n/200, 0.41-1.29x at n/20, 0.71-2.26x at n/10, 1.5-4.0x at n/4.
_SORT_DEPTH = 10


@dataclass(frozen=True)
class NeighborIndex:
    """Immutable spatial index over a JointSet; safe for concurrent reads."""

    tree: cKDTree
    source: JointSet

    def __len__(self) -> int:
        return len(self.source)


def build_index(z: JointSet) -> NeighborIndex:
    """Build a KD-tree index over the pooled points."""
    if not isinstance(z, JointSet):
        raise HPDivError("build_index expects a JointSet")
    return NeighborIndex(tree=cKDTree(z.points), source=z)


def _sq_dists(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances with one fixed summation order.

    The certified columns and the sorted windows rank candidates with this
    exact computation, so their orderings agree bit-for-bit.
    """
    diff = points[a] - points[b]
    return np.einsum("...i,...i->...", diff, diff)


def _sorted_rows(
    idx: NeighborIndex, rows: np.ndarray, ranks: np.ndarray, hi: int, workers: int
) -> np.ndarray:
    """Ranks for rows with ties, from candidates sorted by (distance, index).
    A row is done once every read rank's distance sits strictly inside the
    last candidate's, or its window holds all n points; the other rows go
    round again with twice the window, in blocks of at most _BLOCK entries."""
    points = idx.source.points
    out = np.empty((len(rows), len(ranks)), dtype=np.int64)
    work = [(np.arange(len(rows)), hi + 1 + _TIE_PAD)]
    while work:
        pos, k = work.pop()
        k = min(len(points), k)
        step = max(1, _BLOCK // k)
        if pos.size > step:
            work.append((pos[step:], k))
            pos = pos[:step]
        row = rows[pos, None]
        _, cand = idx.tree.query(points[rows[pos]], k=k, workers=workers)
        d2 = _sq_dists(points, cand, row)
        horizon = d2[:, -1:] * (1.0 - _TIE_RTOL)
        d2[cand == row] = np.inf  # exclude self
        order = np.lexsort((cand, d2), axis=1)[:, ranks - 1]
        out[pos] = np.take_along_axis(cand, order, axis=1)
        sure = (np.take_along_axis(d2, order, axis=1) < horizon).all(axis=1)
        if k < len(points) and not sure.all():
            work.append((pos[~sure], 2 * k))
    return out


def _sorted_columns(
    points: np.ndarray, rows: np.ndarray, cols: np.ndarray, workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points at sorted columns ``cols`` (0 is the nearest, self included)
    of each row, from whole rows of squared distances, and their
    ``_sq_dists`` from the row.

    Rows go in blocks of at most _BLOCK distances, split over ``workers``
    threads. Ties and near ties may come back in any order: the caller
    certifies the columns it reads in the returned distances.
    """
    n = len(points)
    coords = np.ascontiguousarray(points.T)
    kth = int(cols[-1])
    step = max(1, _BLOCK // (n * workers))
    out = np.empty((len(rows), len(cols)), dtype=np.intp)
    near = np.empty((len(rows), len(cols)))

    def block(start: int) -> None:
        span = slice(start, start + step)
        here = points[rows[span]]
        d2 = np.subtract(coords[0], here[:, :1])
        d2 *= d2
        part = np.empty_like(d2)
        for c, h in zip(coords[1:], here[:, 1:].T):
            d2 += np.square(np.subtract(c, h[:, None], out=part), out=part)
        del part  # freed before the partition allocates its indices
        head = np.argpartition(d2, kth, axis=1)[:, :kth + 1]
        order = np.argsort(np.take_along_axis(d2, head, axis=1), axis=1)[:, cols]
        out[span] = np.take_along_axis(head, order, axis=1)
        near[span] = _sq_dists(points, out[span], rows[span, None])

    starts = range(0, len(rows), step)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    else:
        for start in starts:
            block(start)
    return out, near


def _ranked_rows(
    idx: NeighborIndex, rows: np.ndarray, ranks: np.ndarray, workers: int = 1
) -> np.ndarray:
    """(len(rows), len(ranks)) neighbor indices at the given ranks.

    The tree, or for deep ranks a row sort, returns candidate columns r-1,
    r and r+1 of each rank r (0 is the nearest). Column r is rank r when its distance sits strictly inside
    those of columns r-1 and r+1 (+inf past the last point): columns
    0..r-1 are then the r points nearer than it, self among them.
    """
    points = idx.source.points
    n = points.shape[0]
    lo, hi = (int(ranks.min()), int(ranks.max())) if ranks.size else (0, 0)
    if not 1 <= lo <= hi <= n - 1:
        raise KTooLarge(f"ranks must lie in [1, {n - 1}], got {lo}..{hi}")

    cols = np.unique(np.concatenate([ranks - 1, ranks, ranks + 1]))
    cols = cols[cols < n]
    if _SORT_DEPTH * (hi + 2) < n:
        _, cand = idx.tree.query(points[rows], k=(cols + 1).tolist(), workers=workers)
        near = _sq_dists(points, cand, rows[:, None])
    else:
        cand, near = _sorted_columns(points, rows, cols, workers)
    d2 = np.full((len(rows), len(cols) + 1), np.inf)
    d2[:, :-1] = near
    below, at, above = (d2[:, np.searchsorted(cols, ranks + s)] for s in (-1, 0, 1))
    sure = (below < at * (1.0 - _TIE_RTOL)) & (at < above * (1.0 - _TIE_RTOL))

    out = cand[:, np.searchsorted(cols, ranks)].astype(np.int64)
    tied = np.nonzero(~sure.all(axis=1))[0]
    if tied.size:
        out[tied] = _sorted_rows(idx, rows[tied], ranks, hi, workers)
    return out


def neighbor_ranks(idx: NeighborIndex, ranks, workers: int = 1) -> np.ndarray:
    """(n, len(ranks)) table: entry [i, j] is the rank-ranks[j] neighbor of
    point i; the same at any count of kd-query ``workers`` threads."""
    return _ranked_rows(idx, np.arange(len(idx)), np.asarray(ranks, dtype=np.int64), workers)


def neighbor_table(idx: NeighborIndex, k_max: int) -> np.ndarray:
    """(n, k_max) table: entry [i, r-1] is the rank-r neighbor of point i."""
    return neighbor_ranks(idx, np.arange(1, k_max + 1))


def kth_neighbor(idx: NeighborIndex, i: int, k: int) -> int:
    """Index of the k-th nearest neighbor of point i, self excluded.

    Ties resolve by (distance, global index) ascending.
    """
    n = len(idx)
    if not (0 <= i < n):
        raise HPDivError(f"point index {i} out of range for {n} points")
    return int(_ranked_rows(idx, np.asarray([i]), np.asarray([k]))[0, 0])
