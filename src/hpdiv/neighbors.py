"""Exact k-th nearest neighbor queries over the pooled sample.

The estimators need, for each point Z_i, the single point at neighbor rank
k (self excluded). Ranks are defined by lexicographic order on
(squared Euclidean distance, global point index), which makes every query
deterministic even in the presence of duplicate points or exact distance
ties.

Only the ranks a caller reads are certified, in one block loop over rows
in the tree's leaf order on ``workers`` threads. For each read rank r a
block takes candidates r-1, r and r+1 from a scipy cKDTree query, or for
deep ranks from a sort of whole rows of packed int64 keys (a squared
distance's bits, the low bits holding the point's index). Candidate r is
the rank-r neighbor when its distance, recomputed by one formula, lies
strictly between the other two and its key bucket (the bits above the
index) differs from theirs: one bucket orders by index, which can hide a
gap between subnormal distances. A row with a read rank on a tie is
re-ranked from its k_max + 1 + _TIE_PAD nearest candidates sorted by
(distance, index), a window that doubles until the ties end inside it or
it holds every point. Results match a brute-force scan at any thread count.
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
# Candidate entries held at once over all threads: rows x n in a row
# sort, rows x (k_max + 2) in a kd search, rows x window on the tie path.
_BLOCK = 1 << 18
# A kd query costs about k_max per row and a row sort about n, so rows are
# sorted once k_max + 2 reaches n / _SORT_DEPTH. At one thread (d = 1..4,
# n = 1000..16384) kd took 0.02-0.58x the sort's time at k_max = 20,
# 0.48-1.43x at n/20 (0.48-0.63x at d = 1) and 0.87-2.63x at n/10.
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
    """Squared Euclidean distances with one fixed summation order, so every
    ranking of candidates agrees bit for bit. Index n, the tree's answer past
    the last finite (not overflowed) distance, reads as +inf."""
    diff = np.take(points, a, axis=0, mode="clip") - points[b]
    return np.where(a < len(points), np.einsum("...i,...i->...", diff, diff), np.inf)


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
        # The whole window needs no tree, which leaves out overflowed distances.
        cand = (idx.tree.query(points[rows[pos]], k=k, workers=workers)[1] if k < len(points)
                else np.broadcast_to(np.arange(k), (len(pos), k)))
        d2 = _sq_dists(points, cand, row)
        horizon = d2[:, -1:] * (1.0 - _TIE_RTOL)
        d2[cand == row] = np.inf  # exclude self
        order = np.lexsort((cand, d2), axis=1)[:, ranks - 1]
        out[pos] = np.take_along_axis(cand, order, axis=1)
        sure = (np.take_along_axis(d2, order, axis=1) < horizon).all(axis=1)
        if k < len(points) and not sure.all():
            work.append((pos[~sure], 2 * k))
    return out


@np.errstate(over="ignore")  # overflowed squares are +inf, as in _sq_dists
def _sorted_columns(
    coords: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points at sorted columns ``cols`` (0 is the nearest, self included)
    of each row against all of ``coords`` (d, n), and their buckets: a row
    sorts keys, a squared distance's bits (monotone, as squares are >= +0)
    with the low (n-1).bit_length() bits replaced by the point's index, so
    keys in one bucket (``key >> bits``) sort by index, not distance."""
    n = coords.shape[1]
    bits = (n - 1).bit_length()
    here = coords[:, rows, None]
    d2 = np.subtract(coords[0], here[0])
    d2 *= d2
    part = np.empty_like(d2)
    for c, h in zip(coords[1:], here[1:]):
        d2 += np.square(np.subtract(c, h, out=part), out=part)
    del part  # freed before the partition copies the keys
    keys = d2.view(np.int64)
    keys &= -1 << bits
    keys |= np.arange(n)
    head = np.partition(keys, int(cols[-1]), axis=1)[:, :int(cols[-1]) + 1]
    head.sort(axis=1)
    keys = head[:, cols]
    return keys & ((1 << bits) - 1), keys >> bits


def _ranked_rows(
    idx: NeighborIndex, rows: np.ndarray, ranks: np.ndarray, workers: int = 1
) -> np.ndarray:
    """(len(rows), len(ranks)) neighbor indices at the given ranks. Column r
    (0 is the nearest) is rank r when its distance sits strictly inside
    those of columns r-1 and r+1 (+inf past the last point) and its bucket
    differs from theirs: columns 0..r-1 are then the r points nearer."""
    points = idx.source.points
    n = points.shape[0]
    lo, hi = (int(ranks.min()), int(ranks.max())) if ranks.size else (0, 0)
    if not 1 <= lo <= hi <= n - 1:
        raise KTooLarge(f"ranks must lie in [1, {n - 1}], got {lo}..{hi}")

    cols = np.unique(np.concatenate([ranks - 1, ranks, ranks + 1]))
    cols = cols[cols < n]
    at = np.searchsorted(cols, ranks)
    sort = _SORT_DEPTH * (hi + 2) >= n
    coords = np.ascontiguousarray(points.T) if sort else None
    step = max(1, _BLOCK // ((n if sort else hi + 2) * workers))
    blocks = -(-len(rows) // step)
    step = -(-len(rows) // (blocks + -blocks % workers))  # as many blocks per thread
    out = np.empty((len(rows), len(ranks)), dtype=np.int64)
    sure = np.empty(len(rows), dtype=bool)

    def block(start: int) -> None:
        here = rows[start:start + step]
        if sort:
            cand, bucket = _sorted_columns(coords, here, cols)
        else:  # the tree orders by distance alone: each column is its own bucket
            _, cand = idx.tree.query(points[here], k=(cols + 1).tolist(), workers=1)
            bucket = cols[None]
        d2 = _sq_dists(points, cand, here[:, None])
        apart = np.ones(cand.shape, dtype=bool)  # column j sits below column j+1
        apart[:, :-1] = d2[:, :-1] < d2[:, 1:] * (1.0 - _TIE_RTOL)
        apart[:, :-1] &= bucket[:, :-1] != bucket[:, 1:]
        out[start:start + step] = cand[:, at]
        sure[start:start + step] = (apart[:, at - 1] & apart[:, at]).all(axis=1)

    starts = range(0, len(rows), step)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    else:
        for start in starts:
            block(start)
    tied = np.flatnonzero(~sure)
    if tied.size:
        out[tied] = _sorted_rows(idx, rows[tied], ranks, hi, workers)
    return out


def neighbor_ranks(idx: NeighborIndex, ranks, workers: int = 1) -> np.ndarray:
    """(n, len(ranks)) table: entry [i, j] is the rank-ranks[j] neighbor of
    point i, the same at any count of ``workers`` threads."""
    leaf = idx.tree.indices  # a block's rows then lie close together
    out = np.empty((len(leaf), np.size(ranks)), dtype=np.int64)
    out[leaf] = _ranked_rows(idx, leaf, np.asarray(ranks, dtype=np.int64), workers)
    return out


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
