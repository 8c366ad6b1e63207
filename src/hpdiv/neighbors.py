"""Exact k-th nearest neighbor queries over the pooled sample.

The estimators need, for each point Z_i, the single point at neighbor rank
k (self excluded). Ranks are defined by lexicographic order on
(squared Euclidean distance, global point index), which makes every query
deterministic even in the presence of duplicate points or exact distance
ties.

``neighbor_ranks`` is the whole pass. It checks the ranks once, then
certifies only the ranks a caller reads, in one block loop over rows in
the tree's leaf order on ``core.thread_map``. For each read rank r a
block takes candidates r-1, r and r+1 from a scipy cKDTree query, or for
deep ranks from a sort of whole rows of packed int64 keys (a squared
distance's bits, the low bits holding the point's index). Candidate r is
the rank-r neighbor when its distance, recomputed by one formula (squares
added in axis order), lies strictly between the other two and its key
bucket (the bits above the index) differs from theirs: one bucket orders
by index, which can hide a gap between subnormal distances. The block then
re-ranks its rows with a read rank on a tie, on its own thread, from
``windows`` (the EMST's too) of k_max + 1 + _TIE_PAD points sorted by
(distance, index), self skipped by position, doubled until the ties end
inside or they hold every point. Every kd block, row sort and window piece
fits one thread's share of the byte budget, _BLOCK_BYTES // worker_count(),
in an estimate call's blocks and a bench run's trials alike. Results match
a brute-force scan at any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import HPDivError, JointSet, KCollision, KTooLarge, thread_map, worker_count

# Relative gap a certified rank's distance keeps from the ranks beside it.
_TIE_RTOL = 1e-9
# Extra candidates a tied row sorts beyond its top rank.
_TIE_PAD = 8
# Bytes the blocks hold over all worker_count() threads, each thread an equal
# share: per row, 8 n in a row sort (keys made and sorted in place),
# _ENTRY_BYTES per column in a kd block or window entry. 2 MiB: 2^18 keys.
_BLOCK_BYTES = 1 << 21
# Bytes per candidate, whatever d: a query's index and distance, the mapped
# index, _sq_dists' coordinate, square, sum and result, and the sort's order
# (a tie window peaks near 40 traced).
_ENTRY_BYTES = 8 * 8
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


def build_index(z: JointSet) -> NeighborIndex:
    """Build a KD-tree index over the pooled points."""
    if not isinstance(z, JointSet):
        raise HPDivError("build_index expects a JointSet")
    return NeighborIndex(tree=cKDTree(z.points), source=z)


def _sq_dists(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances summed one coordinate at a time in axis order, silent
    on overflow, so every ranking of candidates agrees bit for bit. Index n, the tree's
    answer past the last finite (not overflowed) distance, reads as +inf."""
    d2 = 0.0
    with np.errstate(over="ignore"):
        for c in range(points.shape[1]):
            diff = np.take(points[:, c], a, mode="clip") - points[b, c]
            d2 += diff * diff
    return np.where(a < len(points), d2, np.inf)


def windows(tree, points: np.ndarray, rows: np.ndarray, k: int, ids=None):
    """Per piece of ``rows`` in a thread's share of _BLOCK_BYTES: its slice, each row's k
    nearest points of the tree (of ``ids``, all when None), self included, sorted by (d2,
    index), and the row's horizon, the last d2 less _TIE_RTOL. A miss reads as len(points)
    at +inf; a window of every point skips the tree."""
    m = len(points) if ids is None else len(ids)
    step = max(1, _BLOCK_BYTES // worker_count() // (k * _ENTRY_BYTES))
    for start in range(0, len(rows), step):
        here = rows[start:start + step]
        cand = (tree.query(points[here], k=k, workers=1)[1] if k < m
                else np.broadcast_to(np.arange(k), (len(here), k)))
        cand = cand if ids is None else np.append(ids, len(points))[cand]
        d2 = _sq_dists(points, cand, here[:, None])
        cand = np.take_along_axis(cand, np.lexsort((cand, d2), axis=1), axis=1)
        yield slice(start, start + step), cand, d2.max(axis=1) * (1.0 - _TIE_RTOL)


def _sorted_rows(idx: NeighborIndex, rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Ranks for rows with ties from their windows, doubled until each read rank sits below
    the horizon or a window holds all n points. Self leaves a window by position: rank r is
    column r-1, or column r when self sits at or before column r-1."""
    points = idx.source.points
    out = np.empty((len(rows), len(ranks)), dtype=np.int64)
    pos, k = np.arange(len(rows)), int(ranks.max()) + 1 + _TIE_PAD
    while pos.size:
        k = min(len(points), k)
        sure = np.full(len(pos), k == len(points))  # a window of every point is sure
        for part, cand, horizon in windows(idx.tree, points, rows[pos], k):
            here = rows[pos[part], None]
            col = ranks - 1 + ((cand == here).argmax(axis=1)[:, None] < ranks)
            out[pos[part]] = got = np.take_along_axis(cand, col, axis=1)
            sure[part] |= (_sq_dists(points, got, here) < horizon[:, None]).all(axis=1)
        pos = pos[~sure]
        k *= 2
    return out


def _sorted_columns(
    points: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points at sorted columns ``cols`` (0 is the nearest, self included)
    of each row against all ``points``, and their buckets: a row sorts keys,
    a squared distance's bits (monotone, as squares are >= +0) with the low
    (n-1).bit_length() bits replaced by the point's index, so keys in one
    bucket (``key >> bits``) sort by index, not distance. Keys are made and
    sorted in cdist's array (silent on overflow to +inf)."""
    n = len(points)
    bits = (n - 1).bit_length()
    keys = cdist(points[rows], points, "sqeuclidean").view(np.int64)
    keys &= -1 << bits
    keys |= np.arange(n)
    keys.partition(int(cols[-1]), axis=1)
    keys[:, :int(cols[-1]) + 1].sort(axis=1)
    keys = keys[:, cols]
    return keys & ((1 << bits) - 1), keys >> bits


def checked_ranks(ranks, pooled: int) -> np.ndarray:
    """The ranks as an int64 array, once they are whole, distinct and inside
    [1, pooled - 1]; else HPDivError, KCollision or KTooLarge."""
    k = np.asarray(ranks)
    num = k.astype(np.float64) if k.dtype == object else k  # ints past int64 are objects
    if not (np.isfinite(num) & (np.floor(num) == num)).all():
        raise HPDivError(f"ranks must be whole numbers, got {k.tolist()}")
    if len(np.unique(k)) != k.size:
        raise KCollision(f"ranks contain duplicates: {k.tolist()}")
    lo, hi = (int(k.min()), int(k.max())) if k.size else (0, 0)
    if not 1 <= lo <= hi <= pooled - 1:
        raise KTooLarge(f"ranks must lie in [1, {pooled - 1}], got {lo}..{hi}")
    return k.astype(np.int64)


def neighbor_ranks(idx: NeighborIndex, ranks) -> np.ndarray:
    """(n, len(ranks)) table: entry [i, j] is the rank-ranks[j] neighbor of
    point i, the same at any thread count. In a block's
    candidates, column r (0 is the nearest) is rank r when its distance
    sits strictly inside those of columns r-1 and r+1 (+inf past the last
    point) and its bucket differs from theirs: columns 0..r-1 are then the
    r points nearer. The block re-ranks its other rows by _sorted_rows."""
    points = idx.source.points
    n = points.shape[0]
    ranks = checked_ranks(ranks, n)
    rows = idx.tree.indices  # leaf order: a block's rows lie close together
    cols = np.unique(np.concatenate([ranks - 1, ranks, ranks + 1]))
    cols = cols[cols < n]
    at = np.searchsorted(cols, ranks)
    sort = _SORT_DEPTH * (int(ranks.max()) + 2) >= n
    workers = worker_count()
    step = max(1, _BLOCK_BYTES // workers // (8 * n if sort else len(cols) * _ENTRY_BYTES))
    blocks = -(-n // step)
    step = -(-n // (blocks + -blocks % workers))  # as many blocks per thread
    out = np.empty((n, len(ranks)), dtype=np.int64)

    def block(start: int) -> None:
        here = rows[start:start + step]
        if sort:
            cand, bucket = _sorted_columns(points, here, cols)
        else:  # the tree orders by distance alone: each column is its own bucket
            cand = idx.tree.query(points[here], k=(cols + 1).tolist(), workers=1)[1]
            bucket = cols[None]
        d2 = _sq_dists(points, cand, here[:, None])
        apart = np.ones(cand.shape, dtype=bool)  # column j sits below column j+1
        apart[:, :-1] = d2[:, :-1] < d2[:, 1:] * (1.0 - _TIE_RTOL)
        apart[:, :-1] &= bucket[:, :-1] != bucket[:, 1:]
        got = cand[:, at]
        tied = ~(apart[:, at - 1] & apart[:, at]).all(axis=1)
        del cand, bucket, d2, apart  # the tie path needs none of them
        if tied.any():
            got[tied] = _sorted_rows(idx, here[tied], ranks)
        out[here] = got

    thread_map(block, range(0, n, step))
    return out


def neighbor_table(idx: NeighborIndex, k_max: int) -> np.ndarray:
    """(n, k_max) table: entry [i, r-1] is the rank-r neighbor of point i. Its
    one caller is hpbench's traced replay (``neighbors.table_ms``); it leaves
    with that replay (ROADMAP item 6). Tests read ranks by neighbor_ranks."""
    return neighbor_ranks(idx, np.arange(1, k_max + 1))
