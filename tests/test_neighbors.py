import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import HPDivError, JointSet, KCollision, KTooLarge, PointCloud, build_index, neighbor_table, validate_pair
from hpdiv import neighbors
from hpdiv.core import pool_pair
from hpdiv.estimators import dichotomous_counts
from hpdiv.neighbors import NeighborIndex, neighbor_ranks
from hpdiv.weights import default_l_values, resolve_schedule


from oracles import brute_kth, coordinate_sq_dists, scan_rank_table


def make_joint(points):
    """Wrap raw points as a JointSet (labels irrelevant for neighbor queries)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1:
        return JointSet(cloud=PointCloud(pts), n_x=1)
    half = max(1, len(pts) // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_pair(PointCloud(pts[:half]), PointCloud(pts[half:]), 0.5)


def kth_neighbor(idx, i: int, k: int) -> int:
    """The rank-k neighbor of point i, read from a one-rank table."""
    return int(neighbor_ranks(idx, [k])[i, 0])


class TestHandCases:
    def test_nearest_by_geometry(self):
        z = make_joint([[0.0], [1.0], [3.0]])
        idx = build_index(z)
        assert kth_neighbor(idx, 0, 1) == 1

    def test_second_nearest(self):
        z = make_joint([[0.0], [1.0], [3.0]])
        idx = build_index(z)
        assert kth_neighbor(idx, 0, 2) == 2

    def test_tie_lower_index_wins(self):
        # point 1 sits exactly between 0 and 2
        z = make_joint([[0.0], [1.0], [2.0]])
        idx = build_index(z)
        assert kth_neighbor(idx, 1, 1) == 0
        assert kth_neighbor(idx, 1, 2) == 2

    def test_index_needs_a_joint_set(self):
        with pytest.raises(HPDivError, match="JointSet"):
            build_index(PointCloud([[0.0], [1.0]]))

    def test_k_too_large(self):
        z = make_joint([[0.0], [1.0], [3.0]])
        idx = build_index(z)
        with pytest.raises(KTooLarge):
            kth_neighbor(idx, 0, 3)

    def test_single_point_any_k_errors(self):
        z = make_joint([[1.0, 2.0]])
        idx = build_index(z)
        with pytest.raises(KTooLarge):
            kth_neighbor(idx, 0, 1)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_full_table_matches_scan(self, seed, dim):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        z = make_joint(rng.normal(size=(n, dim)))
        idx = build_index(z)
        table = neighbor_table(idx, n - 1)
        np.testing.assert_array_equal(table, scan_rank_table(z.points))

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_match_scan(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(12, 2))
        pts = np.vstack([base, base[:5], base[:3]])  # heavy duplication
        z = make_joint(pts)
        idx = build_index(z)
        table = neighbor_table(idx, len(pts) - 1)
        np.testing.assert_array_equal(table, scan_rank_table(z.points))

    def test_integer_grid_ties_match_scan(self):
        # lattice points generate massed exact ties at every radius
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        z = make_joint(pts)
        idx = build_index(z)
        table = neighbor_table(idx, len(pts) - 1)
        np.testing.assert_array_equal(table, scan_rank_table(z.points))

    @given(st.integers(0, 10_000), st.integers(2, 24), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_single_queries_match_pure_python(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, dim))
        z = make_joint(pts)
        idx = build_index(z)
        i = int(rng.integers(0, n))
        k = int(rng.integers(1, n))
        assert kth_neighbor(idx, i, k) == brute_kth(z.points, i, k)

    def test_scan_matches_pure_python_past_overflow(self):
        # Squared distances across the origin overflow to +inf and tie there;
        # the point itself must leave its row before the tie breaks by index.
        pts = np.random.default_rng(3).choice([-1e155, 0.0, 3e154, 1e155], size=(30, 2))
        table = scan_rank_table(pts)
        for i in range(len(pts)):
            assert table[i].tolist() == [brute_kth(pts, i, k) for k in range(1, len(pts))]


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_self_exclusion_and_monotonic(self, seed):
        rng = np.random.default_rng(seed)
        z = make_joint(rng.normal(size=(40, 3)))
        idx = build_index(z)
        table = neighbor_table(idx, 39)
        for i in range(40):
            assert i not in table[i]
            d = np.linalg.norm(z.points[table[i]] - z.points[i], axis=1)
            assert (np.diff(d) >= 0).all()

    def test_single_query_consistent_with_table(self):
        rng = np.random.default_rng(11)
        z = make_joint(rng.normal(size=(30, 2)))
        idx = build_index(z)
        table = neighbor_table(idx, 29)
        for i in [0, 7, 29]:
            for k in [1, 5, 29]:
                assert kth_neighbor(idx, i, k) == table[i, k - 1]


def scan_columns(z, ks):
    """The scan oracle's columns at ranks ks."""
    return scan_rank_table(z.points, ks)


class RecordingTree:
    """A kd tree that records the rows, the k, the calling thread and the
    ``workers`` of each query; ``delay`` seconds of sleep slow each one."""

    def __init__(self, tree, delay=0.0):
        self.tree = tree
        self.indices = tree.indices
        self.delay = delay
        self.ks = []
        self.rows = []
        self.threads = []
        self.workers = []

    def query(self, x, k, **kwargs):
        self.ks.append(k)
        self.rows.append(len(x))
        self.threads.append(threading.get_ident())
        self.workers.append(kwargs.get("workers"))
        time.sleep(self.delay)
        return self.tree.query(x, k=k, **kwargs)


def copied_lattice(side, dim, copies):
    """Every point of a side^dim integer grid, ``copies`` times over."""
    grid = np.stack(np.meshgrid(*[np.arange(float(side))] * dim), -1).reshape(-1, dim)
    return np.repeat(grid, copies, axis=0)


class TestSelectedRanks:
    """Only the requested ranks are certified; each must equal the scan."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_lattice_counts_match_scan(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        n = data.draw(st.integers(3, 40), label="n")
        span = data.draw(st.integers(1, 5), label="span")
        coords = st.lists(st.integers(-span, span), min_size=dim, max_size=dim)
        pts = np.asarray(data.draw(st.lists(coords, min_size=n, max_size=n)), dtype=float)
        ks = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1), label="ks"))
        workers = data.draw(st.sampled_from([1, 2, 4]), label="workers")
        # At these sizes nearly every draw sorts whole rows; a switch depth
        # of 0 sends the ranks to the kd query instead.
        depth = data.draw(st.sampled_from([0, neighbors._SORT_DEPTH]), label="depth")
        z = make_joint(pts)
        idx = build_index(z)
        expected = scan_columns(z, ks)
        opposite = z.labels[expected] != z.labels[:, None]
        counts = dict(zip(ks, opposite.sum(axis=0).tolist()))
        with mock.patch.object(neighbors, "_SORT_DEPTH", depth):
            np.testing.assert_array_equal(neighbor_ranks(idx, ks, workers), expected)
            assert dichotomous_counts(z, idx, ks, workers) == counts

    @pytest.mark.parametrize("dim", [1, 2, 3, pytest.param(0, id="identical")])
    def test_last_ranks_have_no_column_beyond(self, dim):
        # dim 0 stands for n copies of one 2-D point: every rank ties, so
        # the sorted window widens until it holds all n points.
        rng = np.random.default_rng(dim)
        n = 30
        z = make_joint(rng.normal(size=(n, dim)) if dim else np.ones((n, 2)))
        idx = build_index(z)
        for ks in ([2], [n - 2], [n - 1], [n - 2, n - 1], [1, n - 1]):
            np.testing.assert_array_equal(neighbor_ranks(idx, ks), scan_columns(z, ks))

    def test_point_repeated_beyond_fetch(self):
        # 15 copies of one point and ranks up to 5: a copy's first candidates
        # need not hold its own index. At 35 points these ranks take the row
        # sort; test_lattice_counts_match_scan also forces the kd query.
        rng = np.random.default_rng(3)
        pts = np.vstack([np.zeros((12, 2)), rng.normal(size=(20, 2)), np.zeros((3, 2))])
        z = make_joint(pts)
        ks = [1, 3, 5]
        np.testing.assert_array_equal(neighbor_ranks(build_index(z), ks), scan_columns(z, ks))

    def test_rank_on_exact_tie(self):
        # Equally spaced points: ranks 2j-1 and 2j of an interior point tie.
        z = make_joint(np.arange(30.0)[:, None])
        ks = [1, 2, 4, 7, 10]
        np.testing.assert_array_equal(neighbor_ranks(build_index(z), ks), scan_columns(z, ks))

    def test_lattice_ties_widen_the_window_not_to_n(self):
        # Five copies of each grid point put the tie group of rank 20 past
        # the first window of 20 + 1 + 8 candidates; doubling it once ends
        # the group, so no row needs all n points.
        z = make_joint(copied_lattice(6, 3, 5))
        ks = [5, 20]
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        windows = [k for k in tree.ks if isinstance(k, int)]
        assert len(set(windows)) > 1
        assert max(windows) < len(z)

    def test_tie_windows_run_on_the_block_threads(self):
        # At two threads the copied lattice splits into two blocks, nearly
        # every row of them tied; a short sleep in each query keeps one
        # thread from taking both blocks. Each block re-ranks its own tied
        # rows with single-threaded queries.
        z = make_joint(copied_lattice(5, 3, 4))
        ks = [5, 20]
        tree = RecordingTree(build_index(z).tree, delay=0.02)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks, workers=2)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        ties = [(thread, workers) for k, thread, workers
                in zip(tree.ks, tree.threads, tree.workers) if isinstance(k, int)]
        assert len({thread for thread, _ in ties}) >= 2
        assert {workers for _, workers in ties} == {1}

    def test_tied_rows_split_into_blocks(self, monkeypatch):
        # A small byte budget, 100 window entries, sorts a few rows at a
        # time, in every round.
        entry = neighbors._ENTRY_BYTES
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 100 * entry)
        z = make_joint(copied_lattice(4, 3, 5))
        ks = [5, 20]
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        blocks = [(rows, k) for rows, k in zip(tree.rows, tree.ks) if isinstance(k, int)]
        assert len({k for _, k in blocks}) > 1
        assert len(blocks) > 2 * len({k for _, k in blocks})
        assert all(rows * k * entry <= 100 * entry for rows, k in blocks)

    def test_gapped_rank_schedule(self):
        # Ranks floor(l * sqrt(N)) as a wnn schedule reads them.
        rng = np.random.default_rng(5)
        z = make_joint(rng.normal(size=(400, 3)))
        ks = sorted({int(l * np.sqrt(200)) for l in (0.1, 0.35, 0.6, 1.0, 1.5, 2.2, 9.0)})
        idx = build_index(z)
        table = neighbor_table(idx, ks[-1])
        np.testing.assert_array_equal(neighbor_ranks(idx, ks), scan_columns(z, ks))
        np.testing.assert_array_equal(table[:, np.asarray(ks) - 1], scan_columns(z, ks))

    @pytest.mark.parametrize("ks", [[0, 2], [2, 40], []])
    def test_ranks_out_of_range(self, ks):
        z = make_joint(np.arange(40.0)[:, None])
        with pytest.raises(KTooLarge):
            neighbor_ranks(build_index(z), ks)

    def test_duplicate_ranks_collide(self):
        z = make_joint(np.arange(40.0)[:, None])
        with pytest.raises(KCollision, match="duplicates"):
            neighbor_ranks(build_index(z), [3, 3])


class TestNarrowFetch:
    """The candidate source returns only the columns that certify the read ranks."""

    def test_only_certified_columns_are_requested(self):
        # _SORT_DEPTH * (40 + 2) < 600, so the kd query is the source.
        rng = np.random.default_rng(8)
        z = make_joint(rng.normal(size=(600, 3)))
        assert neighbors._SORT_DEPTH * (40 + 2) < len(z)
        tree = RecordingTree(build_index(z).tree)
        ks = [1, 7, 8, 40]
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks, workers=2)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        # Ranks r ask for columns r-1, r, r+1, i.e. tree ranks r, r+1, r+2;
        # never k = k_max + 2 and never a column between the read ranks.
        assert tree.ks
        assert all(k == [1, 2, 3, 7, 8, 9, 10, 40, 41, 42] for k in tree.ks)

    def test_last_rank_asks_for_nothing_past_the_cloud(self, monkeypatch):
        # Rank n-1 is always deep enough to sort whole rows.
        z = make_joint(np.random.default_rng(9).normal(size=(20, 2)))
        sorted_cols = []
        real = neighbors._sorted_columns

        def recording(points, rows, cols):
            sorted_cols.append(cols.tolist())
            return real(points, rows, cols)

        monkeypatch.setattr(neighbors, "_sorted_columns", recording)
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), [19])
        np.testing.assert_array_equal(got, scan_columns(z, [19]))
        assert sorted_cols == [[18, 19]]
        assert tree.ks == []


class TestSortedColumns:
    """Deep ranks take their candidates from whole sorted rows, not the tree."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "kind", ["random", "copied_lattice", "identical", "wide_random", "wide_lattice"]
    )
    def test_deep_ranks_skip_the_kd_query(self, kind, workers):
        # Below a few hundred points numpy's partition happens to leave the
        # head sorted; the wide inputs make the head sort and the partition
        # depth matter.
        pts = {
            "random": np.random.default_rng(4).normal(size=(60, 3)),
            "copied_lattice": copied_lattice(3, 3, 2),
            "identical": np.ones((40, 2)),
            "wide_random": np.random.default_rng(5).normal(size=(1000, 3)),
            "wide_lattice": copied_lattice(5, 3, 8),
        }[kind]
        z = make_joint(pts)
        ks = [3, 31, 95, 316] if kind.startswith("wide") else [1, 5, 6, 20]
        assert neighbors._SORT_DEPTH * (max(ks) + 2) >= len(z)
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks, workers)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        # Only the tie path may still ask the tree, for its tied rows.
        assert not any(isinstance(k, list) for k in tree.ks)
        if kind.endswith("random"):
            assert tree.ks == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["random", "lattice"])
    def test_columns_hold_the_sorted_distances(self, kind, workers, monkeypatch):
        # The source's contract, ties aside: column c of a row is at the
        # c-th smallest distance of that row, self included, and its bucket
        # holds that distance's bits above the index bits. At d=2 every sum
        # adds the same two squares, so the distances agree bit for bit.
        pts = (np.random.default_rng(7).normal(size=(1000, 2)) if kind == "random"
               else copied_lattice(16, 2, 4))
        blocks = []
        real = neighbors._sorted_columns

        def recording(points, rows, cols):
            got, bucket = real(points, rows, cols)
            blocks.append((rows, cols, got, bucket))
            return got, bucket

        monkeypatch.setattr(neighbors, "_sorted_columns", recording)
        z = make_joint(pts)
        neighbor_ranks(build_index(z), [1, 41, 300], workers)
        assert np.array_equal(np.sort(np.concatenate([b[0] for b in blocks])), np.arange(len(pts)))
        bits = (len(pts) - 1).bit_length()
        for rows, cols, got, bucket in blocks:
            assert cols.tolist() == [0, 1, 2, 40, 41, 42, 299, 300, 301]
            full = ((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            np.testing.assert_array_equal(
                np.take_along_axis(full, got, axis=1), np.sort(full, axis=1)[:, cols]
            )
            # The certified distances, in the package's own formula, are the keys'.
            near = neighbors._sq_dists(z.points, got, rows[:, None])
            np.testing.assert_array_equal(bucket, near.view(np.int64) >> bits)

    @pytest.mark.parametrize("top, source", [(27, "kd"), (28, "sort")])
    def test_either_side_of_the_switch(self, top, source):
        # _SORT_DEPTH * (27 + 2) < n <= _SORT_DEPTH * (28 + 2).
        z = make_joint(np.random.default_rng(6).normal(size=(30 * neighbors._SORT_DEPTH, 2)))
        ks = [1, 9, top]
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        assert any(isinstance(k, list) for k in tree.ks) == (source == "kd")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sorted_rows_split_into_blocks(self, monkeypatch, workers):
        # A small byte budget, 200 sort keys, sorts a few rows at a time;
        # the threads share it.
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 200 * 8)
        shapes = []
        real = neighbors._sorted_columns

        def recording(points, rows, cols):
            shapes.append((len(rows), len(points)))
            return real(points, rows, cols)

        monkeypatch.setattr(neighbors, "_sorted_columns", recording)
        z = make_joint(copied_lattice(3, 2, 4))
        ks = [1, 4, 30]
        got = neighbor_ranks(build_index(z), ks, workers)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        assert sum(rows for rows, _ in shapes) == len(z)
        assert len(shapes) > 2
        assert all(rows * 8 * n * workers <= 200 * 8 for rows, n in shapes)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["random", "lattice", "tiny", "huge"])
    def test_kernel_sums_coordinates_in_order(self, kind, dim, monkeypatch):
        # The squared distances the keys are made from equal a per-coordinate
        # loop bit for bit, subnormal (1e-160) and overflowing (1e155) ones
        # too, and the overflow stays silent. The bits are a property of the
        # tested scipy build's kernel, not a scipy guarantee; the ranks do not
        # rest on them, as every candidate is re-certified from _sq_dists.
        rng = np.random.default_rng(dim)
        pts = {
            "random": rng.normal(size=(300, dim)),
            "lattice": copied_lattice([0, 60, 8, 4, 3][dim], dim, 2),
            "tiny": rng.normal(size=(300, dim)) * 1e-160,
            "huge": rng.normal(size=(300, dim)) * 1e155,
        }[kind]
        calls = []
        real = neighbors.cdist

        def recording(a, b, metric):
            out = real(a, b, metric)
            calls.append((a.copy(), b, out.copy()))
            return out

        monkeypatch.setattr(neighbors, "cdist", recording)
        z = make_joint(pts)
        ks = [1, len(z) // 3, len(z) - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = neighbor_ranks(build_index(z), ks, 2)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        assert sum(len(a) for a, _, _ in calls) == len(z)
        for a, b, d2 in calls:
            assert b is z.points
            want = coordinate_sq_dists(a, b)
            assert np.array_equal(d2.view(np.int64), want.view(np.int64))


def estimate_files_pair(dim, n, seed=0):
    """X ~ N(0, I) and Y ~ N(e1, 4 I), n points each, pooled as the
    estimate command pools them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = np.eye(1, dim)[0] + 2.0 * rng.standard_normal((n, dim))
    return pool_pair(PointCloud(x), PointCloud(y))


class TestBlockBudget:
    """Every candidate block, kd, row sort or tie window, fits one thread's
    share of _BLOCK_BYTES."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["random", "copied_lattice"])
    def test_kd_blocks_and_tie_windows_fit_the_budget(self, kind, workers, monkeypatch):
        # Random points take kd blocks only; the lattice's tied rows then
        # go through tie windows, several of them.
        budget = 20_000
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", budget)
        entry = neighbors._ENTRY_BYTES
        assert entry >= 8 * 8  # query index and distance, recompute and sort temporaries
        pts, ks = {
            "random": (np.random.default_rng(8).normal(size=(600, 3)), [1, 7, 8, 40]),
            "copied_lattice": (copied_lattice(5, 3, 4), [5, 20]),
        }[kind]
        z = make_joint(pts)
        assert neighbors._SORT_DEPTH * (max(ks) + 2) < len(z)  # the kd source
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks, workers)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        kd = [(rows, len(k)) for rows, k in zip(tree.rows, tree.ks) if isinstance(k, list)]
        ties = [(rows, k) for rows, k in zip(tree.rows, tree.ks) if isinstance(k, int)]
        assert sum(rows for rows, _ in kd) == len(z) and len(kd) > 2
        assert all(rows * cols * entry * workers <= budget for rows, cols in kd)
        assert all(rows * k * entry * workers <= budget for rows, k in ties)
        assert len(ties) > 2 if kind == "copied_lattice" else not ties

    def test_small_ranks_take_one_kd_query(self):
        # A Monte Carlo trial at N=2000 (knn:5 and knn:20, one thread): 4000
        # rows of 6 fetched columns fit the budget, so one query serves all.
        z = estimate_files_pair(2, 2000)
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), [5, 20], workers=1)
        np.testing.assert_array_equal(got, scan_rank_table(z.points, [5, 20]))
        assert tree.rows == [4000]
        assert tree.ks == [[5, 6, 7, 20, 21, 22]]

    @pytest.mark.parametrize(
        "shape, workers, limit_mb",
        [("wnn_d3", 1, 5), ("wnn_d3", 2, 5), ("knn_d2", 1, 4), ("knn_d2", 2, 4)],
    )
    def test_neighbor_ranks_peak(self, shape, workers, limit_mb):
        # The pooled inputs and ranks of the estimate command's calls: wnn at
        # d=3 on 2048 + 2048 points (the default schedule sorts whole rows),
        # knn k=1 at d=2 on 50000 + 50000 points (one kd pass).
        if shape == "wnn_d3":
            z = estimate_files_pair(3, 2048)
            ks = resolve_schedule(default_l_values(3), 3, 2048, m=2048).k_values
        else:
            z = estimate_files_pair(2, 50_000)
            ks = [1]
        idx = build_index(z)
        tracemalloc.start()
        try:
            neighbor_ranks(idx, ks, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 2**20


class TestPackedKeys:
    """The row sort ranks by int64 keys: a squared distance's bits with the
    low bits holding the point index. Each case must give the scan's ranks
    from either source at one and two threads."""

    @staticmethod
    def tied_rows(z, ks, monkeypatch):
        """Check every source and thread count against the scan; return the
        count of rows each run sent to the tie path."""
        expected = scan_columns(z, ks)
        idx = build_index(z)
        tied = []
        real = neighbors._sorted_rows

        def recording(idx, rows, *args):
            tied[-1] += len(rows)
            return real(idx, rows, *args)

        monkeypatch.setattr(neighbors, "_sorted_rows", recording)
        for depth in (0, len(z)):  # the kd query, then the row sort
            monkeypatch.setattr(neighbors, "_SORT_DEPTH", depth)
            for workers in (1, 2):
                tied.append(0)
                np.testing.assert_array_equal(neighbor_ranks(idx, ks, workers), expected)
        return tied

    @pytest.mark.parametrize("seed", range(12))
    def test_subnormal_distances(self, seed, monkeypatch):
        # Spacing about 2^-537 puts every squared distance a few hundred
        # subnormal steps above zero: a key bucket of 2^6 steps then holds
        # distances whose relative gaps are far above _TIE_RTOL. A few
        # spread ranks leave a misordered bucket's other columns unread.
        pts = np.random.default_rng(seed).normal(size=(40, 2)) * 8 * 2.0**-537
        assert 0 < np.abs(pts).max() ** 2 < np.finfo(float).tiny
        for ks in ([1, 2, 3], [5, 10, 20]):
            self.tied_rows(make_joint(pts), ks, monkeypatch)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances(self, monkeypatch):
        # Coordinates near 1e155: most squared distances overflow to inf,
        # silently, as on the kd path.
        pts = np.random.default_rng(1).normal(size=(40, 2)) * 1e155
        z = make_joint(pts)
        assert np.isinf(neighbors._sq_dists(z.points, np.arange(40), 0)).any()
        self.tied_rows(z, list(range(1, 40)), monkeypatch)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_self_is_not_ranked_among_overflows(self, monkeypatch):
        # Every distance but a point's own overflows to +inf: self still
        # leaves each row, and the infinite ones break by index.
        z = make_joint([[0.0], [1e155], [-1e155], [2e155]])
        assert self.tied_rows(z, [1, 2, 3], monkeypatch) == [4, 4, 4, 4]
        np.testing.assert_array_equal(
            scan_columns(z, [1, 2, 3]), [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        )

    def test_near_ties_inside_one_bucket(self, monkeypatch):
        # Each point has a twin moved by a relative 2^-45, so their distances
        # from the other points share a key bucket.
        base = np.random.default_rng(2).normal(size=(20, 3))
        pts = np.vstack([base, base * (1 + 2.0**-45)])
        self.tied_rows(make_joint(pts), list(range(1, 40)), monkeypatch)

    @pytest.mark.parametrize("n", [1 << 12, (1 << 12) + 1])
    def test_index_bits_boundary(self, n, monkeypatch):
        # (n - 1).bit_length() index bits hold every index; with one bit
        # fewer the high indices decode wrong. Random points have no ties,
        # so every row certifies and none may reach the tie path.
        pts = np.random.default_rng(n).normal(size=(n, 2))
        assert self.tied_rows(make_joint(pts), [1, 2, 3, 50], monkeypatch) == [0, 0, 0, 0]


class TestDistanceFormula:
    """_sq_dists adds squares one coordinate at a time in axis order, the order
    of the oracles and of cdist on the tested scipy build."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e155])
    def test_bits_match_the_coordinate_loop(self, dim, scale):
        # normals, squares near the subnormal range, and overflows to +inf
        pts = np.random.default_rng(dim).normal(size=(80, dim)) * scale
        every = np.arange(len(pts))
        got = neighbors._sq_dists(pts, every[None, :], every[:, None])
        want = coordinate_sq_dists(pts, pts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isinf(got).any() == (scale > 1e154)
