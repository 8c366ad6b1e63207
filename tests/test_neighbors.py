import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import JointSet, KTooLarge, PointCloud, build_index, kth_neighbor, neighbor_table, validate_pair
from hpdiv import neighbors
from hpdiv.core import HPDivError
from hpdiv.estimators import dichotomous_counts
from hpdiv.neighbors import NeighborIndex, neighbor_ranks


from oracles import brute_kth, scan_rank_table


def make_joint(points):
    """Wrap raw points as a JointSet (labels irrelevant for neighbor queries)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1:
        return JointSet(cloud=PointCloud(pts), labels=np.zeros(1, np.int8), n_x=1, n_y=0)
    half = max(1, len(pts) // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_pair(PointCloud(pts[:half]), PointCloud(pts[half:]), 0.5)


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

    def test_bad_point_index(self):
        z = make_joint([[0.0], [1.0]])
        idx = build_index(z)
        with pytest.raises(HPDivError):
            kth_neighbor(idx, 5, 1)


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
    return scan_rank_table(z.points)[:, np.asarray(ks) - 1]


class RecordingTree:
    """A kd tree that records the rows and the k of each query."""

    def __init__(self, tree):
        self.tree = tree
        self.ks = []
        self.rows = []

    def query(self, x, k, **kwargs):
        self.ks.append(k)
        self.rows.append(len(x))
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

    def test_tied_rows_split_into_blocks(self, monkeypatch):
        # A small block bound sorts a few rows at a time, in every round.
        monkeypatch.setattr(neighbors, "_BLOCK", 100)
        z = make_joint(copied_lattice(4, 3, 5))
        ks = [5, 20]
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        blocks = [(rows, k) for rows, k in zip(tree.rows, tree.ks) if isinstance(k, int)]
        assert len({k for _, k in blocks}) > 1
        assert len(blocks) > 2 * len({k for _, k in blocks})
        assert all(rows * k <= 100 for rows, k in blocks)

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


class TestNarrowFetch:
    """The candidate source returns only the columns that certify the read ranks."""

    def test_only_certified_columns_are_requested(self):
        # 10 * (40 + 2) < 600, so the kd query is the source.
        rng = np.random.default_rng(8)
        z = make_joint(rng.normal(size=(600, 3)))
        tree = RecordingTree(build_index(z).tree)
        ks = [1, 7, 8, 40]
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks, workers=2)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        # Ranks r ask for columns r-1, r, r+1, i.e. tree ranks r, r+1, r+2;
        # never k = k_max + 2 and never a column between the read ranks.
        assert tree.ks == [[1, 2, 3, 7, 8, 9, 10, 40, 41, 42]]

    def test_last_rank_asks_for_nothing_past_the_cloud(self, monkeypatch):
        # Rank n-1 is always deep enough to sort whole rows.
        z = make_joint(np.random.default_rng(9).normal(size=(20, 2)))
        sorted_cols = []
        real = neighbors._sorted_columns

        def recording(points, rows, cols, workers):
            sorted_cols.append(cols.tolist())
            return real(points, rows, cols, workers)

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
    def test_columns_hold_the_sorted_distances(self, kind, workers):
        # The source's contract, ties aside: column c of a row is at the
        # c-th smallest distance of that row, self included. At d=2 both
        # sums add the same two squares, so the distances agree bit for bit.
        pts = (np.random.default_rng(7).normal(size=(1000, 2)) if kind == "random"
               else copied_lattice(16, 2, 4))
        rows = np.arange(0, len(pts), 7)
        cols = np.array([0, 1, 2, 40, 41, 42, 299, 300, 301])
        got = neighbors._sorted_columns(pts, rows, cols, workers)
        full = ((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(
            np.take_along_axis(full, got, axis=1), np.sort(full, axis=1)[:, cols]
        )

    @pytest.mark.parametrize("top, source", [(27, "kd"), (28, "sort")])
    def test_either_side_of_the_switch(self, top, source):
        # 10 * (27 + 2) < 300 <= 10 * (28 + 2).
        z = make_joint(np.random.default_rng(6).normal(size=(300, 2)))
        ks = [1, 9, top]
        tree = RecordingTree(build_index(z).tree)
        got = neighbor_ranks(NeighborIndex(tree=tree, source=z), ks)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        assert any(isinstance(k, list) for k in tree.ks) == (source == "kd")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sorted_rows_split_into_blocks(self, monkeypatch, workers):
        # A small block bound sorts a few rows at a time; the threads share it.
        monkeypatch.setattr(neighbors, "_BLOCK", 200)
        shapes = []
        real = np.argpartition

        def recording(a, kth, axis):
            shapes.append(a.shape)
            return real(a, kth, axis=axis)

        monkeypatch.setattr(np, "argpartition", recording)
        z = make_joint(copied_lattice(3, 2, 4))
        ks = [1, 4, 30]
        got = neighbor_ranks(build_index(z), ks, workers)
        np.testing.assert_array_equal(got, scan_columns(z, ks))
        assert sum(rows for rows, _ in shapes) == len(z)
        assert len(shapes) > 2
        assert all(rows * n * workers <= 200 for rows, n in shapes)
