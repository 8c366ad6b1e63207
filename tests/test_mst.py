import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import PointCloud, TooFewPoints, build_emst, mst_estimate, validate_pair
from hpdiv.mst import _prim_edges, dichotomous_edge_count

from conftest import tie_free
from oracles import kruskal_mst


def joint(x, y, p=0.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_pair(PointCloud(x), PointCloud(y), p)


def sorted_sq_lengths(pts, edges):
    """Sorted squared edge lengths via one shared formula, so two edge sets
    compare exactly (any two MSTs share the same length multiset)."""
    diff = pts[edges[:, 0]] - pts[edges[:, 1]]
    return np.sort((diff * diff).sum(axis=1))


class TestBuildEmst:
    def test_forced_path(self):
        tree = build_emst(PointCloud([[0.0], [1.0], [2.0]]))
        assert sorted(map(tuple, tree.edges.tolist())) == [(0, 1), (1, 2)]
        assert tree.lengths.sum() == pytest.approx(2.0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_emst(PointCloud([[1.0]]))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_kruskal_total(self, seed, dim):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        pts = rng.normal(size=(n, dim))
        tree = build_emst(PointCloud(pts))
        oracle_edges, _ = kruskal_mst(pts)
        # edge-length multiset is identical across all MSTs
        np.testing.assert_array_equal(
            sorted_sq_lengths(pts, tree.edges), sorted_sq_lengths(pts, oracle_edges)
        )
        assert tree.lengths.sum() == pytest.approx(
            np.sqrt(sorted_sq_lengths(pts, oracle_edges)).sum(), rel=1e-12
        )

    def test_grid_with_ties_matches_kruskal_total(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tree = build_emst(PointCloud(pts))
        oracle_edges, _ = kruskal_mst(pts)
        np.testing.assert_array_equal(
            sorted_sq_lengths(pts, tree.edges), sorted_sq_lengths(pts, oracle_edges)
        )

    def test_spanning_and_acyclic(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(60, 2))
        tree = build_emst(PointCloud(pts))
        assert len(tree) == 59
        # union-find: n-1 edges with no cycle implies spanning
        parent = list(range(60))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in tree.edges:
            ru, rv = find(int(u)), find(int(v))
            assert ru != rv, "cycle detected"
            parent[ru] = rv

    def test_two_clusters_single_bridge(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 0.1, size=(10, 2))
        b = rng.normal(0.0, 0.1, size=(10, 2)) + 100.0
        tree = build_emst(PointCloud(np.vstack([a, b])))
        crossing = ((tree.edges[:, 0] < 10) != (tree.edges[:, 1] < 10)).sum()
        assert crossing == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_dichotomous_count_matches_kruskal(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2)) + 0.5
        pts = np.vstack([x, y])
        if not tie_free(pts):
            pytest.skip("random draw produced a distance tie")
        z = joint(x, y)
        tree = build_emst(z)
        edges, _ = kruskal_mst(pts)
        oracle_count = ((edges[:, 0] < 20) != (edges[:, 1] < 20)).sum()
        assert dichotomous_edge_count(tree, z) == oracle_count


def edge_set(edges):
    return sorted(map(tuple, np.sort(np.asarray(edges), axis=1).tolist()))


def lattice(m):
    xs, ys = np.meshgrid(np.arange(float(m)), np.arange(float(m)))
    return np.column_stack([xs.ravel(), ys.ravel()])


def cube(m):
    axes = np.meshgrid(*[np.arange(float(m))] * 3)
    return np.column_stack([a.ravel() for a in axes])


class TestEdgeSets:
    """build_emst equals the Kruskal oracle edge for edge (same tie key),
    whichever construction the dimension picks."""

    def check(self, pts, algorithm):
        tree = build_emst(PointCloud(pts))
        assert tree.algorithm == algorithm
        oracle_edges, _ = kruskal_mst(pts)
        assert edge_set(tree.edges) == edge_set(oracle_edges)
        return tree

    @pytest.mark.parametrize("seed", range(5))
    def test_d1_random(self, seed):
        pts = np.random.default_rng(seed).normal(size=(150, 1))
        self.check(pts, "path")

    @pytest.mark.parametrize("seed", range(3))
    def test_d1_duplicates(self, seed):
        pts = np.random.default_rng(seed).integers(0, 20, size=(80, 1)).astype(float)
        self.check(pts, "prim")

    def test_d1_rounding_tie(self):
        # |(-1e20) - 1| and |(-1e20) - 2| round to the same length, and the
        # (0, 1) pair wins that tie, so the sorted path is not the tree
        self.check(np.array([[-1e20], [2.0], [1.0]]), "prim")

    @pytest.mark.parametrize("seed", range(5))
    def test_d2_random(self, seed):
        pts = np.random.default_rng(seed).normal(size=(150, 2))
        self.check(pts, "delaunay")

    @pytest.mark.parametrize("m", [5, 10])
    def test_d2_lattice(self, m):
        self.check(lattice(m), "delaunay")

    def test_d2_duplicates(self):
        pts = lattice(4)
        self.check(np.vstack([pts, pts[[0, 5, 5, 15]]]), "prim")

    def test_d2_collinear(self):
        t = np.random.default_rng(3).normal(size=40)
        self.check(np.column_stack([t, 2.0 * t]), "prim")

    @pytest.mark.parametrize("seed", range(3))
    def test_d3_random(self, seed):
        pts = np.random.default_rng(seed).normal(size=(100, 3))
        self.check(pts, "delaunay")

    def test_d3_lattice(self):
        self.check(cube(5), "delaunay")

    def test_d3_duplicates(self):
        pts = np.random.default_rng(4).normal(size=(60, 3))
        self.check(np.vstack([pts, pts[[0, 7, 7, 30]]]), "prim")

    def test_d3_coplanar(self):
        xy = np.random.default_rng(5).normal(size=(50, 2))
        self.check(np.column_stack([xy, np.zeros(50)]), "prim")

    def test_d4_random(self):
        self.check(np.random.default_rng(6).normal(size=(60, 4)), "prim")

    @given(
        st.integers(1, 3),
        st.integers(2, 40),
        st.integers(2, 30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_lattice_clouds(self, dim, n, side, seed):
        pts = np.random.default_rng(seed).integers(0, side, size=(n, dim)).astype(float)
        tree = build_emst(PointCloud(pts))
        oracle_edges, _ = kruskal_mst(pts)
        assert edge_set(tree.edges) == edge_set(oracle_edges)

    def test_tree_does_not_depend_on_path(self):
        for dim in (2, 3):
            pts = np.random.default_rng(11).normal(size=(200, dim))
            fast = build_emst(PointCloud(pts))
            slow_edges = np.column_stack(_prim_edges(PointCloud(pts).points))
            assert fast.algorithm == "delaunay"
            assert edge_set(fast.edges) == edge_set(slow_edges)
            lo, hi = fast.edges[:, 0], fast.edges[:, 1]
            assert (lo < hi).all()
            diff = pts[lo] - pts[hi]
            key = np.lexsort((hi, lo, np.einsum("ij,ij->i", diff, diff)))
            np.testing.assert_array_equal(key, np.arange(len(fast)))


class TestOneSort:
    """build_emst sorts its candidate edges once, and runs Kruskal only on
    more than n - 1 of them (the Delaunay graph)."""

    @pytest.mark.parametrize("pts, algorithm, kruskal", [
        (np.arange(30.0)[:, None] ** 1.5, "path", 0),
        (lattice(6), "delaunay", 1),
        (cube(4), "delaunay", 1),
        (np.random.default_rng(2).normal(size=(40, 4)), "prim", 0),
    ], ids=["path", "delaunay-2d", "delaunay-3d", "prim"])
    def test_sorts_once(self, monkeypatch, pts, algorithm, kruskal):
        import scipy.sparse.csgraph as csgraph

        calls = {"lexsort": 0, "kruskal": 0}

        def counting(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "lexsort", counting("lexsort", np.lexsort))
        monkeypatch.setattr(csgraph, "minimum_spanning_tree",
                            counting("kruskal", csgraph.minimum_spanning_tree))
        tree = build_emst(PointCloud(pts))
        assert tree.algorithm == algorithm
        assert calls == {"lexsort": 1, "kruskal": kruskal}


class TestMstEstimate:
    def test_hand_value(self, hand_pair):
        x, y = hand_pair
        res = mst_estimate(x, y, 0.5)
        assert res.value == -0.5
        assert res.params["dichotomous_edges"] == 3
        assert res.method == "mst" and res.n == 2 and res.m == 2

    def test_hand_value_clamped(self, hand_pair):
        x, y = hand_pair
        res = mst_estimate(x, y, 0.5, clamp=True)
        assert res.value == 0.0 and res.clamped

    def test_far_clusters(self):
        rng = np.random.default_rng(1)
        x = PointCloud(rng.normal(0, 0.1, size=(10, 2)))
        y = PointCloud(rng.normal(0, 0.1, size=(10, 2)) + 1000.0)
        res = mst_estimate(x, y, 0.5)
        assert res.value == pytest.approx(0.9)

    @pytest.mark.parametrize("seed", range(5))
    def test_label_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = PointCloud(rng.normal(size=(12, 2)))
        y = PointCloud(rng.normal(size=(9, 2)))
        if not tie_free(np.vstack([x.points, y.points])):
            pytest.skip("random draw produced a distance tie")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = mst_estimate(x, y, 0.3).value
            b = mst_estimate(y, x, 0.7).value
        assert a == b
