import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import PointCloud, TooFewPoints, build_emst, mst_estimate, validate_pair
from hpdiv import mst, neighbors
from hpdiv.mst import _boruvka_edges, _path_edges, dichotomous_edge_count

from conftest import tie_free
from oracles import coordinate_sq_dists, kruskal_mst


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
        with np.errstate(over="ignore"):  # the oracle's lengths may overflow
            oracle_edges, _ = kruskal_mst(pts)
        assert edge_set(tree.edges) == edge_set(oracle_edges)
        return tree

    @pytest.mark.parametrize("seed", range(5))
    def test_d1_random(self, seed):
        pts = np.random.default_rng(seed).normal(size=(150, 1))
        self.check(pts, "path")

    @pytest.mark.parametrize("seed", range(3))
    def test_d1_duplicates(self, seed):
        # copies are starred on their first copy; the 20 values form the path
        pts = np.random.default_rng(seed).integers(0, 20, size=(80, 1)).astype(float)
        self.check(pts, "path")

    def test_d1_one_repeated_row(self):
        pts = np.random.default_rng(20).normal(size=(300, 1))
        self.check(np.vstack([pts, pts[[17]]]), "path")

    @pytest.mark.parametrize("seed", range(3))
    def test_d1_resampled_rows(self, seed):
        # rows drawn with replacement, as a csv bench trial draws them
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(300, 1))
        self.check(pts[rng.integers(0, len(pts), size=len(pts))], "path")

    def test_d1_copies_at_both_ends(self):
        pts = np.random.default_rng(21).normal(size=(50, 1))
        ends = [int(pts.argmin()), int(pts.argmax())]
        self.check(np.vstack([pts[ends * 2], pts, pts[ends]]), "path")

    @pytest.mark.parametrize("n", [2, 5])
    def test_d1_one_value(self, n):
        tree = self.check(np.full((n, 1), 2.5), "path")
        assert edge_set(tree.edges) == [(0, i) for i in range(1, n)]

    def test_d1_two_copies(self):
        tree = self.check(np.array([[3.0], [1.0], [3.0], [2.0]]), "path")
        assert edge_set(tree.edges) == [(0, 2), (0, 3), (1, 3)]

    def test_d1_copies_beside_a_rounding_tie(self):
        # the rounding tie of test_d1_rounding_tie, each value copied
        pts = np.array([[-1e20], [2.0], [1.0], [1.0], [-1e20], [2.0]])
        self.check(pts, "boruvka")

    def test_d1_underflowed_gaps(self):
        # Both gaps underflow to 0 but the 2-step does not, so the 2-step test
        # alone would pass; 4, a copy of 2, must join 1 (at length 0 from it),
        # which the Boruvka's first links find.
        pts = np.array([[2e-162], [1e-162], [0.0], [2e-162], [0.0]])
        tree = self.check(pts, "boruvka")
        assert (1, 4) in edge_set(tree.edges)

    def test_d1_rounding_tie(self):
        # |(-1e20) - 1| and |(-1e20) - 2| round to the same length, and the
        # (0, 1) pair wins that tie, so the sorted path is not the tree
        self.check(np.array([[-1e20], [2.0], [1.0]]), "boruvka")

    def test_d1_eight_values(self):
        # tie groups of about 250 copies: starred, not windowed one by one
        pts = np.random.default_rng(12).integers(0, 8, size=(2000, 1)).astype(float)
        self.check(pts, "path")

    @pytest.mark.parametrize("seed", range(5))
    def test_d2_random(self, seed):
        pts = np.random.default_rng(seed).normal(size=(150, 2))
        self.check(pts, "boruvka")

    @pytest.mark.parametrize("m", [5, 10])
    def test_d2_lattice(self, m):
        self.check(lattice(m), "boruvka")

    def test_d2_duplicates(self):
        pts = lattice(4)
        self.check(np.vstack([pts, pts[[0, 5, 5, 15]]]), "boruvka")

    def test_d2_lattice_with_repeated_rows(self):
        pts = lattice(30)
        rows = np.random.default_rng(13).integers(0, len(pts), size=100)
        self.check(np.vstack([pts, pts[rows]]), "boruvka")

    def test_d2_collinear(self):
        t = np.random.default_rng(3).normal(size=40)
        self.check(np.column_stack([t, 2.0 * t]), "boruvka")

    def test_d2_far_clusters(self, monkeypatch):
        # Components deep inside a cluster have every window inside them:
        # they ask a tree of the points outside them for windows, rather than
        # doubling them until they span the whole cluster.
        built, ks = [], []

        class Recording(mst.cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(len(data))
                super().__init__(data, *args, **kwargs)

            def query(self, x, k=1, **kwargs):
                ks.append(k)
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(mst, "cKDTree", Recording)
        rng = np.random.default_rng(14)
        pts = np.vstack([rng.normal(size=(600, 2)), rng.normal(size=(600, 2)) + 50.0])
        self.check(pts, "boruvka")
        assert built[0] == 1200 and 1 < len(built) and max(built[1:]) < 1200
        assert max(ks) <= 32

    @pytest.mark.parametrize("seed", range(3))
    def test_d3_random(self, seed):
        pts = np.random.default_rng(seed).normal(size=(100, 3))
        self.check(pts, "boruvka")

    def test_d3_lattice(self):
        self.check(cube(5), "boruvka")

    def test_d3_duplicates(self):
        pts = np.random.default_rng(4).normal(size=(60, 3))
        self.check(np.vstack([pts, pts[[0, 7, 7, 30]]]), "boruvka")

    def test_d3_coplanar(self):
        xy = np.random.default_rng(5).normal(size=(50, 2))
        self.check(np.column_stack([xy, np.zeros(50)]), "boruvka")

    def test_d3_collinear(self):
        t = np.random.default_rng(15).normal(size=60)
        self.check(np.column_stack([t, 2.0 * t, -t]), "boruvka")

    def test_d4_random(self):
        self.check(np.random.default_rng(6).normal(size=(60, 4)), "boruvka")

    @pytest.mark.parametrize("dim", [4, 5, 8])
    def test_high_dimensions(self, dim):
        self.check(np.random.default_rng(dim).normal(size=(300, dim)), "boruvka")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflowed_lengths(self, dim):
        # lengths across the origin overflow to +inf and tie; the index order decides
        pts = np.random.default_rng(16).choice([-1e155, 1e155, 0.0, 3e154], size=(40, dim))
        self.check(pts, "boruvka")

    @pytest.mark.parametrize("scale", [5e-324, 1e-160])
    def test_subnormal_spacing(self, scale):
        # 5e-324 steps: every length underflows to 0; 1e-160 steps: subnormal lengths
        pts = np.random.default_rng(17).integers(0, 12, size=(80, 2)) * scale
        self.check(pts, "boruvka")

    def test_underflow_reaches_past_copies(self):
        # 1 and 2 are copies, but 0 lies at length 0 from both (5e-324 squared
        # underflows), so each joins 0 rather than the other
        pts = np.array([[0.0], [5e-324], [5e-324], [1e-160], [3e-160], [2e-160]])
        tree = self.check(pts, "boruvka")
        assert edge_set(tree.edges)[:2] == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("seed", [4, 10, 16])
    def test_tiny_lattice_steps(self, seed):
        # Integer steps of 1e-150 at d = 3..5: many lengths tie or nearly tie,
        # and a sum in another order than the coordinate loop reorders them.
        rng = np.random.default_rng(seed)
        d = rng.integers(3, 6)
        n = rng.integers(5, 60)
        self.check(rng.integers(-3, 4, (n, d)) * 1e-150, "boruvka")

    def test_windows_fit_a_patched_budget(self, monkeypatch):
        # The Boruvka reads the byte budget at call time: with a small one
        # every window piece fits it, and the tree does not change.
        pts = np.random.default_rng(19).normal(size=(400, 2))
        want = edge_set(build_emst(PointCloud(pts)).edges)
        entries = []

        class Recording(mst.cKDTree):
            def query(self, x, k=1, **kwargs):
                entries.append(len(x) * k)
                return super().query(x, k=k, **kwargs)

        budget = 8192
        monkeypatch.setattr(mst, "cKDTree", Recording)
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", budget)
        assert edge_set(self.check(pts, "boruvka").edges) == want
        assert len(entries) >= len(pts) * 8 * neighbors._ENTRY_BYTES // budget  # 25 pieces
        assert max(entries) * neighbors._ENTRY_BYTES <= budget

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_smallest_clouds(self, n, dim):
        self.check(np.random.default_rng(18).normal(size=(n, dim)), "boruvka")
        self.check(np.zeros((n, dim)), "boruvka")

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
        assert tree.algorithm == "boruvka" or dim == 1
        oracle_edges, _ = kruskal_mst(pts)
        assert edge_set(tree.edges) == edge_set(oracle_edges)

    def test_tree_does_not_depend_on_path(self):
        pts = np.random.default_rng(11).normal(size=(200, 1))
        path = _path_edges(pts, np.argsort(pts[:, 0]))
        assert path is not None
        uv, first = _boruvka_edges(pts)
        np.testing.assert_array_equal(first, np.arange(len(pts)))
        assert edge_set(np.column_stack(path)) == edge_set(np.column_stack(uv))
        # edges come in (length, min endpoint, max endpoint) order, ties included
        clouds = [np.random.default_rng(11).normal(size=(200, dim)) for dim in (1, 2, 3)]
        for pts in clouds + [np.repeat(np.arange(6.0), 3)[:, None], lattice(6), cube(4)]:
            tree = build_emst(PointCloud(pts))
            lo, hi = tree.edges[:, 0], tree.edges[:, 1]
            assert (lo < hi).all()
            key = np.lexsort((hi, lo, coordinate_sq_dists(pts, pts)[lo, hi]))
            np.testing.assert_array_equal(key, np.arange(len(tree)))


class TestOneSort:
    """Each construction returns exactly the n - 1 tree edges, so build_emst
    sorts them once and runs no Kruskal."""

    @pytest.mark.parametrize("pts, algorithm", [
        (np.arange(30.0)[:, None] ** 1.5, "path"),
        (np.repeat(np.arange(6.0), 3)[:, None], "path"),
        (lattice(6), "boruvka"),
        (cube(4), "boruvka"),
        (np.random.default_rng(2).normal(size=(40, 4)), "boruvka"),
    ], ids=["path", "copies-1d", "lattice-2d", "cube-3d", "normal-4d"])
    def test_sorts_once(self, monkeypatch, pts, algorithm):
        real_lexsort = np.lexsort
        calls = {"lexsort": 0, "edges": []}

        def counting(*args, **kwargs):
            calls["lexsort"] += 1
            return real_lexsort(*args, **kwargs)

        def recording(real, edges):
            def construct(*args):
                out = real(*args)
                if out is not None:  # sorts from here on are build_emst's
                    calls["edges"].append(len(edges(out)[0]))
                    monkeypatch.setattr(np, "lexsort", counting)
                return out
            return construct

        monkeypatch.setattr(mst, "_path_edges", recording(mst._path_edges, lambda uv: uv))
        monkeypatch.setattr(mst, "_boruvka_edges", recording(mst._boruvka_edges, lambda out: out[0]))
        tree = build_emst(PointCloud(pts))
        assert tree.algorithm == algorithm
        # each construction joins the distinct points; build_emst stars the copies
        assert calls == {"lexsort": 1, "edges": [len(np.unique(pts, axis=0)) - 1]}


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
