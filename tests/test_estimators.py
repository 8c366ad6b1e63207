import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import (
    HPDivError,
    KCollision,
    KTooLarge,
    PointCloud,
    WeightSchedule,
    build_index,
    knn_estimate,
    resolve_schedule,
    validate_pair,
    wnn_estimate,
)

from hpdiv.estimators import dichotomous_counts, neighbor_statistics
from hpdiv.neighbors import checked_ranks

from conftest import tie_free
from oracles import scan_rank_table


def quiet_pair(x, y, p=0.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_pair(PointCloud(x), PointCloud(y), p)


def far_clusters(n=8, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = PointCloud(rng.normal(0, 0.1, size=(n, d)))
    y = PointCloud(rng.normal(0, 0.1, size=(n, d)) + 1e6)
    return x, y


class TestCountDichotomous:
    def test_hand_counts(self, hand_pair):
        x, y = hand_pair
        z = validate_pair(x, y, 0.5)
        idx = build_index(z)
        assert dichotomous_counts(z, idx, [1])[1] == 4
        assert dichotomous_counts(z, idx, [2])[2] == 2

    def test_far_clusters_zero(self):
        x, y = far_clusters()
        z = validate_pair(x, y, 0.5)
        idx = build_index(z)
        for k in (1, 3, 7):
            assert dichotomous_counts(z, idx, [k])[k] == 0

    def test_index_of_another_set_rejected(self):
        # An index of z1 (50 + 50 points) read with the labels of z2 (30 +
        # 70 points, as many in all) would count z2's labels on z1's
        # neighbors; it fails instead.
        pts = np.random.default_rng(4).normal(size=(100, 2))
        z1 = quiet_pair(pts[:50], pts[50:])
        z2 = quiet_pair(pts[:30], pts[30:])
        with pytest.raises(HPDivError, match="index built on z"):
            dichotomous_counts(z2, build_index(z1), [1, 5])
        opposite = z2.labels[scan_rank_table(z2.points, [1, 5])] != z2.labels[:, None]
        counts = dichotomous_counts(z2, build_index(z2), [1, 5])
        assert counts == dict(zip([1, 5], opposite.sum(axis=0).tolist()))

    def test_k_too_large(self, hand_pair):
        x, y = hand_pair
        z = validate_pair(x, y, 0.5)
        idx = build_index(z)
        with pytest.raises(KTooLarge):
            dichotomous_counts(z, idx, [4])[4]

    def test_empty_ranks_fail_only_their_entry(self, hand_pair):
        x, y = hand_pair
        z = validate_pair(x, y, 0.5)
        with pytest.raises(KTooLarge) as exc:
            checked_ranks([], len(z))
        assert str(exc.value) == "ranks must lie in [1, 3], got 0..0"
        stats = neighbor_statistics(z, {1: (checked_ranks([1], len(z)), [1])})
        assert stats[1] == dichotomous_counts(z, build_index(z), [1])[1] == 4

    def test_fractional_ranks_rejected(self, hand_pair):
        # A rank that is not a whole number fails before any cast truncates it.
        x, y = hand_pair
        z = validate_pair(x, y, 0.5)
        with pytest.raises(HPDivError, match=r"whole numbers, got \[0.5\]"):
            checked_ranks([0.5], len(z))
        with pytest.raises(HPDivError, match=r"got \[2.7\]"):
            knn_estimate(x, y, 2.7, 0.5)
        with pytest.raises(HPDivError, match=r"got \[1.5\]"):
            dichotomous_counts(z, build_index(z), [1.5])
        with pytest.raises(HPDivError, match=r"got \[1.5\]"):
            neighbor_statistics(z, {0: ([1.5], [1])})
        for k in (2.0, np.int64(2)):
            res = knn_estimate(x, y, k, 0.5)
            assert res.params["k"] == 2 and res.value == 0.0

    @pytest.mark.parametrize("k", [2**64, -(2**70), 10**23 - 1])
    def test_ranks_past_int64_rejected(self, hand_pair, k):
        # Ints outside int64 arrive as an object array; they fail the range
        # check with their exact value.
        x, y = hand_pair
        z = validate_pair(x, y, 0.5)
        with pytest.raises(KTooLarge, match=rf"got {k}\.\.{k}"):
            checked_ranks([k], len(z))
        with pytest.raises(KTooLarge, match=rf"got {k}\.\.{k}"):
            knn_estimate(x, y, k, 0.5)


class TestKnnEstimate:
    def test_hand_values(self, hand_pair):
        x, y = hand_pair
        assert knn_estimate(x, y, 1, 0.5).value == -1.0
        assert knn_estimate(x, y, 2, 0.5).value == 0.0

    def test_far_clusters_one(self):
        x, y = far_clusters()
        assert knn_estimate(x, y, 3, 0.5).value == 1.0

    def test_clamp(self, hand_pair):
        x, y = hand_pair
        res = knn_estimate(x, y, 1, 0.5, clamp=True)
        assert res.value == 0.0 and res.clamped

    def test_metadata(self, hand_pair):
        x, y = hand_pair
        res = knn_estimate(x, y, 1, 0.5)
        assert res.method == "knn" and res.params["k"] == 1
        assert res.n == 2 and res.m == 2 and not res.clamped


class TestWnnEstimate:
    def test_hand_value(self, hand_pair):
        x, y = hand_pair
        sched = resolve_schedule([1.0, 2.0], 1, 2)
        np.testing.assert_array_equal(sched.w, [2.0, -1.0])
        assert wnn_estimate(x, y, sched, 0.5).value == -2.0

    def test_degenerate_single_weight_equals_knn(self):
        rng = np.random.default_rng(5)
        x = PointCloud(rng.normal(size=(10, 2)))
        y = PointCloud(rng.normal(size=(10, 2)))
        sched = WeightSchedule(
            l_values=np.array([1.0]), w=np.array([1.0]),
            k_values=np.array([3]),
        )
        assert wnn_estimate(x, y, sched, 0.5).value == knn_estimate(x, y, 3, 0.5).value

    def test_far_clusters_one(self):
        x, y = far_clusters(n=40)
        sched = resolve_schedule([1.0, 2.0], 1, 40)
        assert wnn_estimate(x, y, sched, 0.5).value == 1.0

    def test_collision_rejected(self, hand_pair):
        x, y = hand_pair
        sched = WeightSchedule(
            l_values=np.array([1.0, 1.1]), w=np.array([2.0, -1.0]),
            k_values=np.array([1, 1]),
        )
        with pytest.raises(KCollision):
            wnn_estimate(x, y, sched, 0.5)

    def test_rank_bound_rejected(self, hand_pair):
        x, y = hand_pair
        sched = WeightSchedule(
            l_values=np.array([1.0, 2.0]), w=np.array([2.0, -1.0]),
            k_values=np.array([1, 9]),
        )
        with pytest.raises(KTooLarge):
            wnn_estimate(x, y, sched, 0.5)


class TestEstimatorProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_ensemble_identity(self, seed):
        """wnn == sum_l W(l) knn(K(l)) to machine precision."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        x = PointCloud(rng.normal(size=(n, 2)))
        y = PointCloud(rng.normal(size=(n, 2)) + 0.3)
        sched = resolve_schedule([1.0, 2.0, 3.0], 2, n)
        whole = wnn_estimate(x, y, sched, 0.5).value
        parts = sum(
            w * knn_estimate(x, y, int(k), 0.5).value
            for w, k in zip(sched.w, sched.k_values)
        )
        assert whole == pytest.approx(parts, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_range_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 20)), int(rng.integers(3, 20))
        x = PointCloud(rng.normal(size=(n, 1)))
        y = PointCloud(rng.normal(size=(m, 1)))
        lo = 1 - (n + m) ** 2 / (2 * n * m)
        for k in (1, 2):
            v = quiet_knn(x, y, k)
            assert lo - 1e-12 <= v <= 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_wnn_weighted_range_bounds(self, seed):
        """Negative weights widen the attainable interval: the count bound
        0 <= |E_k| <= N+M propagates through the weighted sum."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 24))
        x = PointCloud(rng.normal(size=(n, 1)))
        y = PointCloud(rng.normal(size=(n, 1)))
        sched = resolve_schedule([1.0, 2.0], 1, n)
        v = wnn_estimate(x, y, sched, 0.5).value
        t = (2 * n) ** 2 / (2 * n * n)
        pos = float(np.clip(sched.w, 0, None).sum())
        neg = float(np.clip(sched.w, None, 0).sum())
        assert 1 - t * pos - 1e-12 <= v <= 1 - t * neg + 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_label_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(4, 16)), int(rng.integers(4, 16))
        x = PointCloud(rng.normal(size=(n, 2)))
        y = PointCloud(rng.normal(size=(m, 2)))
        if not tie_free(np.vstack([x.points, y.points])):
            pytest.skip("random draw produced a distance tie")
        k = int(rng.integers(1, min(n, m)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert knn_estimate(x, y, k, 0.3).value == knn_estimate(y, x, k, 0.7).value

    @pytest.mark.parametrize("seed", range(8))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 24))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2)) + 0.25
        if not tie_free(np.vstack([x, y])):
            pytest.skip("random draw produced a distance tie")
        sched = resolve_schedule([1.0, 1.6, 2.2], 2, n)
        base_knn = knn_estimate(PointCloud(x), PointCloud(y), 2, 0.5).value
        base_wnn = wnn_estimate(PointCloud(x), PointCloud(y), sched, 0.5).value
        px, py = rng.permutation(n), rng.permutation(n)
        assert knn_estimate(PointCloud(x[px]), PointCloud(y[py]), 2, 0.5).value == base_knn
        assert wnn_estimate(PointCloud(x[px]), PointCloud(y[py]), sched, 0.5).value == base_wnn

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_wnn_two_forms_agree(self, seed):
        """1 - t*sum(w c) versus sum(w (1 - t c)): identical counts either way."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        x = PointCloud(rng.normal(size=(n, 1)))
        y = PointCloud(rng.normal(size=(n, 1)) + 0.5)
        sched = resolve_schedule([1.0, 2.5], 1, n)
        z = validate_pair(x, y, 0.5)
        idx = build_index(z)
        t = (2 * n) / (2 * n * n)
        counts = [dichotomous_counts(z, idx, [k])[k] for k in sched.k_values.tolist()]
        form_a = 1 - t * sum(w * c for w, c in zip(sched.w, counts))
        form_b = sum(w * (1 - t * c) for w, c in zip(sched.w, counts))
        assert form_a == pytest.approx(form_b, abs=1e-12)
        assert wnn_estimate(x, y, sched, 0.5).value == pytest.approx(form_a, abs=1e-15)


def quiet_knn(x, y, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return knn_estimate(x, y, k, 0.5).value
