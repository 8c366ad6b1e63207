import os
import threading
import time

import numpy as np
import pytest

from hpdiv import (
    DimensionMismatch,
    EmptyCloud,
    HPDivError,
    InvalidP,
    MixtureParam,
    PointCloud,
    SampleRatioWarning,
    knn_estimate,
    mst_estimate,
    validate_pair,
)
from hpdiv.core import (
    JointSet,
    estimate_result,
    expected_m,
    parse_number,
    pool_pair,
    thread_map,
    worker_count,
)
from hpdiv.oracle import KIND_TRUNC_NORMAL, KIND_UNIFORM, DistributionSpec, uniform_box
from hpdiv.weights import resolve_schedule


class TestPointCloud:
    def test_basic_shape(self):
        c = PointCloud([[0.0, 1.0], [2.0, 3.0]])
        assert len(c) == 2 and c.dim == 2

    def test_1d_input_promoted(self):
        c = PointCloud([0.0, 1.0, 2.0])
        assert c.dim == 1 and len(c) == 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloud):
            PointCloud(np.empty((0, 2)))

    def test_3d_rejected(self):
        with pytest.raises(HPDivError, match="2-D"):
            PointCloud(np.zeros((2, 2, 2)))

    def test_zero_columns_rejected(self):
        with pytest.raises(HPDivError, match="at least one coordinate"):
            PointCloud(np.zeros((5, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(HPDivError):
            PointCloud([[0.0, np.nan]])
        with pytest.raises(HPDivError):
            PointCloud([[np.inf, 0.0]])

    def test_immutable(self):
        c = PointCloud([[1.0, 2.0]])
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0


class TestJointSet:
    @pytest.mark.parametrize("n_x", [-1, 4])
    def test_n_x_outside_the_cloud_rejected(self, n_x):
        with pytest.raises(HPDivError, match="n_x must lie in \\[0, 3\\]"):
            JointSet(cloud=PointCloud(np.zeros((3, 1))), n_x=n_x)

    @pytest.mark.parametrize("n_x", [0, 1, 3])
    def test_split_derives_from_n_x(self, n_x):
        z = JointSet(cloud=PointCloud(np.zeros((3, 1))), n_x=n_x)
        assert z.n_y == 3 - n_x and len(z) == 3
        assert z.labels.dtype == np.int8
        assert z.labels.tolist() == [0] * n_x + [1] * (3 - n_x)

    def test_derived_fields_read_only(self):
        z = JointSet(cloud=PointCloud(np.zeros((3, 1))), n_x=1)
        with pytest.raises(ValueError):
            z.labels[0] = 1
        with pytest.raises(AttributeError):
            z.n_y = 0
        with pytest.raises(TypeError):
            JointSet(cloud=z.cloud, n_x=1, n_y=2)


class TestMixtureParam:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
    def test_identities(self, p):
        m = MixtureParam(p)
        assert m.p + m.q == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0, float("nan")])
    def test_invalid(self, p):
        with pytest.raises(InvalidP):
            MixtureParam(p)


class TestValidatePair:
    def test_balanced_no_warning(self, recwarn):
        x = PointCloud(np.zeros((3, 2)))
        y = PointCloud(np.ones((3, 2)))
        z = validate_pair(x, y, 0.5)
        assert z.n_x == 3 and z.n_y == 3 and len(z) == 6
        assert not any(
            isinstance(w.message, SampleRatioWarning) for w in recwarn.list
        )

    def test_layout_x_first(self):
        x = PointCloud([[0.0], [1.0]])
        y = PointCloud([[5.0], [6.0], [7.0], [8.0]])
        with pytest.warns(SampleRatioWarning):
            z = validate_pair(x, y, 0.5)
        assert list(z.labels) == [0] * 2 + [1] * 4
        np.testing.assert_array_equal(z.points[:2], x.points)
        np.testing.assert_array_equal(z.points[2:], y.points)

    def test_nested_lists_pool_as_point_clouds(self):
        # The estimators take raw arrays too: validate_pair wraps them.
        x = [[0.0, 0.1], [1.0, 0.3], [2.5, 0.2], [0.7, 1.9]]
        y = [[0.4, 0.5], [1.6, 1.1], [2.2, 2.0], [3.1, 0.6]]
        cx, cy = PointCloud(x), PointCloud(y)
        assert knn_estimate(x, y, 1, 0.5) == knn_estimate(cx, cy, 1, 0.5)
        assert mst_estimate(x, y, 0.5) == mst_estimate(cx, cy, 0.5)

    def test_off_by_one_ratio_tolerated(self, recwarn):
        x = PointCloud([[0.0], [1.0]])
        y = PointCloud([[5.0]])  # M=1 vs floor(Nq/p)=2: within tolerance
        validate_pair(x, y, 0.5)
        assert not any(
            isinstance(w.message, SampleRatioWarning) for w in recwarn.list
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_pair(PointCloud(np.zeros((2, 2))), PointCloud(np.zeros((2, 3))), 0.5)

    def test_ratio_warning(self):
        x = PointCloud(np.arange(10.0))
        y = PointCloud(np.arange(3.0))
        with pytest.warns(SampleRatioWarning):
            validate_pair(x, y, 0.5)

    def test_invalid_p(self):
        x = PointCloud([[0.0]])
        with pytest.raises(InvalidP):
            validate_pair(x, x, 1.5)

    def test_deterministic_order(self):
        rng = np.random.default_rng(3)
        x = PointCloud(rng.normal(size=(7, 3)))
        y = PointCloud(rng.normal(size=(7, 3)))
        z1 = validate_pair(x, y, 0.5)
        z2 = validate_pair(x, y, 0.5)
        np.testing.assert_array_equal(z1.points, z2.points)
        np.testing.assert_array_equal(z1.labels, z2.labels)


class TestPoolPair:
    def test_same_layout_as_validate_pair(self):
        rng = np.random.default_rng(4)
        x = PointCloud(rng.normal(size=(6, 2)))
        y = PointCloud(rng.normal(size=(6, 2)))
        a, b = pool_pair(x, y), validate_pair(x, y, 0.5)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert (a.n_x, a.n_y) == (b.n_x, b.n_y)

    def test_unbalanced_without_warning(self, recwarn):
        z = pool_pair(PointCloud(np.arange(10.0)), PointCloud(np.arange(3.0)))
        assert len(z) == 13
        assert not recwarn.list

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pool_pair(PointCloud(np.zeros((2, 2))), PointCloud(np.zeros((2, 3))))


def test_parse_number():
    assert parse_number(int, "12", "--n") == 12
    with pytest.raises(HPDivError, match="--n"):
        parse_number(int, "1.5", "--n")


def test_expected_m():
    assert expected_m(3, 0.5) == 3
    assert expected_m(10, 0.25) == 30  # floor(10 * 0.75 / 0.25)
    assert expected_m(7, 2 / 3) == 3   # floor(7 * (1/3) / (2/3)) = floor(3.5)


@pytest.mark.parametrize(
    "n, p",
    [(1, 1e-320), (50, 5e-324), (10**300, 1e-10), (128, 1e-300), (50, 1e-17)],
    # the last two are finite floats past 2**53, where whole numbers are skipped
    ids=["tiny-p", "subnormal-p", "huge-n", "m-1e302", "m-5e18"],
)
def test_expected_m_overflow_is_invalid_p(n, p):
    with pytest.raises(InvalidP, match=f"N={n}, p={p!r}"):
        expected_m(n, p)


def test_estimate_result_clamps():
    z = pool_pair(PointCloud([[0.0], [1.0]]), PointCloud([[2.0], [3.0]]))

    def result(statistic, clamp):  # raw value 1 - statistic / 2 at N = M = 2
        res = estimate_result("knn", z, statistic, 0.5, clamp, {})
        return res.value, res.clamped

    assert result(3, clamp=True) == (0.0, True)
    assert result(-1, clamp=True) == (1.0, True)
    assert result(3, clamp=False) == (-0.5, False)


class TestWorkerCount:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the CPUs this process may run on and the machine's count."""
        monkeypatch.delenv("HPDIV_THREADS", raising=False)

        def set_cpus(allowed, total):
            if allowed is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: total)

        return set_cpus

    def test_auto_follows_affinity_not_machine(self, cpus):
        cpus(allowed=3, total=64)
        assert worker_count() == 3

    def test_auto_without_affinity_uses_cpu_count(self, cpus):
        cpus(allowed=None, total=5)
        assert worker_count() == 5
        cpus(allowed=None, total=None)
        assert worker_count() == 1

    def test_auto_capped_at_8(self, cpus):
        cpus(allowed=32, total=32)
        assert worker_count() == 8

    @pytest.mark.parametrize("raw, expected", [("0", 3), ("", 3), ("1", 1), ("2", 2), ("16", 3)])
    def test_setting_capped_by_affinity(self, cpus, monkeypatch, raw, expected):
        cpus(allowed=3, total=64)
        monkeypatch.setenv("HPDIV_THREADS", raw)
        assert worker_count() == expected

    @pytest.mark.parametrize("raw", ["-1", "-8"])
    def test_negative_rejected(self, cpus, monkeypatch, raw):
        cpus(allowed=2, total=2)
        monkeypatch.setenv("HPDIV_THREADS", raw)
        with pytest.raises(HPDivError, match="HPDIV_THREADS"):
            worker_count()


class TestThreadMap:
    def test_keeps_order_on_the_pool(self, threads):
        # Early items sleep longest, so a pool finishes them last.
        seen = set()

        def slow(i):
            time.sleep(0.002 * (8 - i))
            seen.add(threading.get_ident())
            return i * i

        threads(4)
        assert thread_map(slow, range(8)) == [i * i for i in range(8)]
        assert threading.get_ident() not in seen

    @pytest.mark.parametrize("workers, items", [(1, range(5)), (4, [3]), (4, [])])
    def test_serial_on_the_callers_thread(self, workers, items, threads):
        threads(workers)
        seen = []
        out = thread_map(lambda i: seen.append(threading.get_ident()) or -i, items)
        assert out == [-i for i in items]
        assert seen == [threading.get_ident()] * len(out)

    def test_nested_call_runs_on_the_worker(self, threads):
        # A bench trial's neighbor pass calls thread_map on a pool thread:
        # it runs there, so no more than HPDIV_THREADS threads ever run.
        threads(2)

        def outer(i):
            time.sleep(0.002)
            return threading.get_ident(), thread_map(lambda j: threading.get_ident(), range(3))

        out = thread_map(outer, range(4))
        assert all(inner == [worker] * 3 for worker, inner in out)
        assert threading.get_ident() not in {worker for worker, _ in out}
        # The caller's own thread is no pool thread: its next call fans out.
        assert threading.get_ident() not in thread_map(lambda j: threading.get_ident(), range(4))


def _tnorm(**arrays):
    spec = {"box": [[-3.0, 3.0], [-3.0, 3.0]], "mean": [0.0, 0.0], "cov": [1.0, 2.0]}
    return DistributionSpec(kind=KIND_TRUNC_NORMAL, **{**spec, **arrays})


@pytest.mark.parametrize(
    "array, build, read",
    [
        (np.zeros((3, 2)), PointCloud, lambda o: o.points),
        (np.zeros(3), PointCloud, lambda o: o.points),
        (np.array([1.0, 2.0]), lambda a: resolve_schedule(a, 1, 100), lambda o: o.l_values),
        (np.array([[0.0, 1.0]]), lambda a: DistributionSpec(KIND_UNIFORM, a), lambda o: o.box),
        (np.array([[-3.0, 3.0]] * 2), lambda a: _tnorm(box=a), lambda o: o.box),
        (np.array([0.5, 1.5]), lambda a: _tnorm(cov=a), lambda o: o.cov),
        (np.zeros(2), lambda a: _tnorm(mean=a), lambda o: o.mean),
        (np.array([0.0, 1.0]), uniform_box, lambda o: o.box),
    ],
    ids=[
        "cloud", "cloud-1d", "schedule", "uniform", "tnorm-box",
        "tnorm-cov", "tnorm-mean", "uniform_box",
    ],
)
def test_constructors_freeze_a_copy(array, build, read):
    obj = build(array)
    kept = read(obj).copy()
    assert array.flags.writeable
    array[...] = 7
    np.testing.assert_array_equal(read(obj), kept)
    assert not read(obj).flags.writeable
