"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (visible with pytest -s or -rA).

Statistical criteria (3-7, 10) run fixed seeds and are rerunnable; their
thresholds carry slack for Monte Carlo noise. Criterion 10 needs the UCI
wall-following robot file (sensor_readings_4.data); point HPDIV_ROBOT_DATA
at it to enable the test.
"""

import math
import os
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from hpdiv import (
    PointCloud,
    build_emst,
    build_index,
    knn_estimate,
    mst_estimate,
    resolve_schedule,
    solve_weights,
    true_divergence,
    truncated_normal,
    validate_pair,
    wnn_estimate,
)
from hpdiv.bench import ExperimentPlan, parse_methods, run_plan
from hpdiv.io import class_pair, load_labeled, save_points
from hpdiv.neighbors import neighbor_ranks
from hpdiv.weights import constraint_matrix

from conftest import tie_free
from oracles import kruskal_mst, minnorm_pinv, scan_rank_table


@contextmanager
def criterion(num: int, desc: str, budget_s: float | None = None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} FAIL ({desc})")
        raise
    elapsed = time.time() - t0
    print(f"[acceptance] criterion {num:2d} PASS ({desc}) [{elapsed:.1f}s]")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def bench(scenario, dims, n_grid, methods, seed, trials=100, shift=1.0):
    plan = ExperimentPlan(
        scenario=scenario,
        dims=dims,
        n_grid=tuple(n_grid),
        methods=tuple(parse_methods(methods)),
        trials=trials,
        p=0.5,
        base_seed=seed,
        shift=shift,
    )
    return {(s.method, s.n): s for s in run_plan(plan)}


def test_criterion_1_hand_instance_exactness(hand_pair):
    with criterion(1, "hand-instance exactness", budget_s=1.0):
        x, y = hand_pair
        assert knn_estimate(x, y, 1, 0.5).value == -1.0
        assert knn_estimate(x, y, 2, 0.5).value == 0.0
        assert mst_estimate(x, y, 0.5).value == -0.5
        sched = resolve_schedule([1.0, 2.0], 1, 2)
        assert wnn_estimate(x, y, sched, 0.5).value == -2.0


def test_criterion_2_weight_solver():
    with criterion(2, "weight solver feasibility and minimality", budget_s=10.0):
        from hpdiv import SingularConstraints

        for d in range(1, 6):
            rng = np.random.default_rng(888 + d)
            done = 0
            while done < 50:
                size = d + 1 + int(rng.integers(0, 6))
                ls = np.sort(rng.uniform(0.3, 6.0, size=size))
                ls += np.arange(size) * 0.05  # guarantee separation
                try:
                    w = solve_weights(ls, d)
                except SingularConstraints:
                    continue  # inadmissible draw per the conditioning threshold
                done += 1
                a, b = constraint_matrix(ls, d)
                assert np.abs(a @ w - b).max() <= 1e-9
                norm = np.linalg.norm(w)
                w_oracle = minnorm_pinv(ls, d)
                assert norm <= np.linalg.norm(w_oracle) * (1 + 1e-9) + 1e-9
                _, _, vt = np.linalg.svd(a)
                for z in vt[d + 1 :]:
                    step = rng.uniform(-0.5, 0.5)
                    assert (
                        np.linalg.norm(w + step * z)
                        >= norm - 1e-9 * max(1.0, norm)
                    )


def test_criterion_3_oracle_consistency():
    with criterion(3, "wnn mean matches quadrature truth (N=4000)", budget_s=120.0):
        fx = truncated_normal([0.0], 1.0, (-5, 5))
        fy = truncated_normal([1.0], 1.0, (-5, 5))
        truth = true_divergence(fx, fy, 0.5)
        cells = bench("gauss-shift", 1, (4000,), "wnn", seed=101)
        summary = cells[("wnn", 4000)]
        assert abs(summary.mean_est - truth) <= 0.02


def test_criterion_4_mse_rate():
    with criterion(4, "wnn MSE contracts ~1/N (400 vs 1600)", budget_s=180.0):
        cells = bench("gauss-shift", 1, (400, 1600), "wnn", seed=202)
        ratio = cells[("wnn", 400)].mse / cells[("wnn", 1600)].mse
        assert ratio >= 2.5, f"MSE ratio {ratio:.2f} below 2.5"


def test_criterion_5_variance_decay():
    with criterion(5, "knn variance decays in N", budget_s=120.0):
        cells = bench("gauss-shift", 2, (500, 2000), "knn:5", seed=303)
        assert (
            cells[("knn:5", 2000)].variance < cells[("knn:5", 500)].variance
        )


def test_criterion_6_k_sensitivity():
    with criterion(6, "larger k inflates bias at fixed N"):
        cells = bench("gauss-shift", 2, (512,), "knn:5,knn:20", seed=404)
        b5 = abs(cells[("knn:5", 512)].bias)
        b20 = abs(cells[("knn:20", 512)].bias)
        assert b20 >= b5, f"|bias| k=20 {b20:.4f} < k=5 {b5:.4f}"


def test_criterion_7_method_comparison():
    with criterion(7, "wnn MSE competitive at N=2048 (scale scenario)"):
        cells = bench("gauss-scale", 2, (2048,), "knn:5,wnn,mst", seed=555001)
        wnn = cells[("wnn", 2048)].mse
        floor = min(cells[("knn:5", 2048)].mse, cells[("mst", 2048)].mse)
        assert wnn <= 1.2 * floor, f"wnn {wnn:.3e} > 1.2 x {floor:.3e}"


def test_criterion_8_structural_oracles():
    with criterion(8, "tree search and EMST match brute-force oracles", budget_s=30.0):
        rng = np.random.default_rng(777)
        dims = [1, 2, 5]
        for trial in range(50):
            n = int(rng.integers(10, 201))
            d = dims[trial % 3]
            pts = rng.normal(size=(n, d))
            half = n // 2
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                z = validate_pair(
                    PointCloud(pts[:half]), PointCloud(pts[half:]), 0.5
                )
            table = neighbor_ranks(build_index(z), np.arange(1, n))
            np.testing.assert_array_equal(table, scan_rank_table(pts))
        for trial in range(50):
            n = int(rng.integers(5, 301))
            d = [1, 2, 3][trial % 3]
            pts = rng.normal(size=(n, d))
            tree = build_emst(PointCloud(pts))
            oracle_edges, _ = kruskal_mst(pts)

            # exact multiset equality of edge lengths via one shared formula
            def sq(edges):
                diff = pts[edges[:, 0]] - pts[edges[:, 1]]
                return np.sort((diff * diff).sum(axis=1))

            np.testing.assert_array_equal(sq(tree.edges), sq(oracle_edges))


def test_criterion_9_symmetry_and_invariance():
    with criterion(9, "symmetry, ensemble identity, ranges", budget_s=30.0):
        rng = np.random.default_rng(999)
        usable = 0
        for _ in range(40):
            n = int(rng.integers(6, 30))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d)) + 0.3
            if not tie_free(np.vstack([x, y])):
                continue
            usable += 1
            cx, cy = PointCloud(x), PointCloud(y)
            sched = resolve_schedule([1.0, 2.2], d, n) if d == 1 else resolve_schedule(
                np.linspace(1.0, 2.2, d + 1), d, n
            )

            # label-swap symmetry at p = 1/2
            k = int(rng.integers(1, n))
            assert knn_estimate(cx, cy, k, 0.5).value == knn_estimate(cy, cx, k, 0.5).value
            assert mst_estimate(cx, cy, 0.5).value == mst_estimate(cy, cx, 0.5).value
            assert (
                wnn_estimate(cx, cy, sched, 0.5).value
                == wnn_estimate(cy, cx, sched, 0.5).value
            )

            # ensemble identity
            whole = wnn_estimate(cx, cy, sched, 0.5).value
            parts = sum(
                w * knn_estimate(cx, cy, int(kk), 0.5).value
                for w, kk in zip(sched.w, sched.k_values)
            )
            assert whole == pytest.approx(parts, abs=1e-12)

            # permutation invariance
            px, py = rng.permutation(n), rng.permutation(n)
            assert (
                knn_estimate(PointCloud(x[px]), PointCloud(y[py]), k, 0.5).value
                == knn_estimate(cx, cy, k, 0.5).value
            )

            # range bounds: plain counts for knn/mst, weighted for wnn
            lo = 1 - (2 * n) ** 2 / (2 * n * n)
            assert lo - 1e-12 <= knn_estimate(cx, cy, k, 0.5).value <= 1.0
            assert lo - 1e-12 <= mst_estimate(cx, cy, 0.5).value <= 1.0
            t = (2 * n) ** 2 / (2 * n * n)
            pos = float(np.clip(sched.w, 0, None).sum())
            neg = float(np.clip(sched.w, None, 0).sum())
            assert 1 - t * pos - 1e-12 <= whole <= 1 - t * neg + 1e-12
        assert usable >= 30


ROBOT_ENV = "HPDIV_ROBOT_DATA"


@pytest.mark.skipif(
    ROBOT_ENV not in os.environ,
    reason=f"set {ROBOT_ENV}=/path/to/sensor_readings_4.data to run",
)
def test_criterion_10_robot_dataset(tmp_path):
    with criterion(10, "robot dataset: shape, finiteness, wnn spread", budget_s=120.0):
        ds = load_labeled(os.environ[ROBOT_ENV])
        assert len(ds) == 5456, f"expected 5456 instances, got {len(ds)}"
        assert len(ds.class_counts) == 4, ds.class_counts

        def find_class(name):
            for cls in ds.class_counts:
                if cls.lower() == name:
                    return cls
            raise AssertionError(f"class {name!r} missing: {ds.class_counts}")

        a = find_class("sharp-right-turn")
        b = find_class("move-forward")
        x, y = class_pair(ds, a, b)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            knn_full = knn_estimate(x, y, 5, 0.5).value
            mst_full = mst_estimate(x, y, 0.5).value
            sched = resolve_schedule(
                np.asarray([1.0, 2.0, 3.0, 4.0, 5.0]), 4, len(x), m=len(y)
            )
            wnn_full = wnn_estimate(x, y, sched, 0.5).value
        assert all(math.isfinite(v) for v in (knn_full, wnn_full, mst_full))

        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, x)
        save_points(yp, y)
        plan = ExperimentPlan(
            scenario="csv",
            dims=4,
            n_grid=(500,),
            methods=tuple(parse_methods("knn:5,wnn")),
            trials=100,
            p=0.5,
            base_seed=606,
            x_path=str(xp),
            y_path=str(yp),
        )
        cells = {(s.method, s.n): s for s in run_plan(plan)}
        v_wnn = cells[("wnn", 500)].variance
        v_knn = cells[("knn:5", 500)].variance
        assert v_wnn <= v_knn, f"wnn var {v_wnn:.3e} > knn var {v_knn:.3e}"
