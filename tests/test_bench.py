import warnings

import numpy as np
import pytest

from hpdiv import bench, estimators, knn_estimate, mst_estimate, wnn_estimate
from hpdiv.bench import (
    CellErrorWarning,
    ExperimentPlan,
    MethodSpec,
    load_summaries,
    parse_methods,
    resolve_truth,
    run_plan,
    scenario_specs,
    summarize_csv,
)
from hpdiv.core import HPDivError, InvalidP
from hpdiv.io import load_points, save_points
from hpdiv import PointCloud


def small_plan(**kw):
    base = dict(
        scenario="gauss-shift",
        dims=1,
        n_grid=(32, 64),
        methods=tuple(parse_methods("knn:3")),
        trials=5,
        p=0.5,
        base_seed=9,
    )
    base.update(kw)
    return ExperimentPlan(**base)


class TestParseMethods:
    def test_mixed(self):
        specs = parse_methods("knn:5,knn:10,wnn,mst")
        assert [s.label for s in specs] == ["knn:5", "knn:10", "wnn", "mst"]

    def test_wnn_custom_l(self):
        (spec,) = parse_methods("wnn:1|2|3")
        assert spec.l_values == (1.0, 2.0, 3.0)

    def test_const(self):
        (spec,) = parse_methods("const:0.3")
        assert spec.value == 0.3 and spec.label == "const:0.3"

    def test_unknown(self):
        with pytest.raises(HPDivError):
            parse_methods("magic")

    @pytest.mark.parametrize("text", ["knn:abc", "wnn:1|x", "const:y"])
    def test_malformed_number(self, text):
        with pytest.raises(HPDivError):
            parse_methods(text)

    @pytest.mark.parametrize("text", ["wnn,wnn:1|2", "knn:5,mst,knn:5"])
    def test_duplicate_labels_rejected(self, text):
        with pytest.raises(HPDivError, match="duplicate"):
            parse_methods(text)


class TestPlanValidation:
    def test_trials_floor(self):
        with pytest.raises(HPDivError):
            small_plan(trials=1)

    def test_grid_increasing(self):
        with pytest.raises(HPDivError):
            small_plan(n_grid=(64, 64))

    def test_csv_needs_paths(self):
        with pytest.raises(HPDivError):
            small_plan(scenario="csv")

    def test_duplicate_labels(self):
        with pytest.raises(HPDivError, match="duplicate"):
            small_plan(methods=(MethodSpec(kind="mst"), MethodSpec(kind="mst")))

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            small_plan(p=1.5)

    @pytest.mark.parametrize("dims", [0, -1])
    def test_dims_floor(self, dims):
        with pytest.raises(HPDivError, match="dims"):
            small_plan(dims=dims)


class TestTruth:
    def test_user_truth_wins(self):
        assert resolve_truth(small_plan(truth=0.42)) == 0.42

    def test_identical_specs_yield_zero(self):
        plan = small_plan(shift=0.0)
        fx, fy = scenario_specs(plan)
        assert fx == fy
        assert resolve_truth(plan) == 0.0

    def test_high_dim_without_truth_is_none(self):
        assert resolve_truth(small_plan(dims=10)) is None

    def test_csv_without_truth_is_none(self, tmp_path):
        rng = np.random.default_rng(0)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(30, 2))))
        save_points(yp, PointCloud(rng.normal(size=(30, 2))))
        plan = small_plan(scenario="csv", x_path=str(xp), y_path=str(yp), dims=2)
        assert resolve_truth(plan) is None


class TestRunPlan:
    def test_constant_stub_moments(self):
        plan = small_plan(
            methods=tuple(parse_methods("const:0.3")), truth=0.5, trials=10
        )
        out = run_plan(plan)
        assert len(out) == 2
        for s in out:
            assert s.mean_est == pytest.approx(0.3, rel=1e-15)
            assert s.bias == pytest.approx(-0.2, rel=1e-14)
            assert s.variance == pytest.approx(0.0, abs=1e-30)
            assert s.mse == pytest.approx(0.04, rel=1e-14)

    def test_constant_stub_exact_on_dyadic_value(self):
        # 0.25 and 0.5 are exactly representable, so the moments are exact
        plan = small_plan(
            methods=tuple(parse_methods("const:0.25")), truth=0.5, trials=10
        )
        for s in run_plan(plan):
            assert s.mean_est == 0.25
            assert s.bias == -0.25
            assert s.variance == 0.0
            assert s.mse == 0.0625

    def test_reproducible(self):
        plan = small_plan(methods=tuple(parse_methods("knn:3,mst")))
        assert run_plan(plan) == run_plan(plan)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        plan = small_plan(methods=tuple(parse_methods("knn:3,mst")), trials=6)
        monkeypatch.setenv("HPDIV_THREADS", "1")
        serial = run_plan(plan)
        monkeypatch.setenv("HPDIV_THREADS", "4")
        threaded = run_plan(plan)
        assert serial == threaded

    def test_mse_identity(self):
        plan = small_plan(methods=tuple(parse_methods("knn:2")), trials=16)
        for s in run_plan(plan):
            assert s.mse == pytest.approx(s.bias**2 + s.variance, rel=1e-12, abs=1e-15)
            assert s.ci_low <= s.mean_est <= s.ci_high

    def test_bad_cell_aborts_only_itself(self):
        # K(l) for l = 1, 12 is (5, 67) at n=32, past |Z| - 1 = 63; (8, 96) at n=64
        plan = small_plan(methods=tuple(parse_methods("knn:500,knn:0,wnn:1|12,knn:3")))
        with pytest.warns(CellErrorWarning) as caught:
            out = run_plan(plan)
        labels = {(s.method, s.n) for s in out}
        assert labels == {("knn:3", 32), ("knn:3", 64), ("wnn", 64)}
        assert len([w for w in caught if w.category is CellErrorWarning]) == 5

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_programming_error_propagates(self, monkeypatch, threads):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug")

        monkeypatch.setenv("HPDIV_THREADS", threads)
        plan = small_plan(methods=tuple(parse_methods("knn:3,mst")))
        for module, name in ((bench, "build_emst"), (estimators, "neighbor_ranks")):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, broken)
                with pytest.raises(ZeroDivisionError):
                    run_plan(plan)

    @pytest.mark.parametrize("scenario", ["gauss-shift", "csv"])
    def test_trial_matches_library(self, tmp_path, scenario):
        """One (n, t) of the bench equals the public estimators bit for bit
        on the same draw; the csv pair is a duplicate-heavy integer grid."""
        rng = np.random.default_rng(8)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.integers(0, 5, size=(200, 2))))
        save_points(yp, PointCloud(rng.integers(1, 6, size=(180, 2))))
        plan = small_plan(
            scenario=scenario, dims=2, n_grid=(160,), p=0.4, x_path=str(xp), y_path=str(yp),
            methods=tuple(parse_methods("knn:5,wnn,mst")),
        )
        specs = scenario_specs(plan)
        clouds = (load_points(xp), load_points(yp)) if scenario == "csv" else None
        schedules = bench._resolve_schedules(plan)
        t = 3
        got = bench._run_trial(plan, specs, clouds, schedules, 160, t)
        x, y = bench._draw_pair(plan, specs, clouds, 160, t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the csv pair is off the balanced ratio
            want = {
                "knn:5": knn_estimate(x, y, 5, plan.p).value,
                "wnn": wnn_estimate(x, y, schedules[160], plan.p).value,
                "mst": mst_estimate(x, y, plan.p).value,
            }
        assert got == want

    def test_malformed_thread_count(self, monkeypatch):
        monkeypatch.setenv("HPDIV_THREADS", "x")
        with pytest.raises(HPDivError, match="HPDIV_THREADS"):
            run_plan(small_plan())

    def test_identical_distributions_ci_brackets_zero(self):
        plan = small_plan(
            shift=0.0, n_grid=(256,), trials=30,
            methods=tuple(parse_methods("knn:5")),
        )
        (s,) = run_plan(plan)
        assert s.ci_low <= 0.15 and s.ci_high >= -0.15  # loose sanity band

    def test_dimension_sensitivity(self):
        """knn MSE on identical pairs does not improve with dimension
        (statistical, rerunnable; truth is exactly 0 for identical specs)."""
        mse = {}
        for d in (2, 10):
            plan = small_plan(
                dims=d, shift=0.0, n_grid=(256,), trials=60,
                methods=tuple(parse_methods("knn:5")), base_seed=11,
            )
            (s,) = run_plan(plan)
            assert s.bias is not None  # truth known without quadrature
            mse[d] = s.mse
        assert mse[10] >= mse[2]

    def test_csv_scenario_bootstrap(self, tmp_path):
        rng = np.random.default_rng(4)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(100, 2))))
        save_points(yp, PointCloud(rng.normal(size=(80, 2)) + 1.0))
        plan = small_plan(
            scenario="csv", dims=2, x_path=str(xp), y_path=str(yp),
            n_grid=(40,), trials=6, methods=tuple(parse_methods("knn:3")),
        )
        (s,) = run_plan(plan)
        assert s.bias is None and s.mse is None
        assert np.isfinite(s.mean_est) and np.isfinite(s.variance)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        plan = small_plan(methods=tuple(parse_methods("knn:3")), trials=4)
        out = run_plan(plan)
        path = tmp_path / "r.csv"
        summarize_csv(out, path)
        assert load_summaries(path) == out

    def test_round_trip_with_missing_truth(self, tmp_path):
        plan = small_plan(dims=10, trials=4)  # no truth in 10-D
        out = run_plan(plan)
        assert out[0].bias is None
        path = tmp_path / "r.csv"
        summarize_csv(out, path)
        assert load_summaries(path) == out

    def test_single_summary_two_lines(self, tmp_path):
        plan = small_plan(n_grid=(32,), trials=4)
        out = run_plan(plan)
        path = tmp_path / "one.csv"
        summarize_csv(out, path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_empty_input_no_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(HPDivError):
            summarize_csv([], path)
        assert not path.exists()
